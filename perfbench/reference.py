"""A fixed numpy reference kernel that measures how fast the host is right now.

On a shared host the speed of a core drifts by 10-50% over tens of seconds
(co-tenants on the same physical core, memory bandwidth), and wall-clock
times drift with it. Timing this kernel next to every measured interval and
scaling the interval by REF_SECONDS / (the kernel's time) reports the
interval in reference-host seconds, which cancels most of the drift. The
kernel mixes what the library spends its time on: a strided window copy
(im2col), a float32 GEMM, elementwise passes, a table gather and a loop of
small numpy calls. It must never change: every recorded result depends on it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_SECONDS = 0.0025  # the kernel's time on the reference host (2 vCPU AVX-512 Xeon)
_REPEATS = 5

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 512)).astype(np.float32)
_X = _rng.standard_normal((4, 32, 34, 34)).astype(np.float32)
_TABLE = _rng.random((256, 3))
# every buffer is allocated once, so the kernel's time does not depend on
# the state the measured code leaves the allocator in
_COLS = np.empty((4, 32, 4, 4, 16, 16), dtype=np.float32)
_Y = np.empty((4, 64, 256), dtype=np.float32)
_IDX = np.empty((64, 256), dtype=np.int64)
_ROWS = np.empty((64, 256, 3))


def _kernel() -> float:
    sn, sc, sh, sw = _X.strides
    np.copyto(_COLS, np.lib.stride_tricks.as_strided(
        _X, _COLS.shape, (sn, sc, sh, sw, 2 * sh, 2 * sw)))
    np.matmul(_W, _COLS.reshape(4, 512, 256), out=_Y)
    np.maximum(_Y, 0, out=_Y)
    np.multiply(_Y, 0.5, out=_Y)
    np.add(_Y, 1.0, out=_Y)
    np.copyto(_IDX, _Y[0] * 37, casting="unsafe")
    np.remainder(_IDX, 256, out=_IDX)
    np.take(_TABLE, _IDX, axis=0, out=_ROWS)
    total = float(_ROWS.sum())
    for k in range(200):
        total += float(np.tanh(_Y[0, k % 64, :8]).sum())
    return total


def time_reference() -> float:
    """Median wall seconds of the kernel over a few runs, robust to one interrupt."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Reports intervals in reference-host seconds.

    Call `mark()` right before a measured interval and `scale()` right after
    it: the interval's wall time times REF_SECONDS over the mean of the
    reference times taken on either side of it. The reference taken after
    one interval is reused before the next.
    """

    def __init__(self):
        self._before: float | None = None
        self.reference_s: list[float] = []

    def mark(self) -> None:
        if self._before is None:
            self._before = time_reference()

    def scale(self) -> float:
        after = time_reference()
        self.reference_s.append(after)
        factor = REF_SECONDS / ((self._before + after) / 2)
        self._before = after
        return factor
