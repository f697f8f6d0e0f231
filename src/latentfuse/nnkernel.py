"""Minimal deterministic neural-network kernel.

Everything the encoders and classifier heads need, with no ML framework:
plain numpy tensors, a small set of layer kinds with exact analytic
gradients, bias-corrected Adam, and a counter-based PRNG so that equal
seeds give bitwise-equal models.

Conventions, pinned for cross-run reproducibility:

- Activations carry a leading batch axis. Images have the logical shape
  (N, C, H, W), and every image a layer produces (conv2d,
  conv_transpose2d, residual_block, and relu or sigmoid of those) is a
  view over channels-last (N, H, W, C) memory. Layers take inputs of any
  strides (docs/design.md, "Memory format").
- conv2d computes cross-correlation (no kernel flip), bias added per
  output channel. Output spatial size per axis: (H + 2p - k) // s + 1.
- conv_transpose2d is the exact adjoint of conv2d with the same
  hyperparameters. Output size per axis: (H - 1) * s - 2p + k.
- residual_block(c) is x + c2(relu(c1(x))) with two 3x3, stride-1,
  padding-1 convolutions at c channels.
- recurrent_cell is a single gated-update step
      h' = (1 - u) * h + u * tanh(Wc x + Uc (r * h) + bc)
  with sigmoid gates u and r. (A deliberately small stand-in for a full
  LSTM; one cell kind keeps the kernel auditable.)
- Parameters are stored float32 and initialized uniform on
  (-sqrt(1/fan_in), +sqrt(1/fan_in)); biases start at zero. Loss-style
  reductions accumulate in float64.
- All randomness flows through Rng (SplitMix64). Draw order is the
  parameter registration order, so identical seeds give identical models.
- stack_forward keeps every layer's cache for stack_backward. stack_infer is
  the cache-free inference pass: its scratch and activations live in the
  calling thread's Arena, reused from call to call, and its result is
  bitwise stack_forward's. Its convs unfold image by image into one
  image's padded input and columns, so a batch adds only activations.
- Importing this module sets OpenBLAS to one thread. map_windows runs
  independent items (a request's window chunks, a head batch's time
  steps, a training conv's image ranges) on every CPU instead: the
  calling thread and the workers of one persistent pool each take items
  until none are left (docs/design.md, "Parallelism").
- conv2d pads its input into (N, H+2p, W+2p, C), unfolds each output
  pixel's patch as k runs of k*C contiguous floats, and runs one
  (P, k*k*C) @ (k*k*C, O) GEMM per image straight into its (N, P, O)
  output, P = ho * wo.
- conv_transpose2d's forward and conv2d's input gradient are one operator,
  the conv's adjoint, run in sub-pixel form: a stride-1 conv of the
  gradient whose output channels are the s*s output phases, interleaved
  by depth-to-space (docs/design.md, "Sub-pixel adjoint").
- A training conv's forward runs one contiguous image range per runner,
  and its backward runs the weight-gradient GEMM on a pool worker while
  the calling thread computes the input gradient. The weight gradient is
  in the store when that conv's backward returns, or raises. Both are
  bitwise the serial call.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from . import hostinfo
from .errors import NumericError, UsageError

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# ---------------------------------------------------------------------------
# PRNG
# ---------------------------------------------------------------------------

class Rng:
    """SplitMix64 generator with uniform variates.

    Output i (1-based) mixes the state seed + i * 0x9E3779B97F4A7C15, so the
    sequence is a pure function of (seed, draw index) and can be produced
    scalar or vectorized with identical results.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK64)
        self._count = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            z = self._seed + idx * np.uint64(_SPLITMIX_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            return z ^ (z >> np.uint64(31))

    def next_u64(self) -> int:
        return int(self._raw(1)[0])

    def uniform(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Uniform float64 draws in [0, 1): raw / 2**64."""
        size = int(np.prod(shape)) if shape != () else 1
        u = self._raw(size).astype(np.float64) * (2.0 ** -64)
        if shape == ():
            return float(u[0])
        return u.reshape(shape)

    def integers(self, bound: int, size: int) -> np.ndarray:
        """Draws in [0, bound) by modulo reduction (documented small bias)."""
        if bound <= 0:
            raise UsageError("integer bound must be positive")
        return (self._raw(size) % np.uint64(bound)).astype(np.int64)

    def shuffle(self, n: int) -> np.ndarray:
        """Deterministic Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = int(self._raw(1)[0] % np.uint64(i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def seed_rng(seed: int) -> Rng:
    """Build the package-wide deterministic generator for a 64-bit seed."""
    return Rng(seed)


# ---------------------------------------------------------------------------
# Layer descriptors and shape algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerDescriptor:
    """Static description of one layer: kind, hyperparameters, param shapes."""

    kind: str
    name: str = ""
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    in_features: int = 0
    out_features: int = 0
    hidden: int = 0
    inner: tuple["LayerDescriptor", ...] = ()


def conv2d(name: str, cin: int, cout: int, k: int, s: int = 1, p: int = 0) -> LayerDescriptor:
    return LayerDescriptor("conv2d", name, in_channels=cin, out_channels=cout,
                           kernel=k, stride=s, padding=p)


def conv_transpose2d(name: str, cin: int, cout: int, k: int, s: int = 1, p: int = 0) -> LayerDescriptor:
    return LayerDescriptor("conv_transpose2d", name, in_channels=cin, out_channels=cout,
                           kernel=k, stride=s, padding=p)


def dense(name: str, fin: int, fout: int) -> LayerDescriptor:
    return LayerDescriptor("dense", name, in_features=fin, out_features=fout)


def relu() -> LayerDescriptor:
    return LayerDescriptor("relu")


def sigmoid() -> LayerDescriptor:
    return LayerDescriptor("sigmoid")


def residual_block(name: str, channels: int) -> LayerDescriptor:
    inner = (
        conv2d(f"{name}.c1", channels, channels, 3, 1, 1),
        relu(),
        conv2d(f"{name}.c2", channels, channels, 3, 1, 1),
    )
    return LayerDescriptor("residual_block", name, in_channels=channels,
                           out_channels=channels, inner=inner)


def recurrent_cell(name: str, x_dim: int, hidden: int) -> LayerDescriptor:
    return LayerDescriptor("recurrent_cell", name, in_features=x_dim, hidden=hidden)


def out_shape(desc: LayerDescriptor, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Output shape (no batch axis) produced by `desc` on `in_shape`."""
    if desc.kind == "conv2d":
        c, h, w = in_shape
        if c != desc.in_channels:
            raise UsageError(f"conv2d {desc.name}: expected {desc.in_channels} input "
                             f"channels, got shape {in_shape}")
        ho = (h + 2 * desc.padding - desc.kernel) // desc.stride + 1
        wo = (w + 2 * desc.padding - desc.kernel) // desc.stride + 1
        if ho < 1 or wo < 1:
            raise UsageError(f"conv2d {desc.name}: kernel {desc.kernel} does not fit "
                             f"input shape {in_shape}")
        return (desc.out_channels, ho, wo)
    if desc.kind == "conv_transpose2d":
        c, h, w = in_shape
        if c != desc.in_channels:
            raise UsageError(f"conv_transpose2d {desc.name}: expected {desc.in_channels} "
                             f"input channels, got shape {in_shape}")
        ho = (h - 1) * desc.stride - 2 * desc.padding + desc.kernel
        wo = (w - 1) * desc.stride - 2 * desc.padding + desc.kernel
        if ho < 1 or wo < 1:
            raise UsageError(f"conv_transpose2d {desc.name}: degenerate output for "
                             f"input shape {in_shape}")
        return (desc.out_channels, ho, wo)
    if desc.kind == "dense":
        if in_shape != (desc.in_features,):
            raise UsageError(f"dense {desc.name}: expected shape ({desc.in_features},), "
                             f"got {in_shape}")
        return (desc.out_features,)
    if desc.kind in ("relu", "sigmoid"):
        return in_shape
    if desc.kind == "residual_block":
        shape = in_shape
        for d in desc.inner:
            shape = out_shape(d, shape)
        if shape != in_shape:
            raise UsageError(f"residual_block {desc.name}: inner stack changes shape "
                             f"{in_shape} -> {shape}")
        return in_shape
    if desc.kind == "recurrent_cell":
        if in_shape != (desc.in_features,):
            raise UsageError(f"recurrent_cell {desc.name}: expected shape "
                             f"({desc.in_features},), got {in_shape}")
        return (desc.hidden,)
    raise UsageError(f"unknown layer kind: {desc.kind}")


def stack_out_shape(descs: Sequence[LayerDescriptor], in_shape: tuple[int, ...]) -> tuple[int, ...]:
    shape = in_shape
    for d in descs:
        shape = out_shape(d, shape)
    return shape


def param_specs(desc: LayerDescriptor) -> list[tuple[str, tuple[int, ...], int]]:
    """Ordered (suffix, shape, fan_in) parameter specs for a descriptor."""
    if desc.kind == "conv2d":
        fan = desc.in_channels * desc.kernel * desc.kernel
        return [("w", (desc.out_channels, desc.in_channels, desc.kernel, desc.kernel), fan),
                ("b", (desc.out_channels,), fan)]
    if desc.kind == "conv_transpose2d":
        fan = desc.in_channels * desc.kernel * desc.kernel
        return [("w", (desc.in_channels, desc.out_channels, desc.kernel, desc.kernel), fan),
                ("b", (desc.out_channels,), fan)]
    if desc.kind == "dense":
        return [("w", (desc.out_features, desc.in_features), desc.in_features),
                ("b", (desc.out_features,), desc.in_features)]
    if desc.kind == "recurrent_cell":
        x, h = desc.in_features, desc.hidden
        fan = x + h
        specs = []
        for gate in ("u", "r", "c"):
            specs.append((f"wx{gate}", (h, x), fan))
            specs.append((f"wh{gate}", (h, h), fan))
            specs.append((f"b{gate}", (h,), fan))
        return specs
    if desc.kind == "residual_block":
        specs = []
        for d in desc.inner:
            prefix = d.name.removeprefix(f"{desc.name}.")
            for suffix, shape, fan in param_specs(d):
                specs.append((f"{prefix}.{suffix}", shape, fan))
        return specs
    return []


def param_count(desc: LayerDescriptor) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in param_specs(desc))


# ---------------------------------------------------------------------------
# Parameter store
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameters with matching gradient and Adam-moment tensors.

    Single-writer: training code owns the store; gradient accumulation adds
    into the existing buffers in a fixed order.
    """

    def __init__(self) -> None:
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self.values:
            raise UsageError(f"duplicate parameter name: {name}")
        self.values[name] = value
        self.grads[name] = np.zeros_like(value)
        self.m[name] = np.zeros_like(value)
        self.v[name] = np.zeros_like(value)

    def accumulate(self, name: str, grad: np.ndarray) -> None:
        g = self.grads[name]
        if g.shape != grad.shape:
            raise UsageError(f"gradient shape {grad.shape} does not match parameter "
                             f"'{name}' shape {g.shape}")
        g += grad

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0

    def names(self) -> list[str]:
        return list(self.values)

    def total_params(self) -> int:
        return sum(v.size for v in self.values.values())


class GradTape:
    """A ParamStore stand-in for backward that keeps gradients instead of adding them.

    It reads the store's values, and `grads` lists each (name, gradient)
    in the order backward produced them. Backward passes on separate tapes
    can share one store across threads; adding the tapes' gradients into
    the store in a fixed order afterwards gives the same sums as running
    the passes in that order on the store itself.
    """

    def __init__(self, store: ParamStore) -> None:
        self.values = store.values
        self.grads: list[tuple[str, np.ndarray]] = []

    def accumulate(self, name: str, grad: np.ndarray) -> None:
        self.grads.append((name, grad))


def init_params(descs: Iterable[LayerDescriptor], store: ParamStore, rng: Rng,
                dtype=np.float32) -> None:
    """Register and initialize parameters for a stack, in stack order."""
    for desc in descs:
        if desc.kind == "residual_block":
            init_params(desc.inner, store, rng, dtype)
            continue
        for suffix, shape, fan_in in param_specs(desc):
            name = f"{desc.name}.{suffix}"
            if suffix.startswith("b"):
                value = np.zeros(shape, dtype=dtype)
            else:
                scale = float(np.sqrt(1.0 / fan_in))
                value = ((rng.uniform(shape) * 2.0 - 1.0) * scale).astype(dtype)
            store.add(name, value)


# ---------------------------------------------------------------------------
# Inference scratch
# ---------------------------------------------------------------------------

ARENA_LIMIT = 64 << 20  # bytes one thread's arena may keep between calls
_ALIGN = 64


def _aligned_bytes(size: int) -> np.ndarray:
    raw = np.empty(size + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + size]


class Arena:
    """Scratch memory of the inference pass, reused from call to call.

    One byte buffer handed out as a stack: `take` carves the next 64-byte
    aligned block and `release(mark)` gives back every block taken since
    `mark()`. A block past the buffer's end is a fresh array instead. When a
    release empties the stack, the buffer grows to the deepest stack seen
    so far, up to ARENA_LIMIT bytes. So once a stack has run, repeat runs of
    it take every block from the buffer and allocate nothing.
    """

    def __init__(self) -> None:
        self._buf = _aligned_bytes(0)
        self._top = 0
        self._deepest = 0
        self._spilled: list[tuple[int, np.ndarray]] = []  # (offset, fresh block)

    @property
    def nbytes(self) -> int:
        """Bytes held between calls."""
        return self._buf.size

    def take(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """An uninitialized block, valid until the release of an earlier mark."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        start = self._top
        self._top = start + -(-size // _ALIGN) * _ALIGN
        self._deepest = max(self._deepest, self._top)
        if self._top <= self._buf.size:
            return np.ndarray(shape, dtype, self._buf, start)
        block = np.empty(shape, dtype)
        self._spilled.append((start, block))
        return block

    def zeros(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        block = self.take(shape, dtype)
        block.fill(0)
        return block

    def owns(self, x: np.ndarray) -> bool:
        """Whether x lies in a block taken and not yet released."""
        return (np.may_share_memory(x, self._buf)
                or any(np.may_share_memory(x, b) for _, b in self._spilled))

    def mark(self) -> int:
        return self._top

    def release(self, mark: int) -> None:
        self._top = mark
        while self._spilled and self._spilled[-1][0] >= mark:
            self._spilled.pop()
        size = min(self._deepest, ARENA_LIMIT)
        if mark == 0 and self._buf.size < size:
            self._buf = _aligned_bytes(size)


_thread = threading.local()


def thread_arena() -> Arena:
    """The calling thread's inference arena, made on first use."""
    arena = getattr(_thread, "arena", None)
    if arena is None:
        arena = _thread.arena = Arena()
    return arena


# ---------------------------------------------------------------------------
# The window map
# ---------------------------------------------------------------------------

# One OpenBLAS thread for every GEMM the library runs, the first included,
# whatever OPENBLAS_NUM_THREADS says: the map spreads work over the CPUs.
hostinfo.set_blas_threads(1)


def window_runners() -> int:
    """Threads that may run map items at once: every CPU at one OpenBLAS
    thread, else 1, since any other BLAS spreads each GEMM over the CPUs."""
    return hostinfo.cpu_count() if hostinfo.blas_threads() == 1 else 1


_pool: ThreadPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()
_mapping = threading.local()  # .active while this thread runs a map's items


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads, so it makes its own."""
    global _pool, _pool_workers, _pool_lock
    _pool, _pool_workers, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _ensure_pool(workers: int) -> ThreadPoolExecutor:
    """The module's pool, with at least `workers` threads; call it holding
    _pool_lock.

    The pool is made on first need and reused, so each worker keeps its
    inference arena from call to call. A call that needs more workers
    replaces it; tasks already given to the old pool still run.
    """
    global _pool, _pool_workers
    if _pool_workers < workers:
        if _pool is not None:
            _pool.shutdown(wait=False)
        _pool = ThreadPoolExecutor(workers, thread_name_prefix="latentfuse-window")
        # each task waits for all the others, so each gets its own thread
        start = threading.Barrier(workers + 1)
        for _ in range(workers):
            _pool.submit(start.wait)
        start.wait()
        _pool_workers = workers
        log.info("window map: %d runners", workers + 1)
    return _pool


def _submit(workers: int, task: Callable[[], None]) -> list[Future]:
    """Run task once on each of `workers` threads of the module's pool."""
    with _pool_lock:
        pool = _ensure_pool(workers)
        return [pool.submit(task) for _ in range(workers)]


def map_windows(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], with the items spread over window_runners() threads.

    The items are a request's window chunks, a head batch's time steps or a
    training conv's image ranges. The calling thread and n - 1 pool workers
    take the next unclaimed item until none is left, and each result lands
    at its item's index. fn must be safe to run on several threads at once
    and must not depend on which thread runs it (each thread has its own
    arena), so the results are bitwise the serial ones. When items fail,
    the exception of the lowest failing index is raised, as the serial loop
    would raise it. With one runner, one item, or inside another map, this
    is the plain loop. Either way fn runs as a map's item: a map or training
    conv inside it stays on its thread.
    """
    items = list(items)
    n = min(len(items), _free_runners())
    if n <= 1:
        outer = getattr(_mapping, "active", False)
        _mapping.active = True
        try:
            return [fn(x) for x in items]
        finally:
            _mapping.active = outer
    results: list = [None] * len(items)
    failures: list[tuple[int, Exception]] = []
    order = iter(range(len(items)))
    claim_lock = threading.Lock()

    def drain() -> None:
        _mapping.active = True
        try:
            # an index is claimed only after every lower one, so once all
            # runners stop, the lowest failure is the one the loop would raise
            while not failures:
                with claim_lock:
                    i = next(order, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except Exception as exc:
                    failures.append((i, exc))
        finally:
            _mapping.active = False

    workers = _submit(n - 1, drain)
    drain()
    for w in workers:
        w.result()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _free_runners() -> int:
    """window_runners(), or 1 on a thread that runs a map's items."""
    return 1 if getattr(_mapping, "active", False) else window_runners()


def _batch_ranges(n: int) -> list[range]:
    """n images as one contiguous range per runner; a single range with one
    runner or on a thread that runs a map's items."""
    parts = min(n, _free_runners())
    if parts <= 1:
        return [range(n)]
    return [range(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


def _add_weight_grad(store: ParamStore, name: str, grad_rows: np.ndarray,
                     cols: np.ndarray,
                     grad_in: Callable[[], np.ndarray] | None = None) -> np.ndarray | None:
    """Accumulate grad_rows.T @ cols into parameter `name`, one GEMM over all
    images, and return grad_in(), or None without it.

    grad_rows is the (n*P, O) output gradient (`_channel_rows`) and cols
    the (n, P, k*k*c) columns its layer unfolded, so both operands are
    views, and the (O, k*k*c) result is the weight in `_weight_rows` order.
    With grad_in, a second runner and no map running on this thread, the
    GEMM goes to a pool worker, into an array allocated here, while this
    thread runs grad_in. The gradient is added after both end, even when
    grad_in raises, so the store holds what one runner leaves.
    """
    gm, rows = grad_rows.T, cols.reshape(-1, cols.shape[-1])
    shape = store.values[name].shape
    if grad_in is None or _free_runners() < 2:
        store.accumulate(name, _rows_to_weight(np.dot(gm, rows), shape))
        return None if grad_in is None else grad_in()
    out = np.empty((gm.shape[0], rows.shape[1]), np.result_type(gm, rows))
    (done,) = _submit(1, lambda: np.dot(gm, rows, out=out))
    try:
        return grad_in()
    finally:
        done.result()
        store.accumulate(name, _rows_to_weight(out, shape))


def _conv_ranges(x: np.ndarray, rows: np.ndarray, k: int, s: int, p: int, out: np.ndarray,
                 ranges: list[range],
                 then: Callable[[slice], None] | None = None) -> np.ndarray:
    """Multiply each image's k x k, stride-s, padding-p patches of x by
    rows.T into out (n, P, O), and return the (n, P, k*k*c) columns.

    rows is the (O, k*k*c) weight in `_weight_rows` order. The padded input
    and the columns are allocated here for the whole batch, since training
    caches them; each runner of the map pads, unfolds and multiplies one
    image range, one GEMM per image, then runs then(part) on it.
    """
    xp, cols = _unfold_buffers(x.shape, k, s, p, x.dtype)

    def run(r: range) -> None:
        part = slice(r.start, r.stop)
        _unfold(x, xp, cols, k, s, p, part)
        np.matmul(cols[part], rows.T, out=out[part])
        if then is not None:
            then(part)

    map_windows(run, ranges)
    return cols


def _conv_images(x: np.ndarray, rows: np.ndarray, k: int, s: int, p: int, out: np.ndarray,
                 arena: Arena, then: Callable[[slice], None] | None = None) -> None:
    """`_conv_ranges`' inference form, on the calling thread: pad, unfold and
    multiply image by image into one single-image padded input and column
    block of `arena`, then run then(part) on that image.

    A batch-n pass so holds one image's columns, not n. Each GEMM is the
    per-image GEMM of `_conv_ranges`, so the result is bitwise. The padded
    block is zeroed once; each image overwrites only its interior.
    """
    xp, cols = _unfold_buffers((1,) + x.shape[1:], k, s, p, x.dtype, arena)
    for i in range(x.shape[0]):
        part = slice(i, i + 1)
        _unfold(x[part], xp, cols, k, s, p)
        np.matmul(cols, rows.T, out=out[part])
        if then is not None:
            then(part)


# ---------------------------------------------------------------------------
# Elementwise helpers
# ---------------------------------------------------------------------------

def sigmoid_fn(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _activation(shape: tuple[int, ...], dtype, arena: Arena | None = None) -> np.ndarray:
    """An uninitialized layer output, an arena block with an arena. An image
    (n, c, h, w) is a view over channels-last (n, h, w, c) memory."""
    empty = np.empty if arena is None else arena.take
    if len(shape) != 4:
        return empty(shape, dtype)
    n, c, h, w = shape
    return empty((n, h, w, c), dtype).transpose(0, 3, 1, 2)


def _channel_rows(x: np.ndarray) -> np.ndarray:
    """An (n, c, h, w) image as its (n*h*w, c) pixel rows: a view when x is
    channels-last, else a copy. Sums and GEMMs over these rows run in one
    order whatever x's strides."""
    return x.transpose(0, 2, 3, 1).reshape(-1, x.shape[1])


def _windows(xp: np.ndarray, k: int, s: int, ho: int, wo: int) -> np.ndarray:
    """The (n, ho, wo, k, k, c) patch view of a contiguous padded
    (n, H, W, c) batch."""
    n, c = xp.shape[0], xp.shape[3]
    sn, sh, sw, sc = xp.strides
    return np.ndarray((n, ho, wo, k, k, c), xp.dtype, xp, 0,
                      (sn, sh * s, sw * s, sh, sw, sc))


def _unfold_buffers(shape: tuple[int, ...], k: int, s: int, p: int, dtype,
                    arena: Arena | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(xp, cols) for unfolding an (n, c, h, w) batch.

    xp is the zeroed padded input (n, h+2p, w+2p, c). cols is (n, P, k*k*c):
    row oy*wo + ox of image b is that output pixel's patch, column
    (i*k + j)*c + ch, so each patch is k runs of k*c contiguous floats and
    all images' columns are a free (n*P, k*k*c) matrix. With an arena, both
    are arena blocks.
    """
    n, c, h, w = shape
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    zeros = np.zeros if arena is None else arena.zeros
    empty = np.empty if arena is None else arena.take
    return zeros((n, h + 2 * p, w + 2 * p, c), dtype), empty((n, ho * wo, k * k * c), dtype)


def _unfold(x: np.ndarray, xp: np.ndarray, cols: np.ndarray, k: int, s: int, p: int,
            part: slice = slice(None)) -> None:
    """Pad images x[part] into xp and copy their patches into their columns.
    The pad is a contiguous copy when x is channels-last."""
    h, w = x.shape[2:]
    ho, wo = (xp.shape[1] - k) // s + 1, (xp.shape[2] - k) // s + 1
    xp[part, p:p + h, p:p + w] = x[part].transpose(0, 2, 3, 1)
    patches = _windows(xp[part], k, s, ho, wo)
    cols[part].reshape(patches.shape)[...] = patches


def _weight_rows(w: np.ndarray, arena: Arena | None = None) -> np.ndarray:
    """A conv weight (O, c, k, k) as the (O, k*k*c) GEMM operand of its
    columns: a copy, an arena block with an arena."""
    o, c, k, _ = w.shape
    empty = np.empty if arena is None else arena.take
    rows = empty((o, k * k * c), w.dtype)
    rows.reshape(o, k, k, c)[...] = w.transpose(0, 2, 3, 1)
    return rows


def _rows_to_weight(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of `_weight_rows`: (O, k*k*c) as a view of the weight's shape."""
    o, c, k, _ = shape
    return rows.reshape(o, k, k, c).transpose(0, 3, 1, 2)


def _phase_weight(w: np.ndarray, s: int, arena: Arena | None = None) -> np.ndarray:
    """The (s*s*B, q*q*A) GEMM rows, in `_weight_rows` order, of the
    stride-1 conv with kernel q = ceil(k/s) that is the sub-pixel form of
    the adjoint of a stride-s conv2d with weight (A, B, k, k).

    Output channel (ry*s + rx)*B + b is phase (ry, rx) of channel b. Its tap
    (ty, tx) is kernel tap (ry + s*(q-1-ty), rx + s*(q-1-tx)), and 0 where
    that falls past the kernel. With an arena, an arena block.
    """
    a, b, k, _ = w.shape
    q = -(-k // s)
    zeros = np.zeros if arena is None else arena.zeros
    wp = zeros((s, s, b, q, q, a), w.dtype)
    for ry, rx in product(range(s), repeat=2):
        taps = w[:, :, ry::s, rx::s]
        my, mx = taps.shape[2:]
        wp[ry, rx, :, q - my:, q - mx:] = taps[:, :, ::-1, ::-1].transpose(1, 2, 3, 0)
    return wp.reshape(s * s * b, q * q * a)


def _depth_to_space(grids: np.ndarray, s: int, p: int, out: np.ndarray) -> None:
    """Interleave the (n, Ha, Wa, s, s, B) phase grids into out (n, h, w, B).

    Pixel y of out is padded row y + p = s*a + ry: row a of phase ry. The
    pixels whose row or column lies past the grid are reached by no tap and
    read 0.
    """
    ha, wa = grids.shape[1:3]
    h, w = out.shape[1:3]
    for ry, rx in product(range(s), repeat=2):
        y0, x0 = (ry - p) % s, (rx - p) % s
        a0, b0 = (y0 + p) // s, (x0 + p) // s
        rows = max(0, min(len(range(y0, h, s)), ha - a0))
        cols = max(0, min(len(range(x0, w, s)), wa - b0))
        dst = out[:, y0::s, x0::s]
        dst[:, :rows, :cols] = grids[:, a0:a0 + rows, b0:b0 + cols, ry, rx]
        dst[:, rows:] = 0
        dst[:, :rows, cols:] = 0


def _conv_adjoint(g: np.ndarray, w: np.ndarray, s: int, p: int, out: np.ndarray,
                  ranges: list[range] | None = None, arena: Arena | None = None
                  ) -> np.ndarray:
    """The adjoint of a stride-s, padding-p conv2d with weight w (A, B, k, k),
    applied to g (n, A, ho, wo), into out (n, B, h, w): conv_transpose2d's
    forward and conv2d's input gradient.

    Sub-pixel form: a stride-1 conv of g with kernel q = ceil(k/s), padding
    q - 1 and the `_phase_weight`, whose s*s*B output channels are the
    phases of out, interleaved by `_depth_to_space`. Through
    `_conv_ranges`, each runner of the map unfolds, multiplies and
    interleaves one image range. With an arena, `_conv_images` does that
    image by image, and every buffer is an arena block.
    """
    n, a, ho, wo = g.shape
    q = -(-w.shape[2] // s)
    ha, wa = ho + q - 1, wo + q - 1
    empty = np.empty if arena is None else arena.take
    mark = None if arena is None else arena.mark()
    rows = _phase_weight(w, s, arena)
    phases = empty((n, ha * wa, rows.shape[0]), np.result_type(rows, g))
    grids = phases.reshape(n, ha, wa, s, s, w.shape[1])
    dst = out.transpose(0, 2, 3, 1)

    def interleave(part: slice) -> None:
        _depth_to_space(grids[part], s, p, dst[part])

    if arena is None:
        _conv_ranges(g, rows, q, 1, q - 1, phases, ranges, interleave)
    else:
        _conv_images(g, rows, q, 1, q - 1, phases, arena, interleave)
        arena.release(mark)
    return out


def _check_image_input(desc: LayerDescriptor, x: np.ndarray) -> None:
    if x.ndim != 4 or x.shape[1] != desc.in_channels:
        raise UsageError(f"{desc.kind} {desc.name}: input shape {x.shape} incompatible "
                         f"with (N, {desc.in_channels}, H, W)")

# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def forward(desc: LayerDescriptor, store: ParamStore, x, arena: Arena | None = None):
    """Run one layer forward. Returns (output, cache) for the matching backward.

    Feed-forward kinds take a batched array. recurrent_cell takes a tuple
    (x, h) of (N, x_dim) and (N, hidden) and returns the next hidden state.

    Without an arena, conv2d and conv_transpose2d run one image range per
    runner of the map (`_batch_ranges`), bitwise the one call.

    With an arena the call is an inference step, bitwise the plain one:
    conv2d, conv_transpose2d, relu and residual_block take their scratch and
    output from the arena and return no cache (None), convs unfold one image
    at a time (`_conv_images`), and relu overwrites an input that the arena
    owns. A residual block's inner stack starts with a
    conv, which never writes its input, so the block's input survives for
    the skip add. The other kinds run as without an arena.
    """
    if desc.kind == "conv2d":
        _check_image_input(desc, x)
        w = store.values[f"{desc.name}.w"]
        b = store.values[f"{desc.name}.b"]
        k, s, p = desc.kernel, desc.stride, desc.padding
        n = x.shape[0]
        out = _activation((n,) + out_shape(desc, x.shape[1:]), np.result_type(w, x), arena)
        pixels = out.transpose(0, 2, 3, 1).reshape(n, -1, desc.out_channels)
        if arena is None:
            cache = (x.shape, _conv_ranges(x, _weight_rows(w), k, s, p, pixels,
                                           _batch_ranges(n)))
        else:
            mark = arena.mark()
            _conv_images(x, _weight_rows(w, arena), k, s, p, pixels, arena)
            arena.release(mark)
            cache = None
        pixels += b
        return out, cache

    if desc.kind == "conv_transpose2d":
        _check_image_input(desc, x)
        w = store.values[f"{desc.name}.w"]
        b = store.values[f"{desc.name}.b"]
        n = x.shape[0]
        out = _activation((n,) + out_shape(desc, x.shape[1:]), np.result_type(w, x), arena)
        if arena is None:
            _conv_adjoint(x, w, desc.stride, desc.padding, out, _batch_ranges(n))
        else:
            _conv_adjoint(x, w, desc.stride, desc.padding, out, arena=arena)
        out += b[:, None, None]
        return out, (x if arena is None else None)

    if desc.kind == "dense":
        if x.ndim != 2 or x.shape[1] != desc.in_features:
            raise UsageError(f"dense {desc.name}: input shape {x.shape} incompatible "
                             f"with (N, {desc.in_features})")
        w = store.values[f"{desc.name}.w"]
        b = store.values[f"{desc.name}.b"]
        return x @ w.T + b, (x,)

    if desc.kind == "relu":
        if arena is None:
            return np.maximum(x, 0), (x > 0,)
        out = x if arena.owns(x) else _activation(x.shape, x.dtype, arena)
        return np.maximum(x, 0, out=out), None

    if desc.kind == "sigmoid":
        y = sigmoid_fn(x)
        return y, (y,)

    if desc.kind == "residual_block":
        h = x
        caches = []
        for d in desc.inner:
            h, cache = forward(d, store, h, arena=arena)
            caches.append(cache)
        if h.shape != x.shape:
            raise UsageError(f"residual_block {desc.name}: inner shape {h.shape} "
                             f"does not match input {x.shape}")
        dtype = np.result_type(x, h)
        if arena is None:
            return np.add(x, h, out=_activation(x.shape, dtype)), tuple(caches)
        out = h if h is not x and arena.owns(h) else _activation(h.shape, dtype, arena)
        return np.add(x, h, out=out), None

    if desc.kind == "recurrent_cell":
        xin, h = x
        if xin.shape[1] != desc.in_features or h.shape[1] != desc.hidden:
            raise UsageError(f"recurrent_cell {desc.name}: got shapes {xin.shape}, "
                             f"{h.shape}, expected (N, {desc.in_features}), "
                             f"(N, {desc.hidden})")
        p = store.values
        nm = desc.name
        u = sigmoid_fn(xin @ p[f"{nm}.wxu"].T + h @ p[f"{nm}.whu"].T + p[f"{nm}.bu"])
        r = sigmoid_fn(xin @ p[f"{nm}.wxr"].T + h @ p[f"{nm}.whr"].T + p[f"{nm}.br"])
        rh = r * h
        c = np.tanh(xin @ p[f"{nm}.wxc"].T + rh @ p[f"{nm}.whc"].T + p[f"{nm}.bc"])
        h_next = (1.0 - u) * h + u * c
        return h_next, (xin, h, u, r, rh, c)

    raise UsageError(f"unknown layer kind: {desc.kind}")


def backward(desc: LayerDescriptor, store: ParamStore, cache, grad_out, *,
             need_grad_in: bool = True):
    """Backpropagate one layer; accumulates parameter grads, returns grad_in.

    For recurrent_cell, grad_out is dL/dh' and the return value is the pair
    (dL/dx, dL/dh). With need_grad_in False only the parameter grads are
    accumulated (bitwise as with True) and None is returned.
    """
    if not need_grad_in and not param_specs(desc):
        return None
    if desc.kind == "conv2d":
        x_shape, cols = cache
        n, _, ho, wo = grad_out.shape
        s, p = desc.stride, desc.padding
        gm = _channel_rows(grad_out)
        store.accumulate(f"{desc.name}.b", gm.sum(axis=0))
        w = store.values[f"{desc.name}.w"]

        def grad_in() -> np.ndarray:
            # runs beside the weight-gradient GEMM: reads w and grad_out, not cols
            g = gm.reshape(n, ho, wo, -1).transpose(0, 3, 1, 2)
            gx = _activation(x_shape, np.result_type(w, gm))
            return _conv_adjoint(g, w, s, p, gx, [range(n)])

        return _add_weight_grad(store, f"{desc.name}.w", gm, cols,
                                grad_in if need_grad_in else None)

    if desc.kind == "conv_transpose2d":
        # the input gradient is the conv2d forward of grad_out with weight w,
        # and the columns that conv unfolds give the weight gradient
        x = cache
        n = x.shape[0]
        w = store.values[f"{desc.name}.w"]
        store.accumulate(f"{desc.name}.b", _channel_rows(grad_out).sum(axis=0))
        gx = _activation(x.shape, np.result_type(w, grad_out))
        pixels = gx.transpose(0, 2, 3, 1).reshape(n, -1, desc.in_channels)
        cols = _conv_ranges(grad_out, _weight_rows(w), desc.kernel, desc.stride,
                            desc.padding, pixels, _batch_ranges(n))
        _add_weight_grad(store, f"{desc.name}.w", _channel_rows(x), cols)
        return gx if need_grad_in else None

    if desc.kind == "dense":
        (x,) = cache
        w = store.values[f"{desc.name}.w"]
        store.accumulate(f"{desc.name}.w", grad_out.T @ x)
        store.accumulate(f"{desc.name}.b", grad_out.sum(axis=0))
        return grad_out @ w if need_grad_in else None

    if desc.kind == "relu":
        (mask,) = cache
        return grad_out * mask

    if desc.kind == "sigmoid":
        (y,) = cache
        return grad_out * y * (1.0 - y)

    if desc.kind == "residual_block":
        g = stack_backward(desc.inner, store, cache, grad_out, need_grad_in=need_grad_in)
        return grad_out + g if need_grad_in else None

    if desc.kind == "recurrent_cell":
        xin, h, u, r, rh, c = cache
        p = store.values
        nm = desc.name
        gh = grad_out * (1.0 - u)
        du = grad_out * (c - h)
        dc = grad_out * u
        dac = dc * (1.0 - c * c)
        store.accumulate(f"{nm}.wxc", dac.T @ xin)
        store.accumulate(f"{nm}.whc", dac.T @ rh)
        store.accumulate(f"{nm}.bc", dac.sum(axis=0))
        gx = dac @ p[f"{nm}.wxc"]
        drh = dac @ p[f"{nm}.whc"]
        gh = gh + drh * r
        dr = drh * h
        dar = dr * r * (1.0 - r)
        store.accumulate(f"{nm}.wxr", dar.T @ xin)
        store.accumulate(f"{nm}.whr", dar.T @ h)
        store.accumulate(f"{nm}.br", dar.sum(axis=0))
        gx += dar @ p[f"{nm}.wxr"]
        gh = gh + dar @ p[f"{nm}.whr"]
        dau = du * u * (1.0 - u)
        store.accumulate(f"{nm}.wxu", dau.T @ xin)
        store.accumulate(f"{nm}.whu", dau.T @ h)
        store.accumulate(f"{nm}.bu", dau.sum(axis=0))
        gx += dau @ p[f"{nm}.wxu"]
        gh = gh + dau @ p[f"{nm}.whu"]
        return (gx, gh) if need_grad_in else None

    raise UsageError(f"unknown layer kind: {desc.kind}")


def stack_forward(descs: Sequence[LayerDescriptor], store: ParamStore, x: np.ndarray):
    caches = []
    for d in descs:
        x, cache = forward(d, store, x)
        caches.append(cache)
    return x, caches


def stack_infer(descs: Sequence[LayerDescriptor], store: ParamStore, x: np.ndarray
                ) -> np.ndarray:
    """stack_forward's output, bitwise, without its caches.

    Every layer runs through `forward` with the calling thread's arena, so
    on a repeat call the conv, relu and residual layers allocate nothing.
    The result is a copy when the arena holds it, so no caller keeps arena
    memory; x is never written.
    """
    arena = thread_arena()
    mark = arena.mark()
    try:
        for d in descs:
            x, _ = forward(d, store, x, arena=arena)
        return x.copy(order="K") if arena.owns(x) else x
    finally:
        arena.release(mark)


def stack_backward(descs: Sequence[LayerDescriptor], store: ParamStore, caches,
                   grad_out: np.ndarray, *, need_grad_in: bool = True
                   ) -> np.ndarray | None:
    """Backpropagate a stack; with need_grad_in False its first layer skips
    its input gradient and None is returned."""
    g = grad_out
    for i in range(len(descs) - 1, -1, -1):
        g = backward(descs[i], store, caches[i], g, need_grad_in=need_grad_in or i > 0)
    return g


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def adam_step(store: ParamStore, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, t: int = 1) -> None:
    """Bias-corrected Adam update, elementwise, then zero all gradients."""
    if t < 1:
        raise UsageError("adam_step requires t >= 1")
    for name in store.values:
        g = store.grads[name]
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        m = store.m[name]
        v = store.v[name]
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        store.values[name] -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(
            store.values[name].dtype, copy=False)
    store.zero_grads()


# ---------------------------------------------------------------------------
# Loss helpers (stable logit-space forms with analytic gradients)
# ---------------------------------------------------------------------------

def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over the batch; returns (loss, dL/dlogits)."""
    z = logits.astype(np.float64)
    y = targets.astype(np.float64)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    probs = sigmoid_fn(z)
    grad = (probs - y) / z.size
    return float(loss.mean()), grad.astype(logits.dtype, copy=False)
