"""End-to-end wiring: streams -> windows -> images -> latents -> sequences.

This module owns the modality-permutation table, the derived accelerometer
magnitude channel, and the two runnable systems:

- UnifiedSystem: one shared frozen encoder applied to every modality.
- baseline.BaselineSystem: one feature extractor per modality.

Both offer the same two methods, encode(modality, image), which returns a
(D, 16, 16) latent array, and parameter_stores(modalities), so they share
the fusion head, the evaluation code, and the cost model; the only
difference is how many encoder parameter sets exist (counted structurally
by encoder_loads, which inspects distinct parameter stores rather than
trusting a label).

aligned_sequences is the one start-keyed aligner, behind both
stream_to_sequences and the CLI's .lsfl reader.

map_windows encodes independent windows on every idle CPU: the calling
thread and the workers of one persistent pool each take items until none
are left (docs/design.md, "Window parallelism").
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import hostinfo
from . import nnkernel as nn
from .errors import DataError, UsageError
from .fusion import ClassifierHead, SequenceSample, fuse, group_sequences
from .ingest import Channel, MultimodalStream, Window, window_stream
from .spectral import SpectralConfig, SpectralImage, spectral_image
from .synthetic import make_stream
from .vqvae import VqVaeModel, encode_image

# cumulative fusion permutations; entry m fuses the first m modality groups
PERMUTATIONS: dict[int, tuple[str, ...]] = {
    1: ("ECG",),
    2: ("ECG", "EMG"),
    3: ("ECG", "EMG", "EDA"),
    4: ("ECG", "EMG", "EDA", "Temp"),
    5: ("ECG", "EMG", "EDA", "Temp", "Resp"),
    6: ("ECG", "EMG", "EDA", "Temp", "Resp", "Acc"),
}

ACC_AXES = ("AccX", "AccY", "AccZ")

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    window_len: int = 128
    stride: int = 96
    seq_len: int = 8
    spectral: SpectralConfig = field(default_factory=SpectralConfig)


@dataclass
class UnifiedSystem:
    """One shared frozen encoder applied to every modality."""

    model: VqVaeModel
    head: ClassifierHead | None = None

    def encode(self, modality: str, image: SpectralImage) -> np.ndarray:
        """The shared quantized latent (D, 16, 16), whatever the modality."""
        return encode_image(self.model, image).quantized

    def parameter_stores(self, modalities: tuple[str, ...]) -> list[nn.ParamStore]:
        """The single shared store, however many modalities use it."""
        return [self.model.store]


def permutation_modalities(permutation: int | list[str] | tuple[str, ...]) -> tuple[str, ...]:
    """Resolve a permutation id (1..6) or an explicit list to modality names."""
    if isinstance(permutation, int):
        if permutation not in PERMUTATIONS:
            raise UsageError(f"permutation must be 1..6, got {permutation}")
        return PERMUTATIONS[permutation]
    if not permutation:
        raise UsageError("modality list must not be empty")
    return tuple(permutation)


def derive_acc_magnitude(stream: MultimodalStream) -> MultimodalStream:
    """Add a single 'Acc' channel: Euclidean magnitude of the three axes.

    The accelerometer fuses as one modality (one encoder application), so
    its three axes are collapsed into one signal before windowing. Streams
    without all three axes are returned unchanged.
    """
    if "Acc" in stream.channels or not all(a in stream.channels for a in ACC_AXES):
        return stream
    axes = [stream.channels[a] for a in ACC_AXES]
    n = min(len(a) for a in axes)
    rates = {a.rate_hz for a in axes}
    if len(rates) != 1:
        raise DataError("accelerometer axes have differing rates; resample first")
    if any(a.missing.any() for a in axes):
        raise DataError("accelerometer axes have gaps; run forward_fill first")
    mag = np.sqrt(sum(a.values[:n] ** 2 for a in axes))
    channels = dict(stream.channels)
    channels["Acc"] = Channel("Acc", axes[0].rate_hz, mag)
    return MultimodalStream(channels, labels=stream.labels)


def encoder_loads(system, modalities: tuple[str, ...]) -> int:
    """Count distinct encoder parameter stores the permutation touches."""
    return len({id(store) for store in system.parameter_stores(modalities)})


def aligned_sequences(coded: Mapping[str, Mapping[int, tuple[np.ndarray, int]]],
                      modalities: tuple[str, ...],
                      seq_len: int) -> list[SequenceSample]:
    """Fuse, in start order, the latents every modality holds at a start, then
    group the steps into sequences of seq_len (labeled by their last step).

    coded maps modality -> start index -> (latent, window label).
    """
    for m in modalities:
        if m not in coded:
            raise DataError(f"no latents for modality {m!r}")
    starts = sorted(set.intersection(*(set(coded[m]) for m in modalities)))
    if len(starts) < seq_len:
        raise DataError(f"only {len(starts)} aligned steps; need at least "
                        f"seq_len={seq_len}")
    steps = [fuse({m: coded[m][s][0] for m in modalities}, modalities) for s in starts]
    labels = [coded[modalities[0]][s][1] for s in starts]
    return group_sequences(steps, labels, seq_len)


def window_runners() -> int:
    """Threads that may encode windows at once: max(1, CPUs // BLAS threads).

    Each runner's GEMMs run on the BLAS's own threads, so more runners than
    CPUs / BLAS threads would only oversubscribe the CPUs. An unknown BLAS
    gives 1, and so does OpenBLAS at its default of one thread per CPU.
    """
    blas = hostinfo.blas_threads()
    if blas is None or blas < 1:
        return 1
    return max(1, hostinfo.cpu_count() // blas)


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


def _submit(workers: int, task: Callable[[], None]) -> list[Future]:
    """Run task once on each of `workers` threads of the module's pool.

    The pool is made on first need and reused, so each worker keeps its
    inference arena from call to call. A call that needs more workers
    replaces it; tasks already given to the old pool still run.
    """
    global _pool, _pool_workers
    with _pool_lock:
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
            log.info("window map: %d runners (%d CPUs, %d BLAS threads)",
                     workers + 1, hostinfo.cpu_count(), hostinfo.blas_threads())
        return [_pool.submit(task) for _ in range(workers)]


def map_windows(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], with the items spread over window_runners() threads.

    The calling thread and n - 1 pool workers take the next unclaimed item
    until none is left, and each result lands at its item's index. fn must
    be safe to run on several threads at once; each thread runs the
    inference forward on its own arena, so the results are bitwise the
    serial ones. When items fail, the exception of the lowest failing index
    is raised, as the serial loop would raise it. With one runner, or inside
    another map, this is the plain loop.
    """
    items = list(items)
    n = min(len(items), window_runners())
    if n <= 1 or getattr(_mapping, "active", False):
        return [fn(x) for x in items]
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


def stream_to_sequences(system, stream: MultimodalStream,
                        permutation: int | list[str],
                        cfg: PipelineConfig = PipelineConfig()
                        ) -> list[SequenceSample]:
    """Encode every window of a gap-repaired, uniformly sampled stream and
    align the latents into fused sequences."""
    modalities = permutation_modalities(permutation)
    stream = derive_acc_magnitude(stream)
    for m in modalities:
        if m not in stream.channels:
            raise DataError(f"stream has no channel {m!r}")
    sub = MultimodalStream({m: stream.channels[m] for m in modalities},
                           labels=stream.labels)
    windows = window_stream(sub, cfg.window_len, cfg.stride)
    latents = iter(map_windows(
        lambda mw: system.encode(mw[0], spectral_image(mw[1], cfg.spectral)),
        [(m, w) for m, ws in windows.items() for w in ws]))
    coded = {m: {w.start_index: (next(latents), w.label) for w in ws}
             for m, ws in windows.items()}
    return aligned_sequences(coded, modalities, cfg.seq_len)


def encoding_runs(system, m: int, repeat: int,
                  cfg: PipelineConfig = PipelineConfig()) -> list[float]:
    """Wall-clock seconds of `repeat` passes that encode one window per modality.

    The seed-1234 images are rendered before timing, so each timed pass is
    exactly the encoding stage (the stage that distinguishes the two
    systems); one warm-up pass is discarded.
    """
    modalities = permutation_modalities(m)
    system.parameter_stores(modalities)  # a missing encoder fails here, untimed
    stream = derive_acc_magnitude(make_stream(n_samples=cfg.window_len * 2, seed=1234))
    images = []
    for name in modalities:
        window = Window(0, stream.channels[name].values[:cfg.window_len], 0)
        images.append((name, spectral_image(window, cfg.spectral)))
    runs = []
    for _ in range(repeat + 1):
        t0 = time.perf_counter()
        for name, image in images:
            system.encode(name, image)
        runs.append(time.perf_counter() - t0)
    return runs[1:]
