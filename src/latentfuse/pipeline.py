"""End-to-end wiring: streams -> windows -> images -> latents -> sequences.

This module owns the modality-permutation table, the derived accelerometer
magnitude channel, and the two runnable systems:

- UnifiedSystem: one shared frozen encoder applied to every modality.
- baseline.BaselineSystem: one feature extractor per modality.

Both offer the same two methods, encode(modality, images), which runs one
encoder pass over a batch of one modality's images and returns one
(D, 16, 16) latent array per image, and parameter_stores(modalities), so
they share the fusion head, the evaluation code, and the cost model; the
only difference is how many encoder parameter sets exist (counted
structurally by encoder_loads, which inspects distinct parameter stores
rather than trusting a label).

aligned_sequences is the one start-keyed aligner, behind both
stream_to_sequences and the CLI's .lsfl reader. encode_windows, behind
stream_to_sequences, the CLI's encode and the CLI's training render
(train-encoder --data, with an identity encode), maps chunks of up to
CHUNK_WINDOWS consecutive windows of one modality over nnkernel.map_windows,
on every idle CPU, one encoder pass per chunk (docs/design.md,
"Parallelism").
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import nnkernel as nn
from . import vqvae
from .errors import DataError, UsageError
from .fusion import ClassifierHead, SequenceSample, fuse, group_sequences
from .ingest import Channel, MultimodalStream, Window, window_stream
from .spectral import SpectralConfig, SpectralImage, spectral_image
from .synthetic import make_stream

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

# consecutive windows of one modality that one encoder pass takes
CHUNK_WINDOWS = 3


@dataclass
class PipelineConfig:
    window_len: int = 128
    stride: int = 96
    seq_len: int = 8
    spectral: SpectralConfig = field(default_factory=SpectralConfig)


@dataclass
class UnifiedSystem:
    """One shared frozen encoder applied to every modality."""

    model: vqvae.VqVaeModel
    head: ClassifierHead | None = None

    def encode(self, modality: str, images: Sequence[SpectralImage]) -> list[np.ndarray]:
        """The shared quantized latent (D, 16, 16) of each image, whatever the
        modality: one encoder pass, then one nearest-code search for the batch."""
        return list(vqvae.quantize(vqvae.encode(self.model, images),
                                   self.model.codebook).quantized)

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
    repeated = [m for m, n in Counter(permutation).items() if n > 1]
    if repeated:
        raise UsageError(f"modality {', '.join(map(repr, repeated))} is listed more "
                         f"than once")
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
    latents = encode_windows(system.encode, windows, cfg.spectral)
    coded = {m: {w.start_index: (z, w.label) for w, z in zip(ws, latents[m])}
             for m, ws in windows.items()}
    return aligned_sequences(coded, modalities, cfg.seq_len)


def encode_windows(encode: Callable[[str, list[SpectralImage]], Sequence],
                   windows: Mapping[str, Sequence[Window]],
                   spectral: SpectralConfig) -> dict[str, list]:
    """encode(modality, images) over every window, one chunk per map item.

    A chunk is a run of up to CHUNK_WINDOWS consecutive windows of one
    modality. Its runner renders the images one window at a time, and
    encode returns one result per image, so each modality's results come
    back in window order. Chunks never mix modalities: a baseline system
    encodes each modality with its own extractor.
    """
    chunks = [(m, ws[i:i + CHUNK_WINDOWS]) for m, ws in windows.items()
              for i in range(0, len(ws), CHUNK_WINDOWS)]
    done = nn.map_windows(
        lambda chunk: encode(chunk[0], [spectral_image(w, spectral) for w in chunk[1]]),
        chunks)
    results: dict[str, list] = {m: [] for m in windows}
    for (m, _), out in zip(chunks, done):
        results[m].extend(out)
    return results


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
            system.encode(name, [image])
        runs.append(time.perf_counter() - t0)
    return runs[1:]
