"""End-to-end wiring: streams -> windows -> images -> latents -> sequences.

This module owns the modality-permutation table, the derived accelerometer
magnitude channel, and the two runnable systems:

- UnifiedSystem: one shared frozen encoder applied to every modality.
- baseline.BaselineSystem: one spliced extractor per modality.

Both offer the same two methods, encode(modality, image) and
parameter_stores(modalities), and produce identically shaped FusedLatent
tensors, so they share the fusion head, the evaluation code, and the cost
model; the only difference is how many encoder parameter sets exist
(counted structurally by encoder_loads, which inspects distinct parameter
stores rather than trusting a label).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import costmodel
from . import nnkernel as nn
from .errors import DataError, UsageError
from .fusion import ClassifierHead, SequenceSample, fuse, group_sequences
from .ingest import Channel, MultimodalStream, Window, window_stream
from .spectral import SpectralConfig, SpectralImage, spectral_image
from .vqvae import LatentCode, VqVaeModel, encode_image

log = logging.getLogger(__name__)

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


@dataclass
class PipelineConfig:
    window_len: int = 128
    stride: int = 96
    seq_len: int = 8
    threshold: float = 0.5
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    embed_dim: int = 16
    codebook_size: int = 128
    energy_per_mac: float = costmodel.ENERGY_PER_MAC


@dataclass
class UnifiedSystem:
    """One shared frozen encoder applied to every modality."""

    model: VqVaeModel
    head: ClassifierHead | None = None

    def encode(self, modality: str, image: SpectralImage) -> LatentCode:
        """The shared encoder plus quantizer, whatever the modality."""
        return encode_image(self.model, image)

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


def stream_to_sequences(system, stream: MultimodalStream,
                        permutation: int | list[str],
                        cfg: PipelineConfig = PipelineConfig()
                        ) -> list[SequenceSample]:
    """Windows from every modality, encoded, fused, grouped into sequences.

    The stream must be gap-repaired and uniformly sampled. Windows with the
    same start index across modalities form one fused step; consecutive
    steps are grouped into non-overlapping sequences of cfg.seq_len, each
    labeled by its final step (causal labeling, matching the windows).
    """
    modalities = permutation_modalities(permutation)
    stream = derive_acc_magnitude(stream)
    for m in modalities:
        if m not in stream.channels:
            raise DataError(f"stream has no channel {m!r}")
    sub = MultimodalStream({m: stream.channels[m] for m in modalities},
                           labels=stream.labels)
    per_channel = window_stream(sub, cfg.window_len, cfg.stride)
    counts = {m: len(ws) for m, ws in per_channel.items()}
    n_steps = min(counts.values())
    if len(set(counts.values())) != 1:
        log.warning("modalities yield unequal window counts %s; using %d",
                    counts, n_steps)

    steps = []
    for i in range(n_steps):
        latents = {m: system.encode(m, spectral_image(per_channel[m][i], cfg.spectral))
                   for m in modalities}
        steps.append(fuse(latents, modalities))
    labels = [per_channel[modalities[0]][i].label for i in range(n_steps)]
    return group_sequences(steps, labels, cfg.seq_len)


def fixed_benchmark_images(modalities: tuple[str, ...],
                           cfg: PipelineConfig = PipelineConfig()) -> dict[str, np.ndarray]:
    """Deterministic per-modality spectral images for runtime measurement."""
    from .synthetic import make_stream
    stream = make_stream(n_samples=cfg.window_len * 2, seed=1234)
    stream = derive_acc_magnitude(stream)
    images = {}
    for m in modalities:
        ch = stream.channels[m]
        w = Window(m, 0, ch.values[:cfg.window_len].copy(), 0)
        images[m] = spectral_image(w, cfg.spectral).pixels
    return images


def encoding_timer(system, m: int, cfg: PipelineConfig = PipelineConfig()):
    """Zero-argument callable that encodes one window per modality.

    Images are precomputed so the timed region is exactly the encoding
    stage (the stage that distinguishes the two systems).
    """
    modalities = permutation_modalities(m)
    system.parameter_stores(modalities)  # a missing encoder fails here, untimed
    pixel_map = fixed_benchmark_images(modalities, cfg)
    images = {name: SpectralImage(px, (name, 0)) for name, px in pixel_map.items()}

    def run() -> None:
        for name in modalities:
            system.encode(name, images[name])
    return run
