"""Synthetic data generators for training, benchmarks, and tests.

Three families:
- generic images (gradients, stripes, blobs, smooth noise) for encoder
  training, standing in for a natural-image corpus;
- labeled multimodal streams whose two classes differ in spectral content
  across every channel, for end-to-end runs;
- directly sampled latent sequences with controllable class separation,
  for classifier-only training and tests.

Everything is driven by np.random.default_rng(seed), so equal seeds give
equal data on any platform.
"""

from __future__ import annotations

import numpy as np

from .fusion import FusedLatent, SequenceSample
from .ingest import Channel, MultimodalStream
from .spectral import IMAGE_SIZE, bilinear_resize

# calm-state oscillation frequency per modality, cycles per sample
_BASE_FREQ = {
    "ECG": 0.055, "EMG": 0.090, "EDA": 0.030, "Temp": 0.020, "Resp": 0.040,
    "AccX": 0.065, "AccY": 0.070, "AccZ": 0.075,
}
_STRESS_FACTOR = 2.6


def make_images(n: int, seed: int = 0) -> np.ndarray:
    """Generic 3x128x128 images in [0,1]: gradients, stripes, blobs, noise."""
    rng = np.random.default_rng(seed)
    size = IMAGE_SIZE
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / (size - 1)
    out = np.empty((n, 3, size, size), dtype=np.float32)
    for i in range(n):
        kind = i % 4
        if kind == 0:
            theta = rng.uniform(0, np.pi)
            base = xx * np.cos(theta) + yy * np.sin(theta)
        elif kind == 1:
            freq = rng.uniform(2, 14)
            theta = rng.uniform(0, np.pi)
            phase = rng.uniform(0, 2 * np.pi)
            base = 0.5 + 0.5 * np.sin(2 * np.pi * freq *
                                       (xx * np.cos(theta) + yy * np.sin(theta))
                                       + phase)
        elif kind == 2:
            base = np.zeros_like(xx)
            for _ in range(rng.integers(2, 6)):
                cx, cy = rng.uniform(0, 1, 2)
                s = rng.uniform(0.05, 0.25)
                base += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * s * s))
        else:
            coarse = rng.uniform(0, 1, (9, 9))
            base = bilinear_resize(coarse[None], size, size)[0]
        lo, hi = base.min(), base.max()
        norm = (base - lo) / (hi - lo) if hi > lo else np.full_like(base, 0.5)
        shifts = rng.uniform(-0.15, 0.15, 3)
        for c in range(3):
            out[i, c] = np.clip(norm + shifts[c], 0.0, 1.0)
    return out


def make_stream(n_samples: int = 4096, rate_hz: float = 32.0, seed: int = 0,
                segment_len: int = 512, include_noise: bool = False,
                missing_frac: float = 0.0) -> MultimodalStream:
    """Labeled multimodal stream with two spectrally distinct states.

    The label alternates 0/1 every segment_len samples. In the stressed
    state every channel gains an extra oscillation at a higher frequency,
    so each modality individually carries class signal. include_noise adds
    a "Noise" channel with no class information at all.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples, dtype=np.float64)
    state = (t // segment_len).astype(np.int64) % 2

    channels: dict[str, Channel] = {}
    for name, f0 in _BASE_FREQ.items():
        phase = rng.uniform(0, 2 * np.pi)
        calm = np.sin(2 * np.pi * f0 * t + phase)
        stressed = 0.9 * np.sin(2 * np.pi * f0 * _STRESS_FACTOR * t + phase)
        values = calm + state * stressed + rng.normal(0, 0.15, n_samples)
        missing = rng.uniform(0, 1, n_samples) < missing_frac
        channels[name] = Channel(name, rate_hz, values, missing)
    if include_noise:
        channels["Noise"] = Channel("Noise", rate_hz,
                                    rng.normal(0, 1.0, n_samples))

    labels = [(0, 0)]
    for k in range(1, int(np.ceil(n_samples / segment_len))):
        labels.append((k * segment_len, k % 2))
    return MultimodalStream(channels, labels=labels)


def make_separable_sequences(n: int, m: int = 1, d: int = 16, grid: int = 16,
                             seq_len: int = 4, distance: float = 4.0,
                             seed: int = 0,
                             order: tuple[str, ...] | None = None
                             ) -> list[SequenceSample]:
    """Latent sequences from two Gaussian classes a fixed distance apart.

    Class means differ by `distance` standard deviations in Euclidean norm
    (the offset is spread evenly over all coordinates). Labels alternate,
    so both classes are always present.
    """
    rng = np.random.default_rng(seed)
    order = order or tuple(f"mod{i}" for i in range(m))
    dims = m * d * grid * grid
    shift = distance / np.sqrt(dims)
    samples = []
    for i in range(n):
        label = i % 2
        steps = []
        for _ in range(seq_len):
            tensor = rng.normal(0, 1.0, (m * d, grid, grid)) + label * shift
            steps.append(FusedLatent(tensor.astype(np.float32), order))
        samples.append(SequenceSample(steps, label))
    return samples
