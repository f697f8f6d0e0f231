"""Signal window -> standardized 3x128x128 spectral image.

The chain is stft (complex F x T bins) -> magnitude_db -> render_image.
Defaults (frame_len 64, hop 1, Hann taper) turn a 128-sample window into
a 33x65 time-frequency grid, which is normalized, bilinearly upsampled to
128x128, and then colormapped. Interpolating in value space before the
color lookup keeps every output pixel an exact colormap color, the same
thing a plotting library produces when it rasterizes a spectrogram. The
image, which holds nothing but its pixels, is the only thing later stages
see, which is what makes the encoder modality-agnostic: every signal
arrives in the same shape and value range.

Reproducibility pins, documented in docs/formats.md:
- the colormap is a fixed 256-entry RGB table shipped as package data and
  applied with piecewise-linear interpolation;
- the resize is corner-aligned bilinear (source position i*(F-1)/127);
- a constant magnitude matrix normalizes to all 0.5, not 0/0.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (BadMagicError, DataError, NumericError,
                     TruncatedPayloadError, UsageError)
from .ingest import Window

IMAGE_SIZE = 128
TAPERS = ("hann", "rect")
_EPS = 1e-12

_IMAGE_MAGIC = b"LSFI"


@dataclass(frozen=True)
class SpectralConfig:
    frame_len: int = 64
    hop: int = 1
    taper: str = "hann"
    floor_db: float = -80.0


@dataclass
class SpectralImage:
    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.shape != (3, IMAGE_SIZE, IMAGE_SIZE):
            raise UsageError(f"spectral image must be 3x{IMAGE_SIZE}x{IMAGE_SIZE}, "
                             f"got {self.pixels.shape}")


def taper_window(name: str, frame_len: int) -> np.ndarray:
    """Return the taper coefficients w[0..frame_len-1] for a named taper."""
    if name == "rect":
        return np.ones(frame_len, dtype=np.float64)
    if name == "hann":
        # symmetric cosine taper, zero at both ends
        n = np.arange(frame_len, dtype=np.float64)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (frame_len - 1))
    raise UsageError(f"unknown taper {name!r} (expected one of {TAPERS})")


def stft(values: np.ndarray, frame_len: int = 64, hop: int = 1,
         taper: str = "hann") -> np.ndarray:
    """Short-time Fourier transform of one window: the complex (F, T) bins,
    rows frequency bins and columns time frames.

    bins[f][t] = sum_n x[t*hop + n] * w[n] * exp(-2j*pi*f*n/frame_len) for
    f = 0..frame_len/2; frame count T = (len(values) - frame_len)//hop + 1.
    Computed with a real FFT, which matches that summation to well below
    1e-9 relative at these sizes.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise UsageError("stft input must be 1-d")
    if frame_len % 2 != 0:
        raise UsageError(f"frame_len must be even, got {frame_len}")
    if frame_len > x.size:
        raise UsageError(f"frame_len {frame_len} exceeds window length {x.size}")
    if hop < 1:
        raise UsageError("hop must be >= 1")
    w = taper_window(taper, frame_len)
    n_frames = (x.size - frame_len) // hop + 1
    starts = np.arange(n_frames) * hop
    frames = x[starts[:, None] + np.arange(frame_len)] * w
    return np.fft.rfft(frames, axis=1).T


def magnitude_db(bins: np.ndarray, floor_db: float = -80.0) -> np.ndarray:
    """Log-magnitude in dB of complex STFT bins, clamped from below at floor_db."""
    if not np.isfinite(bins).all():
        raise NumericError("spectrogram contains non-finite bins")
    return np.maximum(20.0 * np.log10(np.abs(bins) + _EPS), floor_db)


_colormap_cache: np.ndarray | None = None


def load_colormap() -> np.ndarray:
    """Load the packaged 256x3 colormap table (rows of 'r g b' in [0,1])."""
    global _colormap_cache
    if _colormap_cache is None:
        text = resources.files("latentfuse").joinpath("data/colormap.txt").read_text()
        rows = [line.split() for line in text.splitlines()
                if line.strip() and not line.startswith("#")]
        table = np.array(rows, dtype=np.float64)
        if table.shape != (256, 3):
            raise DataError(f"colormap table must be 256x3, got {table.shape}")
        if table.min() < 0.0 or table.max() > 1.0:
            raise DataError("colormap entries must lie in [0,1]")
        _colormap_cache = table
    return _colormap_cache


def apply_colormap(norm: np.ndarray) -> np.ndarray:
    """Map values in [0,1] to RGB via the table, interpolating between rows.

    Returns the channel axis first: shape (3,) + norm.shape.
    """
    table = load_colormap().T
    p = np.clip(norm, 0.0, 1.0) * 255.0
    k = np.minimum(p.astype(np.int64), 254)
    f = p - k
    # lo*(1-f) + hi*f, evaluated in place on the gathered rows
    rgb = np.take(table, k, axis=1)
    hi = np.take(table, k + 1, axis=1)
    rgb *= 1.0 - f
    hi *= f
    rgb += hi
    return rgb


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of a (C, H, W) array."""
    c, h, w = img.shape
    ry = np.arange(out_h) * ((h - 1) / (out_h - 1)) if out_h > 1 else np.zeros(1)
    rx = np.arange(out_w) * ((w - 1) / (out_w - 1)) if out_w > 1 else np.zeros(1)
    if h == 1:
        ry = np.zeros(out_h)
    if w == 1:
        rx = np.zeros(out_w)
    y0 = np.minimum(ry.astype(np.int64), max(h - 2, 0))
    x0 = np.minimum(rx.astype(np.int64), max(w - 2, 0))
    fy = (ry - y0)[None, :, None]
    fx = (rx - x0)[None, None, :]
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    # Separable, but per output pixel the same float64 operations in the
    # same order as (tl*(1-fx) + tr*fx)*(1-fy) + (bl*(1-fx) + br*fx)*fy.
    rows = img[:, :, x0] * (1.0 - fx) + img[:, :, x1] * fx
    out = rows[:, y0]
    bot = rows[:, y1]
    out *= 1.0 - fy
    bot *= fy
    out += bot
    return out


def render_image(mag: np.ndarray) -> SpectralImage:
    """Normalize a magnitude matrix, resize it to 128x128, then colormap.

    The resize runs on the normalized scalar field, so the color of an
    interpolated pixel is the colormap at the interpolated value (a blend
    of two RGB endpoints would drift off the map's gamut instead).
    """
    mag = np.asarray(mag, dtype=np.float64)
    if not np.isfinite(mag).all():
        raise NumericError("magnitude matrix contains non-finite values")
    lo, hi = mag.min(), mag.max()
    if hi > lo:
        norm = (mag - lo) / (hi - lo)
    else:
        norm = np.full(mag.shape, 0.5)
    resized = bilinear_resize(norm[None], IMAGE_SIZE, IMAGE_SIZE)[0]
    rgb = apply_colormap(resized)
    np.clip(rgb, 0.0, 1.0, out=rgb)
    return SpectralImage(rgb.astype(np.float32))


def spectral_image(window: Window, cfg: SpectralConfig = SpectralConfig()) -> SpectralImage:
    """Full window -> image chain. Deterministic for a fixed config."""
    bins = stft(window.values, cfg.frame_len, cfg.hop, cfg.taper)
    return render_image(magnitude_db(bins, cfg.floor_db))


def save_image(path: str, image: SpectralImage) -> None:
    """Write the debug image format: magic, u32 w/h, float32 LE channel-major."""
    px = image.pixels
    with open(path, "wb") as fh:
        fh.write(_IMAGE_MAGIC)
        fh.write(struct.pack("<II", px.shape[2], px.shape[1]))
        fh.write(px.astype("<f4").tobytes())


def load_image(path: str) -> SpectralImage:
    if not os.path.exists(path):
        raise DataError(f"no such image file: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _IMAGE_MAGIC:
            raise BadMagicError(f"{path}: expected magic {_IMAGE_MAGIC!r}, got {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise TruncatedPayloadError(f"{path}: truncated header "
                                        f"({4 + len(header)} of 12 bytes)")
        width, height = struct.unpack("<II", header)
        if (width, height) != (IMAGE_SIZE, IMAGE_SIZE):
            raise DataError(f"{path}: image is {width}x{height}, expected "
                            f"{IMAGE_SIZE}x{IMAGE_SIZE}")
        payload = fh.read()
    expected = 3 * width * height * 4
    if len(payload) != expected:
        raise DataError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    px = np.frombuffer(payload, dtype="<f4").reshape(3, height, width)
    return SpectralImage(np.ascontiguousarray(px))
