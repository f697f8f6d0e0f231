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

Each stage reads its constants (the taper and frame index, the resize's
source coordinates and weights, the colormap's two row tables) from a plan
made once per shape and cached; a plan's arrays are read-only, so threads
share them. A stage runs its passes in place on temporaries of its own and
never writes an array it was given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DataError, NumericError, UsageError
from .ingest import Window

IMAGE_SIZE = 128
TAPERS = ("hann", "rect")
_EPS = 1e-12


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
    if name not in TAPERS:
        raise UsageError(f"unknown taper {name!r} (expected one of {TAPERS})")
    least = 2 if name == "hann" else 1  # hann divides by frame_len - 1
    if frame_len < least:
        raise UsageError(f"a {name} taper needs frame_len >= {least}, got {frame_len}")
    if name == "rect":
        return np.ones(frame_len, dtype=np.float64)
    # symmetric cosine taper, zero at both ends
    n = np.arange(frame_len, dtype=np.float64)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (frame_len - 1))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _stft_plan(size: int, frame_len: int, hop: int, taper: str
               ) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (T, frame_len) sample index of every frame, and the taper."""
    starts = np.arange((size - frame_len) // hop + 1) * hop
    return (_frozen(starts[:, None] + np.arange(frame_len)),
            _frozen(taper_window(taper, frame_len)))


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
    if frame_len < 2 or frame_len % 2 != 0:
        raise UsageError(f"frame_len must be even and >= 2, got {frame_len}")
    if frame_len > x.size:
        raise UsageError(f"frame_len {frame_len} exceeds window length {x.size}")
    if hop < 1:
        raise UsageError("hop must be >= 1")
    index, w = _stft_plan(x.size, frame_len, hop, taper)
    frames = x[index]
    frames *= w
    return np.fft.rfft(frames, axis=1).T


def magnitude_db(bins: np.ndarray, floor_db: float = -80.0) -> np.ndarray:
    """Log-magnitude in dB of complex STFT bins, clamped from below at floor_db."""
    if not np.isfinite(bins).all():
        raise NumericError("spectrogram contains non-finite bins")
    db = np.abs(bins)
    db += _EPS
    np.log10(db, out=db)
    db *= 20.0
    return np.maximum(db, floor_db, out=db)


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


@lru_cache(maxsize=1)
def _colormap_plan() -> tuple[np.ndarray, np.ndarray]:
    """Read-only channel-major tables lo and hi: lo[:, k] is row k and
    hi[:, k] row k + 1 of the colormap, and hi[:, 255] repeats row 255."""
    table = load_colormap().T
    return (_frozen(table.copy()),
            _frozen(np.concatenate([table[:, 1:], table[:, -1:]], axis=1)))


def apply_colormap(norm: np.ndarray) -> np.ndarray:
    """Map values in [0,1] to RGB via the table, interpolating between rows.

    Returns the channel axis first: shape (3,) + norm.shape.
    """
    lo, hi = _colormap_plan()
    f = np.clip(norm, 0.0, 1.0)
    f *= 255.0
    k = f.astype(np.int64)
    f -= k
    # lo*(1-f) + hi*f, evaluated in place on the gathered rows. A value of
    # exactly 1 takes k = 255 and f = 0, so it is row 255 + 0, bitwise the
    # row 254 * 0 + row 255 of the last segment.
    rgb = np.take(lo, k, axis=1)
    upper = np.take(hi, k, axis=1)
    upper *= f
    np.subtract(1.0, f, out=f)
    rgb *= f
    rgb += upper
    return rgb


@lru_cache(maxsize=64)
def _resize_plan(h: int, w: int, out_h: int, out_w: int) -> tuple[np.ndarray, ...]:
    """Read-only source rows y0, y1 and columns x0, x1 of the output pixels,
    and their weights 1 - fy, fy, 1 - fx, fx, shaped to broadcast over
    (C, out_h, out_w)."""
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
    return tuple(map(_frozen, (y0, np.minimum(y0 + 1, h - 1), x0, np.minimum(x0 + 1, w - 1),
                               1.0 - fy, fy, 1.0 - fx, fx)))


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of a (C, H, W) array."""
    if img.ndim != 3 or img.size == 0 or out_h < 1 or out_w < 1:
        raise UsageError(f"cannot resize an array of shape {img.shape} to "
                         f"{out_h}x{out_w}")
    _, h, w = img.shape
    y0, y1, x0, x1, wy0, wy1, wx0, wx1 = _resize_plan(h, w, out_h, out_w)
    # Separable, but per output pixel the same float64 operations in the
    # same order as (tl*(1-fx) + tr*fx)*(1-fy) + (bl*(1-fx) + br*fx)*fy.
    # Each neighbour is gathered on its own: one array holding both saves
    # two calls but raised peak RSS (docs/design.md, "Spectral rendering
    # order").
    rows = np.take(img, x0, axis=2)
    rows *= wx0
    right = np.take(img, x1, axis=2)
    right *= wx1
    rows += right
    out = np.take(rows, y0, axis=1)
    out *= wy0
    bot = np.take(rows, y1, axis=1)
    bot *= wy1
    out += bot
    return out


def render_image(mag: np.ndarray) -> SpectralImage:
    """Normalize a magnitude matrix, resize it to 128x128, then colormap.

    The resize runs on the normalized scalar field, so the color of an
    interpolated pixel is the colormap at the interpolated value (a blend
    of two RGB endpoints would drift off the map's gamut instead).
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2 or mag.size == 0:
        raise UsageError(f"magnitude matrix must be 2-d and non-empty, got shape {mag.shape}")
    # min and max are both finite exactly when every entry is: a nan makes
    # both nan, an infinity makes one of them infinite
    lo, hi = mag.min(), mag.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError("magnitude matrix contains non-finite values")
    if hi > lo:
        norm = mag - lo
        norm /= hi - lo
    else:
        norm = np.full(mag.shape, 0.5)
    resized = bilinear_resize(norm[None], IMAGE_SIZE, IMAGE_SIZE)[0]
    # rounding to float32 is monotone and keeps 0 and 1, so clipping after
    # it gives the bits of clipping before
    pixels = apply_colormap(resized).astype(np.float32)
    np.clip(pixels, 0.0, 1.0, out=pixels)
    return SpectralImage(pixels)


def spectral_image(window: Window, cfg: SpectralConfig = SpectralConfig()) -> SpectralImage:
    """Full window -> image chain. Deterministic for a fixed config."""
    bins = stft(window.values, cfg.frame_len, cfg.hop, cfg.taper)
    return render_image(magnitude_db(bins, cfg.floor_db))

