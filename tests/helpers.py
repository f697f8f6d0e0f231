"""Independent oracles shared across the test suite.

Each function here recomputes a contract from first principles (loops and
definitions, no shortcuts shared with the implementation) so the tests
compare two genuinely different routes to the same answer. `bounded` and
`as_samples` are the exceptions: one fails a test that hangs, the other
hands an array to the head as its sequence samples.
"""

from __future__ import annotations

import threading

import numpy as np

from latentfuse import fusion


def as_samples(x: np.ndarray, labels=None) -> list[fusion.SequenceSample]:
    """A (B, L, C, g, g) array as B sequence samples whose steps are views of
    x, labelled 0 unless labels are given."""
    labels = [0] * x.shape[0] if labels is None else labels
    return [fusion.SequenceSample([fusion.FusedLatent(step, ()) for step in seq], int(y))
            for seq, y in zip(x, labels)]


def bounded(fn, seconds=60):
    """fn() on a daemon thread, failing the test if it does not return in time."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), "timed out"
    assert out, "raised"
    return out[0]


def fd_param_error(loss_fn, store, analytic: dict[str, np.ndarray],
                   eps: float = 1e-5, max_coords: int = 40, seed: int = 0) -> float:
    """Worst relative error of analytic parameter gradients vs central FD.

    analytic maps parameter names to the gradients produced by backward();
    loss_fn() re-evaluates the scalar objective with the store's current
    values. Large tensors are subsampled at max_coords random coordinates.
    """
    worst = 0.0
    rs = np.random.default_rng(seed)
    for name, grad in analytic.items():
        flat = store.values[name].reshape(-1)
        g = np.asarray(grad).reshape(-1)
        if flat.size <= max_coords:
            idxs = np.arange(flat.size)
        else:
            idxs = rs.choice(flat.size, max_coords, replace=False)
        for i in idxs:
            old = flat[i]
            flat[i] = old + eps
            lp = loss_fn()
            flat[i] = old - eps
            lm = loss_fn()
            flat[i] = old
            fd = (lp - lm) / (2.0 * eps)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            worst = max(worst, abs(fd - g[i]) / denom)
    return worst


def fd_array_error(loss_fn, array: np.ndarray, analytic: np.ndarray,
                   eps: float = 1e-5, max_coords: int = 40, seed: int = 0) -> float:
    """Worst relative error of an input-gradient tensor vs central FD."""
    worst = 0.0
    rs = np.random.default_rng(seed)
    flat = array.reshape(-1)
    g = np.asarray(analytic).reshape(-1)
    if flat.size <= max_coords:
        idxs = np.arange(flat.size)
    else:
        idxs = rs.choice(flat.size, max_coords, replace=False)
    for i in idxs:
        old = flat[i]
        flat[i] = old + eps
        lp = loss_fn()
        flat[i] = old - eps
        lm = loss_fn()
        flat[i] = old
        fd = (lp - lm) / (2.0 * eps)
        denom = max(abs(fd), abs(g[i]), 1e-8)
        worst = max(worst, abs(fd - g[i]) / denom)
    return worst


def direct_dft(x: np.ndarray, frame_len: int, hop: int, taper: np.ndarray) -> np.ndarray:
    """Literal triple-loop realization of the framed DFT definition."""
    n_frames = (len(x) - frame_len) // hop + 1
    n_bins = frame_len // 2 + 1
    out = np.zeros((n_bins, n_frames), dtype=np.complex128)
    for t in range(n_frames):
        for f in range(n_bins):
            acc = 0.0 + 0.0j
            for n in range(frame_len):
                acc += (x[t * hop + n] * taper[n]
                        * np.exp(-2j * np.pi * f * n / frame_len))
            out[f, t] = acc
    return out


def enumerate_windows(n: int, window_len: int, stride: int) -> tuple[list[int], int | None]:
    """Walk the stride lattice: full-window starts, plus the tail start.

    The tail exists when the full windows stop short of the signal end; it
    sits at the next lattice point. Returns (full_starts, tail_start).
    """
    full = []
    start = 0
    while start + window_len <= n:
        full.append(start)
        start += stride
    covered = full[-1] + window_len if full else 0
    tail = start if covered < n else None
    return full, tail


def exhaustive_nearest(vec: np.ndarray, entries: np.ndarray) -> int:
    """Scan every codebook row; strict < keeps the lowest index on ties."""
    best, best_d = 0, None
    for k in range(entries.shape[0]):
        d = 0.0
        for j in range(entries.shape[1]):
            diff = float(vec[j]) - float(entries[k, j])
            d += diff * diff
        if best_d is None or d < best_d:
            best, best_d = k, d
    return best


def auc_by_pairs(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Brute-force pairwise AUC: wins count 1, ties 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def conv_macs_by_loop(cin: int, cout: int, k: int, h: int, w: int,
                      stride: int, padding: int) -> int:
    """Count multiplications of a direct convolution with six nested loops."""
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    count = 0
    for _ in range(cout):
        for _ in range(ho):
            for _ in range(wo):
                count += cin * k * k
    return count


def four_gather_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of (C, H, W), one gather per neighbour.

    Every output pixel is (tl*(1-fx) + tr*fx)*(1-fy) + (bl*(1-fx) + br*fx)*fy
    in float64, the formula docs/formats.md pins.
    """
    c, h, w = img.shape
    ry = np.arange(out_h) * ((h - 1) / (out_h - 1)) if out_h > 1 else np.zeros(1)
    rx = np.arange(out_w) * ((w - 1) / (out_w - 1)) if out_w > 1 else np.zeros(1)
    if h == 1:
        ry = np.zeros(out_h)
    if w == 1:
        rx = np.zeros(out_w)
    y0 = np.minimum(ry.astype(np.int64), max(h - 2, 0))
    x0 = np.minimum(rx.astype(np.int64), max(w - 2, 0))
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ry - y0)[None, :, None]
    fx = (rx - x0)[None, None, :]
    tl = img[:, y0[:, None], x0[None, :]]
    tr = img[:, y0[:, None], x1[None, :]]
    bl = img[:, y1[:, None], x0[None, :]]
    br = img[:, y1[:, None], x1[None, :]]
    return (tl * (1.0 - fx) + tr * fx) * (1.0 - fy) + (bl * (1.0 - fx) + br * fx) * fy


def rows_colormap(norm: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Piecewise-linear colormap lookup with the color axis last: (..., 3)."""
    p = np.clip(norm, 0.0, 1.0) * 255.0
    k = np.minimum(p.astype(np.int64), 254)
    f = p - k
    return table[k] * (1.0 - f)[..., None] + table[k + 1] * f[..., None]


def db_spectrogram_by_formula(values: np.ndarray, frame_len: int, hop: int, taper: str,
                              floor_db: float) -> np.ndarray:
    """Frames sliced one at a time and tapered (Hann: 0.5 - 0.5 cos(2 pi n / (N-1))),
    a real FFT per frame row, then max(20 log10(|bin| + 1e-12), floor_db): (F, T)."""
    x = np.asarray(values, dtype=np.float64)
    n = np.arange(frame_len, dtype=np.float64)
    w = (0.5 - 0.5 * np.cos(2.0 * np.pi * n / (frame_len - 1)) if taper == "hann"
         else np.ones(frame_len))
    frames = np.stack([x[t * hop:t * hop + frame_len] * w
                       for t in range((len(x) - frame_len) // hop + 1)])
    bins = np.fft.rfft(frames, axis=1).T
    return np.maximum(20.0 * np.log10(np.abs(bins) + 1e-12), floor_db)


def render_by_formula(mag: np.ndarray, table: np.ndarray, size: int = 128) -> np.ndarray:
    """Min-max normalize, four-gather resize, colormap, clip: (3, size, size) float32."""
    mag = np.asarray(mag, dtype=np.float64)
    lo, hi = mag.min(), mag.max()
    norm = (mag - lo) / (hi - lo) if hi > lo else np.full(mag.shape, 0.5)
    resized = four_gather_resize(norm[None], size, size)[0]
    rgb = np.clip(rows_colormap(resized, table), 0.0, 1.0)
    return np.moveaxis(rgb, -1, 0).astype(np.float32)


def im2col_by_loops(x: np.ndarray, k: int, s: int, p: int,
                    channels_last: bool = False) -> tuple[np.ndarray, int, int]:
    """Copy every k x k patch of the zero-padded input, one element at a time.

    Row (ch*k + i)*k + j, or (i*k + j)*c + ch with channels_last, column
    oy*wo + ox of image b holds x[b, ch, oy*s + i - p, ox*s + j - p], or 0
    where that falls in the padding.
    """
    n, c, h, w = x.shape
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    cols = np.zeros((n, c * k * k, ho * wo), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(k):
                for j in range(k):
                    row = (i * k + j) * c + ch if channels_last else (ch * k + i) * k + j
                    for oy in range(ho):
                        for ox in range(wo):
                            y, xx = oy * s + i - p, ox * s + j - p
                            if 0 <= y < h and 0 <= xx < w:
                                cols[b, row, oy * wo + ox] = x[b, ch, y, xx]
    return cols, ho, wo


def col2im_by_loops(cols: np.ndarray, x_shape: tuple[int, ...], k: int, s: int,
                    p: int) -> np.ndarray:
    """Add every patch-column entry back onto its input pixel, one at a time.

    The inverse walk of im2col_by_loops: entry (b, (ch*k + i)*k + j, oy*wo + ox)
    is added onto x[b, ch, oy*s + i - p, ox*s + j - p] unless that falls in
    the padding. Each pixel starts at 0.0 and takes its taps in (i, j) order.
    """
    n, c, h, w = x_shape
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    out = np.zeros(x_shape, dtype=cols.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(k):
                for j in range(k):
                    row = (ch * k + i) * k + j
                    for oy in range(ho):
                        for ox in range(wo):
                            y, xx = oy * s + i - p, ox * s + j - p
                            if 0 <= y < h and 0 <= xx < w:
                                out[b, ch, y, xx] += cols[b, row, oy * wo + ox]
    return out


def naive_conv(x, w, b, s, p):
    """Cross-correlation of (n, c, h, w) x with weight (O, c, k, k) and bias b,
    stride s and zero padding p, one output element at a time."""
    n, cin, h, wid = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ho = (h + 2 * p - k) // s + 1
    wo = (wid + 2 * p - k) // s + 1
    out = np.zeros((n, cout, ho, wo))
    for bi in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[bi, :, i * s:i * s + k, j * s:j * s + k]
                    out[bi, co, i, j] = np.sum(patch * w[co]) + b[co]
    return out


def channels_last(x: np.ndarray) -> np.ndarray:
    """The values of an (n, c, h, w) array as a view over (n, h, w, c) memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(x: np.ndarray) -> bool:
    """Whether an (n, c, h, w) array lies in compact (n, h, w, c) memory."""
    return x.transpose(0, 2, 3, 1).flags.c_contiguous
