"""Minimal deterministic neural-network kernel.

Everything the encoders and classifier heads need, with no ML framework:
plain numpy tensors, a small set of layer kinds with exact analytic
gradients, bias-corrected Adam, and a counter-based PRNG so that equal
seeds give bitwise-equal models.

Conventions, pinned for cross-run reproducibility:

- Activations carry a leading batch axis; images are channel-major
  (N, C, H, W), rows stored row-major.
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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericError, UsageError

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


def param_names(desc: LayerDescriptor) -> list[str]:
    return [f"{desc.name}.{suffix}" for suffix, _, _ in param_specs(desc)]


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


def _im2col(x: np.ndarray, k: int, s: int, p: int) -> tuple[np.ndarray, int, int]:
    """Patch columns of shape (n, c*k*k, ho*wo), stored image-interleaved.

    The memory order is (c*k*k, n, ho*wo): each image's (c*k*k, ho*wo) matrix
    is a strided view that BLAS takes as is, and all images' columns side by
    side are a (c*k*k, n*ho*wo) view, which `_weight_grad` hands to one GEMM.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + w] = x
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    sn, sc, sh, sw = xp.strides
    windows = as_strided(xp, (c, k, k, n, ho, wo), (sc, sh, sw, sn, sh * s, sw * s))
    cols = windows.reshape(c * k * k, n, ho * wo)
    return cols.transpose(1, 0, 2), ho, wo


def _weight_grad(grad_rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum over images b of grad_rows[b] @ cols[b].T, as one GEMM.

    grad_rows is (n, r, P) and cols an `_im2col` result, whose (rows, n*P)
    matrix is a view. The operand shapes are those np.tensordot over axes
    (0, 2) builds, minus its transposed copy of cols.
    """
    gm = grad_rows.transpose(1, 0, 2).reshape(grad_rows.shape[1], -1)
    rows = cols.transpose(1, 0, 2)
    return np.dot(gm, rows.reshape(rows.shape[0], -1).T)


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], k: int, s: int, p: int,
            ho: int, wo: int) -> np.ndarray:
    """Adjoint of `_im2col`: add every column entry back onto its pixel.

    Each pixel sums its taps onto +0.0 in (i, j) order, so the result is
    bitwise that of adding one strided (ho, wo) tap plane at a time into a
    zeroed padded image. Padded pixel (Y*s + py, X*s + px) lives in phase
    grid (py, px) at (Y, X), where tap (i, j) of phase (i % s, j % s) is its
    plane shifted by (i // s, j // s). Grid rows are stored wo wide, so a
    tap is one long add per plane; the entries that pass column wo wrap into
    the first q - 1 columns of the next row, and those columns, with the
    ones from wo on, are summed apart column by column.
    """
    n, c, h, w = x_shape
    dtype = cols.dtype
    q = -(-k // s)  # most taps per axis in one phase
    hq = max(ho + q - 1, (h + p - 1) // s + 1)
    wq = max(wo + q - 1, (w + p - 1) // s + 1)
    edge_x = [x for x in range(wq) if x < q - 1 or x >= wo]
    taps = cols.reshape(n * c, k, k, ho, wo)
    grid = np.zeros((s, s, n * c, hq * wo), dtype=dtype)
    edge = np.zeros((s, s, n * c, hq, len(edge_x)), dtype=dtype)
    # phase by phase, so one phase grid stays in cache across its taps
    for py, px in product(range(s), repeat=2):
        for i in range(py, k, s):
            for j in range(px, k, s):
                dy, dx = i // s, j // s
                off = dy * wo + dx
                span = min(ho * wo, hq * wo - off)
                grid[py, px, :, off:off + span] += \
                    taps[:, i, j].reshape(n * c, ho * wo)[:, :span]
                for e, x in enumerate(edge_x):
                    if 0 <= x - dx < wo:
                        edge[py, px, :, dy:dy + ho, e] += taps[:, i, j, :, x - dx]
    grid = grid.reshape(s, s, n, c, hq, wo)
    edge = edge.reshape(s, s, n, c, hq, len(edge_x))
    for e, x in enumerate(edge_x):
        if x < wo:
            grid[..., x] = edge[..., e]
    out = np.empty(x_shape, dtype=dtype)
    for py in range(s):
        y0 = (py - p) % s
        gy = (y0 + p) // s
        rows = slice(gy, gy + len(range(y0, h, s)))
        for px in range(s):
            x0 = (px - p) % s
            gx = (x0 + p) // s
            width = len(range(x0, w, s))
            inner = max(0, min(width, wo - gx))
            dst = out[:, :, y0::s, x0::s]
            dst[..., :inner] = grid[py, px, :, :, rows, gx:gx + inner]
            if inner < width:
                e = edge_x.index(gx + inner)
                dst[..., inner:] = edge[py, px, :, :, rows, e:e + width - inner]
    return out


def _check_image_input(desc: LayerDescriptor, x: np.ndarray) -> None:
    if x.ndim != 4 or x.shape[1] != desc.in_channels:
        raise UsageError(f"{desc.kind} {desc.name}: input shape {x.shape} incompatible "
                         f"with (N, {desc.in_channels}, H, W)")


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def forward(desc: LayerDescriptor, store: ParamStore, x):
    """Run one layer forward. Returns (output, cache) for the matching backward.

    Feed-forward kinds take a batched array. recurrent_cell takes a tuple
    (x, h) of (N, x_dim) and (N, hidden) and returns the next hidden state.
    """
    if desc.kind == "conv2d":
        _check_image_input(desc, x)
        w = store.values[f"{desc.name}.w"]
        b = store.values[f"{desc.name}.b"]
        cols, ho, wo = _im2col(x, desc.kernel, desc.stride, desc.padding)
        wm = w.reshape(desc.out_channels, -1)
        out = np.matmul(wm, cols)
        out += b[:, None]
        out = out.reshape(x.shape[0], desc.out_channels, ho, wo)
        return out, (x.shape, cols, ho, wo)

    if desc.kind == "conv_transpose2d":
        _check_image_input(desc, x)
        w = store.values[f"{desc.name}.w"]
        b = store.values[f"{desc.name}.b"]
        n, _, h, wdt = x.shape
        k, s, p = desc.kernel, desc.stride, desc.padding
        xf = x.reshape(n, desc.in_channels, h * wdt)
        wm = w.reshape(desc.in_channels, -1)
        cols = np.matmul(wm.T, xf)
        ho = (h - 1) * s - 2 * p + k
        wo = (wdt - 1) * s - 2 * p + k
        out = _col2im(cols, (n, desc.out_channels, ho, wo), k, s, p, h, wdt)
        out += b[None, :, None, None]
        return out, (xf, (h, wdt))

    if desc.kind == "dense":
        if x.ndim != 2 or x.shape[1] != desc.in_features:
            raise UsageError(f"dense {desc.name}: input shape {x.shape} incompatible "
                             f"with (N, {desc.in_features})")
        w = store.values[f"{desc.name}.w"]
        b = store.values[f"{desc.name}.b"]
        return x @ w.T + b, (x,)

    if desc.kind == "relu":
        return np.maximum(x, 0), (x > 0,)

    if desc.kind == "sigmoid":
        y = sigmoid_fn(x)
        return y, (y,)

    if desc.kind == "residual_block":
        h = x
        caches = []
        for d in desc.inner:
            h, cache = forward(d, store, h)
            caches.append(cache)
        if h.shape != x.shape:
            raise UsageError(f"residual_block {desc.name}: inner shape {h.shape} "
                             f"does not match input {x.shape}")
        return x + h, tuple(caches)

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
        x_shape, cols, ho, wo = cache
        n = x_shape[0]
        w = store.values[f"{desc.name}.w"]
        gm = grad_out.reshape(n, desc.out_channels, ho * wo)
        store.accumulate(f"{desc.name}.w", _weight_grad(gm, cols).reshape(w.shape))
        store.accumulate(f"{desc.name}.b", gm.sum(axis=(0, 2)))
        if not need_grad_in:
            return None
        wm = w.reshape(desc.out_channels, -1)
        gcols = np.matmul(wm.T, gm)
        return _col2im(gcols, x_shape, desc.kernel, desc.stride, desc.padding, ho, wo)

    if desc.kind == "conv_transpose2d":
        xf, (h, wdt) = cache
        w = store.values[f"{desc.name}.w"]
        k, s, p = desc.kernel, desc.stride, desc.padding
        gcols, _, _ = _im2col(grad_out, k, s, p)
        store.accumulate(f"{desc.name}.w", _weight_grad(xf, gcols).reshape(w.shape))
        store.accumulate(f"{desc.name}.b", grad_out.sum(axis=(0, 2, 3)))
        if not need_grad_in:
            return None
        wm = w.reshape(desc.in_channels, -1)
        gx = np.matmul(wm, gcols)
        return gx.reshape(xf.shape[0], desc.in_channels, h, wdt)

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
