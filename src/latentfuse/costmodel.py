"""Analytic cost accounting: MACs, parameters and memory traffic.

Conventions (documented with worked examples in docs/costmodel.md):
- MACs count multiplications only; adds, comparisons, and table lookups are
  free. conv2d: C_out*H_out*W_out*C_in*k^2; conv_transpose2d:
  C_in*H_in*W_in*C_out*k^2; dense: in*out; recurrent cell per step:
  3*(x_dim+hidden)*hidden; relu/sigmoid: 0.
- Memory traffic per layer: fetch = input elements * batch * 4 bytes plus
  parameter elements * 4 bytes (parameters are fetched once per batch, not
  per sample); write = output elements * batch * 4 bytes.
- Energy is priced once, at the bench output, as macs * energy_per_mac;
  ENERGY_PER_MAC (4.6 pJ) is the config default, a modeling constant, not
  a measurement.
- All counts are exact Python integers, so per-modality additivity holds
  with zero rounding error; this is what makes the emitted scaling columns
  exactly linear in the modality count.

The preprocessing stage (window -> spectral image) is not made of layer
descriptors; its per-step operation counts are pinned here with the same
multiplications-only convention.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

from . import nnkernel as nn
from .baseline import build_feature_stack
from .errors import UsageError
from .fusion import HEAD_HIDDEN, head_layers
from .spectral import IMAGE_SIZE, SpectralConfig
from .vqvae import GRID, build_encoder

log = logging.getLogger(__name__)

ENERGY_PER_MAC = 4.6e-12
ELEM_BYTES = 4


@dataclass(frozen=True)
class CostRow:
    name: str
    kind: str
    macs: int
    params: int
    fetch_bytes: int
    write_bytes: int


@dataclass
class CostReport:
    rows: list[CostRow] = field(default_factory=list)

    @property
    def macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def fetch_bytes(self) -> int:
        return sum(r.fetch_bytes for r in self.rows)

    @property
    def write_bytes(self) -> int:
        return sum(r.write_bytes for r in self.rows)

    def extend(self, other: "CostReport") -> None:
        self.rows.extend(other.rows)


@dataclass
class PipelineCost:
    stages: dict[str, CostReport]
    encoder_loads: int

    @property
    def total_macs(self) -> int:
        return sum(s.macs for s in self.stages.values())


def _shape_elems(shape: tuple[int, ...]) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n


def layer_macs(desc: nn.LayerDescriptor, in_shape: tuple[int, ...]) -> int:
    """Multiplication count for one layer application on one sample."""
    if desc.kind == "conv2d":
        co, ho, wo = nn.out_shape(desc, in_shape)
        return co * ho * wo * desc.in_channels * desc.kernel * desc.kernel
    if desc.kind == "conv_transpose2d":
        ci, hi, wi = in_shape
        return ci * hi * wi * desc.out_channels * desc.kernel * desc.kernel
    if desc.kind == "dense":
        return desc.in_features * desc.out_features
    if desc.kind in ("relu", "sigmoid"):
        return 0
    if desc.kind == "residual_block":
        total = 0
        shape = in_shape
        for d in desc.inner:
            total += layer_macs(d, shape)
            shape = nn.out_shape(d, shape)
        return total
    if desc.kind == "recurrent_cell":
        return 3 * (desc.in_features + desc.hidden) * desc.hidden
    raise UsageError(f"unknown layer kind: {desc.kind}")


def memory_traffic(desc: nn.LayerDescriptor, in_shape: tuple[int, ...],
                   batch: int = 1) -> tuple[int, int]:
    """(fetch_bytes, write_bytes) for one layer at the given batch size."""
    if desc.kind == "recurrent_cell":
        in_elems = desc.in_features + desc.hidden
        out_elems = desc.hidden
    else:
        in_elems = _shape_elems(in_shape)
        out_elems = _shape_elems(nn.out_shape(desc, in_shape))
    fetch = (in_elems * batch + nn.param_count(desc)) * ELEM_BYTES
    write = out_elems * batch * ELEM_BYTES
    return fetch, write


def layer_cost(desc: nn.LayerDescriptor, in_shape: tuple[int, ...],
               batch: int = 1) -> CostRow:
    fetch, write = memory_traffic(desc, in_shape, batch)
    name = desc.name or desc.kind
    return CostRow(name, desc.kind, layer_macs(desc, in_shape) * batch,
                   nn.param_count(desc), fetch, write)


def stack_cost(descs: Sequence[nn.LayerDescriptor], in_shape: tuple[int, ...],
               batch: int = 1) -> CostReport:
    """Per-layer cost rows for a feed-forward stack."""
    report = CostReport()
    shape = in_shape
    for d in descs:
        report.rows.append(layer_cost(d, shape, batch))
        shape = nn.out_shape(d, shape)
    return report


def preprocess_cost(window_len: int = 128,
                    cfg: SpectralConfig = SpectralConfig()) -> CostReport:
    """Pinned operation counts for one window -> spectral image conversion,
    one row per step in the order render_image runs them.

    Conventions per element: complex DFT term 4 mults (a direct DFT, not
    an FFT); |z| then dB 3; min-max normalize 1; bilinear resize of the
    one normalized channel 4 per output pixel; colormap interpolation 2
    per output pixel per RGB channel.
    """
    fl, hop = cfg.frame_len, cfg.hop
    f_bins = fl // 2 + 1
    frames = (window_len - fl) // hop + 1
    ft = f_bins * frames
    img = IMAGE_SIZE * IMAGE_SIZE
    b = ELEM_BYTES
    rows = [
        CostRow("frame_taper", "preprocess", frames * fl, 0,
                (window_len + fl) * b, frames * fl * b),
        CostRow("dft", "preprocess", 4 * f_bins * frames * fl, 0,
                frames * fl * b, 2 * ft * b),
        CostRow("magnitude_db", "preprocess", 3 * ft, 0, 2 * ft * b, ft * b),
        CostRow("normalize", "preprocess", ft, 0, ft * b, ft * b),
        CostRow("resize", "preprocess", 4 * img, 0, ft * b, img * b),
        CostRow("colormap", "preprocess", 2 * 3 * img, 0, (img + 256 * 3) * b,
                3 * img * b),
    ]
    return CostReport(rows)


def quantize_cost(embed_dim: int, codebook_size: int, batch: int = 1,
                  grid: int = GRID) -> CostRow:
    """Nearest-code search in GEMM form: the (cells x D) by (D x K) product,
    one MAC per (cell, code, dim)."""
    cells = grid * grid
    macs = batch * cells * codebook_size * embed_dim
    params = codebook_size * embed_dim
    fetch = (batch * embed_dim * cells + params) * ELEM_BYTES
    write = batch * (embed_dim * cells + cells) * ELEM_BYTES
    return CostRow("quantize", "quantize", macs, params, fetch, write)


def head_cost(in_channels: int, seq_len: int = 1, grid: int = GRID,
              hidden: int = HEAD_HIDDEN) -> CostReport:
    """Classifier head cost for one sequence of seq_len fused latents."""
    conv, cell, out = head_layers(in_channels, grid, hidden)
    report = stack_cost(conv, (in_channels, grid, grid), batch=seq_len)
    report.rows.append(layer_cost(cell, (cell.in_features,), batch=seq_len))
    report.rows.append(layer_cost(out, (hidden,), batch=1))
    return report


def fuse_cost(m: int, embed_dim: int, grid: int = GRID,
              seq_len: int = 1) -> CostReport:
    """Concatenation moves bytes but multiplies nothing."""
    elems = m * embed_dim * grid * grid * seq_len
    row = CostRow("fuse", "concat", 0, 0, elems * ELEM_BYTES, elems * ELEM_BYTES)
    return CostReport([row])


def pipeline_cost(kind: str, m: int, embed_dim: int = 16, codebook_size: int = 128,
                  seq_len: int = 1, window_len: int = 128,
                  spectral_cfg: SpectralConfig = SpectralConfig(),
                  modalities: Sequence[str] | None = None) -> PipelineCost:
    """Per-stage cost of one inference step for either system.

    The unified system applies one encoder M times (per-window activations
    scale with M, parameters do not); the baseline applies M distinct
    encoders (everything scales with M). Fusion and classification are
    identical across systems at equal M. Stage MACs cover seq_len windows
    per modality for preprocess/encode and one sequence for the head.
    """
    if kind not in ("unified", "baseline"):
        raise UsageError(f"kind must be 'unified' or 'baseline', got {kind!r}")
    if m < 1:
        raise UsageError("modality count must be >= 1")
    names = list(modalities) if modalities else [f"mod{i}" for i in range(m)]
    if len(names) != m:
        raise UsageError(f"got {len(names)} modality names for m={m}")
    if len(set(names)) != m:
        raise UsageError(f"modality names {names} repeat a modality")

    pre = CostReport()
    one_window = preprocess_cost(window_len, spectral_cfg)
    for name in names:
        for r in one_window.rows:
            pre.rows.append(CostRow(f"{name}.{r.name}", r.kind,
                                    r.macs * seq_len, r.params,
                                    r.fetch_bytes * seq_len,
                                    r.write_bytes * seq_len))

    enc = CostReport()
    in_shape = (3, IMAGE_SIZE, IMAGE_SIZE)
    if kind == "unified":
        # one parameter set, applied once per modality per step
        enc.extend(stack_cost(build_encoder(embed_dim), in_shape, batch=m * seq_len))
        enc.rows.append(quantize_cost(embed_dim, codebook_size, batch=m * seq_len))
        loads = 1
    else:
        for name in names:
            enc.extend(stack_cost(build_feature_stack(name, embed_dim), in_shape,
                                  batch=seq_len))
        loads = m

    fuse_stage = fuse_cost(m, embed_dim, GRID, seq_len)
    classify = head_cost(m * embed_dim, seq_len, GRID)
    return PipelineCost({"preprocess": pre, "encode": enc, "fuse": fuse_stage,
                         "classify": classify}, loads)


# ---------------------------------------------------------------------------
# Scaling comparison
# ---------------------------------------------------------------------------

def scaling_table(m_values: Sequence[int] = (1, 2, 3, 4, 5, 6),
                  embed_dim: int = 16, codebook_size: int = 128,
                  seq_len: int = 1, window_len: int = 128,
                  spectral_cfg: SpectralConfig = SpectralConfig()) -> list[dict]:
    """One row of analytic columns per modality count.

    The params columns report the encode stage (the quantity that
    distinguishes the systems); MAC columns are whole-pipeline totals.
    """
    rows = []
    for m in m_values:
        uni = pipeline_cost("unified", m, embed_dim, codebook_size, seq_len,
                            window_len, spectral_cfg)
        base = pipeline_cost("baseline", m, embed_dim, codebook_size, seq_len,
                             window_len, spectral_cfg)
        rows.append({
            "m": m,
            "unified_macs": uni.total_macs,
            "baseline_macs": base.total_macs,
            "unified_params": uni.stages["encode"].params,
            "baseline_params": base.stages["encode"].params,
            "unified_loads": uni.encoder_loads,
            "baseline_loads": base.encoder_loads,
        })
        log.debug("scaling m=%d: unified %d MACs, baseline %d MACs", m,
                  uni.total_macs, base.total_macs)
    return rows
