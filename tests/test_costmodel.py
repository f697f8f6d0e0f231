"""Tests for the analytic MAC / parameter / memory model and the scaling table."""

import numpy as np
import pytest

from latentfuse import costmodel
from latentfuse import nnkernel as nn
from latentfuse.errors import UsageError

from helpers import conv_macs_by_loop


# ---------------------------------------------------------------------------
# Per-layer counts
# ---------------------------------------------------------------------------

def test_conv_macs_anchor():
    # 16 -> 24 channels, 3x3, stride 2, on a 16x16 grid: 24*8*8 outputs,
    # each a 16*3*3 dot product
    desc = nn.conv2d("c", 16, 24, 3, 2, 1)
    assert costmodel.layer_macs(desc, (16, 16, 16)) == 24 * 8 * 8 * 16 * 9
    assert costmodel.layer_macs(desc, (16, 16, 16)) == 221184


def test_conv_macs_match_loop_count():
    rs = np.random.default_rng(0)
    for _ in range(200):
        cin = int(rs.integers(1, 8))
        cout = int(rs.integers(1, 8))
        k = int(rs.integers(1, 5))
        s = int(rs.integers(1, 4))
        p = int(rs.integers(0, 3))
        h = int(rs.integers(k, 20))
        w = int(rs.integers(k, 20))
        desc = nn.conv2d("c", cin, cout, k, s, p)
        assert costmodel.layer_macs(desc, (cin, h, w)) == \
            conv_macs_by_loop(cin, cout, k, h, w, s, p)


def test_conv_transpose_macs_are_adjoint_counts():
    """A transposed conv multiplies every input element into k*k*C_out
    outputs, so its count mirrors the conv count on its own output."""
    rs = np.random.default_rng(1)
    for _ in range(50):
        cin = int(rs.integers(1, 6))
        cout = int(rs.integers(1, 6))
        k = int(rs.integers(2, 5))
        s = int(rs.integers(1, 3))
        h = int(rs.integers(2, 12))
        desc = nn.conv_transpose2d("t", cin, cout, k, s, 0)
        macs = costmodel.layer_macs(desc, (cin, h, h))
        assert macs == cin * h * h * cout * k * k


def test_dense_and_activation_macs():
    assert costmodel.layer_macs(nn.dense("d", 64, 1), (64,)) == 64
    assert costmodel.layer_macs(nn.relu(), (3, 4, 4)) == 0
    assert costmodel.layer_macs(nn.sigmoid(), (10,)) == 0


def test_cell_macs_formula():
    cell = nn.recurrent_cell("g", 256, 64)
    assert costmodel.layer_macs(cell, (256,)) == 3 * (256 + 64) * 64


def test_residual_macs_sum_inner_layers():
    rb = nn.residual_block("r", 8)
    inner = sum(costmodel.layer_macs(d, (8, 16, 16)) for d in rb.inner)
    assert costmodel.layer_macs(rb, (8, 16, 16)) == inner
    assert costmodel.layer_macs(rb, (8, 16, 16)) == 2 * 8 * 16 * 16 * 8 * 9


def test_memory_traffic_dense_anchor():
    # dense 64 -> 1 at batch 1: fetch 64*4 + 65*4 = 516, write 4
    desc = nn.dense("d", 64, 1)
    fetch, write = costmodel.memory_traffic(desc, (64,), batch=1)
    assert fetch == 516
    assert write == 4


def test_memory_traffic_scales_activations_not_params():
    desc = nn.dense("d", 64, 1)
    f1, w1 = costmodel.memory_traffic(desc, (64,), batch=1)
    f2, w2 = costmodel.memory_traffic(desc, (64,), batch=2)
    assert f2 - f1 == 64 * 4  # one extra activation fetch, params once
    assert w2 == 2 * w1


def test_memory_traffic_activation_layer():
    fetch, write = costmodel.memory_traffic(nn.relu(), (4, 4, 4), batch=3)
    assert fetch == 4 * 4 * 4 * 3 * 4
    assert write == fetch


def test_layer_cost_multiplies_batch():
    desc = nn.conv2d("c", 2, 3, 3, 1, 1)
    row1 = costmodel.layer_cost(desc, (2, 8, 8), batch=1)
    row4 = costmodel.layer_cost(desc, (2, 8, 8), batch=4)
    assert row4.macs == 4 * row1.macs
    assert row4.params == row1.params


# ---------------------------------------------------------------------------
# Stage reports
# ---------------------------------------------------------------------------

def test_preprocess_macs_pinned_total():
    report = costmodel.preprocess_cost()
    assert report.macs == 771338
    by_name = {r.name: r.macs for r in report.rows}
    assert by_name["dft"] == 4 * 33 * 65 * 64
    assert by_name["resize"] == 4 * 3 * 128 * 128
    assert by_name["frame_taper"] == 65 * 64


def test_quantize_cost_formula():
    row = costmodel.quantize_cost(16, 128, batch=3)
    assert row.macs == 3 * 256 * 128 * 16
    assert row.params == 128 * 16


def test_head_cost_params_counted_once():
    report = costmodel.head_cost(16, seq_len=4)
    conv1 = next(r for r in report.rows if r.name == "head.c1")
    cell = next(r for r in report.rows if r.name == "head.cell")
    out = next(r for r in report.rows if r.name == "head.out")
    # MACs scale with the sequence, parameter counts do not
    assert conv1.macs == 4 * costmodel.layer_macs(
        nn.conv2d("head.c1", 16, 16, 3, 2, 1), (16, 16, 16))
    assert cell.macs == 4 * 3 * (256 + 64) * 64
    assert cell.params == nn.param_count(nn.recurrent_cell("x", 256, 64))
    assert out.macs == 64


def test_fuse_costs_no_macs():
    report = costmodel.fuse_cost(6, 16)
    assert report.macs == 0
    assert report.fetch_bytes == 6 * 16 * 256 * 4


# ---------------------------------------------------------------------------
# Whole-pipeline costs
# ---------------------------------------------------------------------------

def test_unified_params_constant_in_m():
    costs = [costmodel.pipeline_cost("unified", m) for m in range(1, 7)]
    params = [c.stages["encode"].params for c in costs]
    assert len(set(params)) == 1
    assert params[0] == 60080 + 128 * 16


def test_baseline_params_linear_in_m():
    costs = [costmodel.pipeline_cost("baseline", m) for m in range(1, 7)]
    params = [c.stages["encode"].params for c in costs]
    assert params == [m * 70000 for m in range(1, 7)]


def test_encoder_loads():
    for m in (1, 3, 6):
        assert costmodel.pipeline_cost("unified", m).encoder_loads == 1
        assert costmodel.pipeline_cost("baseline", m).encoder_loads == m


def test_total_macs_exactly_affine_in_m():
    """Both systems are slope*m + intercept with integer arithmetic, so the
    second difference over consecutive m is exactly zero."""
    for kind in ("unified", "baseline"):
        totals = [costmodel.pipeline_cost(kind, m).total_macs
                  for m in range(1, 7)]
        diffs = [b - a for a, b in zip(totals, totals[1:])]
        assert len(set(diffs)) == 1, f"{kind} is not affine: {totals}"
        assert diffs[0] > 0


def test_baseline_encode_macs_exceed_unified_per_modality():
    uni = costmodel.pipeline_cost("unified", 1).stages["encode"]
    base = costmodel.pipeline_cost("baseline", 1).stages["encode"]
    uni_stack = uni.macs - next(r.macs for r in uni.rows if r.name == "quantize")
    assert uni_stack == 46399488
    assert base.macs == 99975168
    assert base.macs > uni.macs


def test_total_macs_ratio_at_six_modalities():
    uni = costmodel.pipeline_cost("unified", 6).total_macs
    base = costmodel.pipeline_cost("baseline", 6).total_macs
    assert base / uni >= 1.9


def test_fuse_and_classify_identical_across_systems():
    for m in (1, 4, 6):
        uni = costmodel.pipeline_cost("unified", m)
        base = costmodel.pipeline_cost("baseline", m)
        assert uni.stages["fuse"].macs == base.stages["fuse"].macs
        assert uni.stages["classify"].macs == base.stages["classify"].macs
        assert uni.stages["preprocess"].macs == base.stages["preprocess"].macs


def test_pipeline_cost_monotone_in_m():
    for kind in ("unified", "baseline"):
        prev = None
        for m in range(1, 7):
            total = costmodel.pipeline_cost(kind, m).total_macs
            if prev is not None:
                assert total > prev
            prev = total


def test_seq_len_scales_per_window_stages():
    one = costmodel.pipeline_cost("unified", 2, seq_len=1)
    four = costmodel.pipeline_cost("unified", 2, seq_len=4)
    assert four.stages["encode"].macs == 4 * one.stages["encode"].macs
    assert four.stages["preprocess"].macs == 4 * one.stages["preprocess"].macs
    # the dense readout happens once per sequence either way
    out_one = next(r for r in one.stages["classify"].rows if r.name == "head.out")
    out_four = next(r for r in four.stages["classify"].rows if r.name == "head.out")
    assert out_one.macs == out_four.macs


def test_pipeline_cost_validates_arguments():
    with pytest.raises(UsageError):
        costmodel.pipeline_cost("hybrid", 2)
    with pytest.raises(UsageError):
        costmodel.pipeline_cost("unified", 0)
    with pytest.raises(UsageError):
        costmodel.pipeline_cost("unified", 2, modalities=["ECG"])


# ---------------------------------------------------------------------------
# Scaling table
# ---------------------------------------------------------------------------

def test_scaling_table_analytic_columns():
    rows = costmodel.scaling_table(m_values=(1, 2, 3))
    assert [r["m"] for r in rows] == [1, 2, 3]
    for row in rows:
        assert list(row) == ["m", "unified_macs", "baseline_macs", "unified_params",
                             "baseline_params", "unified_loads", "baseline_loads"]
        assert row["unified_loads"] == 1
        assert row["baseline_loads"] == row["m"]
        assert row["baseline_params"] == 70000 * row["m"]
        ref_u = costmodel.pipeline_cost("unified", row["m"]).total_macs
        assert row["unified_macs"] == ref_u
