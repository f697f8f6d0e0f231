"""Tests for the numpy layer kernel: RNG, shapes, gradients, optimizer."""

from itertools import product

import numpy as np
import pytest

from latentfuse import nnkernel as nn
from latentfuse.errors import NumericError, UsageError

from helpers import (channels_last, col2im_by_loops, fd_param_error, fd_array_error,
                     im2col_by_loops, naive_conv)


# ---------------------------------------------------------------------------
# Counter-based RNG
# ---------------------------------------------------------------------------

def test_rng_known_first_output():
    # Reference value for the mix function at seed 0, first position.
    rng = nn.seed_rng(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF


def test_rng_streams_are_deterministic():
    a = nn.seed_rng(1234)
    b = nn.seed_rng(1234)
    assert np.array_equal(a.uniform(1000), b.uniform(1000))
    assert np.array_equal(a.shuffle(257), b.shuffle(257))


def test_rng_vectorized_matches_scalar_draws():
    """A block of draws must equal the same positions drawn one at a time."""
    block = nn.seed_rng(99)._raw(64)
    scalar = nn.seed_rng(99)
    singles = np.array([scalar.next_u64() for _ in range(64)], dtype=np.uint64)
    assert np.array_equal(block, singles)


def test_rng_uniform_range():
    rng = nn.seed_rng(7)
    u = rng.uniform(50000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_rng_shuffle_is_a_permutation():
    for seed in range(5):
        perm = nn.seed_rng(seed).shuffle(101)
        assert np.array_equal(np.sort(perm), np.arange(101))


def test_rng_shuffle_covers_small_permutations():
    # All 6 orderings of 3 elements should show up over enough seeds.
    seen = set()
    for seed in range(200):
        seen.add(tuple(nn.seed_rng(seed).shuffle(3).tolist()))
    assert len(seen) == 6


def test_rng_integers_bound():
    vals = nn.seed_rng(3).integers(17, 5000)
    assert vals.min() >= 0 and vals.max() < 17


# ---------------------------------------------------------------------------
# Shape algebra
# ---------------------------------------------------------------------------

def test_conv_shape_formula():
    d = nn.conv2d("c", 3, 32, 4, s=2, p=1)
    assert nn.out_shape(d, (3, 128, 128)) == (32, 64, 64)
    d2 = nn.conv2d("c", 3, 8, 3, s=2, p=1)
    assert nn.out_shape(d2, (3, 32, 32)) == (8, 16, 16)


def test_conv_transpose_inverts_stride2_conv_shapes():
    down = nn.conv2d("d", 16, 32, 4, s=2, p=1)
    up = nn.conv_transpose2d("u", 32, 16, 4, s=2, p=1)
    for size in (8, 16, 64, 128):
        mid = nn.out_shape(down, (16, size, size))
        assert nn.out_shape(up, mid) == (16, size, size)


def test_stack_out_shape_composes():
    descs = [
        nn.conv2d("a", 3, 8, 4, s=2, p=1),
        nn.relu(),
        nn.conv2d("b", 8, 4, 4, s=2, p=1),
        nn.residual_block("r", 4),
    ]
    assert nn.stack_out_shape(descs, (3, 64, 64)) == (4, 16, 16)


def test_out_shape_rejects_incompatible_inputs():
    with pytest.raises(UsageError):
        nn.out_shape(nn.conv2d("c", 3, 8, 3), (4, 64, 64))
    with pytest.raises(UsageError):
        nn.out_shape(nn.dense("d", 10, 4), (2, 10))
    with pytest.raises(UsageError):
        nn.out_shape(nn.conv2d("c", 3, 8, 5), (3, 4, 4))


# ---------------------------------------------------------------------------
# Parameter registration and init
# ---------------------------------------------------------------------------

def test_param_counts():
    assert nn.param_count(nn.conv2d("c", 3, 32, 4)) == 32 * 3 * 16 + 32
    assert nn.param_count(nn.dense("d", 64, 1)) == 64 + 1
    assert nn.param_count(nn.relu()) == 0
    rb = nn.residual_block("r", 16)
    assert nn.param_count(rb) == 2 * (16 * 16 * 9 + 16)
    cell = nn.recurrent_cell("g", 256, 64)
    assert nn.param_count(cell) == 3 * (256 * 64 + 64 * 64 + 64)


def test_param_registration_order_for_cell():
    cell = nn.recurrent_cell("g", 8, 4)
    names = [f"{cell.name}.{suffix}" for suffix, _, _ in nn.param_specs(cell)]
    assert names == ["g.wxu", "g.whu", "g.bu", "g.wxr", "g.whr", "g.br",
                     "g.wxc", "g.whc", "g.bc"]


def test_init_bounds_and_bias_zero():
    store = nn.ParamStore()
    descs = [nn.conv2d("c", 3, 8, 3), nn.dense("d", 20, 5)]
    nn.init_params(descs, store, nn.seed_rng(0))
    s_conv = np.sqrt(1.0 / (3 * 9))
    w = store.values["c.w"]
    assert w.dtype == np.float32
    assert np.all(np.abs(w) <= s_conv)
    assert np.all(store.values["c.b"] == 0.0)
    s_dense = np.sqrt(1.0 / 20)
    assert np.all(np.abs(store.values["d.w"]) <= s_dense)


def test_init_deterministic_and_dtype():
    descs = [nn.dense("d", 6, 3)]
    a, b = nn.ParamStore(), nn.ParamStore()
    nn.init_params(descs, a, nn.seed_rng(11))
    nn.init_params(descs, b, nn.seed_rng(11))
    assert np.array_equal(a.values["d.w"], b.values["d.w"])
    c = nn.ParamStore()
    nn.init_params(descs, c, nn.seed_rng(11), dtype=np.float64)
    assert c.values["d.w"].dtype == np.float64


def test_store_rejects_duplicates_and_shape_mismatch():
    store = nn.ParamStore()
    store.add("p", np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(UsageError):
        store.add("p", np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(UsageError):
        store.accumulate("p", np.zeros(3, dtype=np.float32))


# ---------------------------------------------------------------------------
# Forward oracles (definitions recomputed by explicit loops)
# ---------------------------------------------------------------------------

def test_conv_forward_matches_naive_loops():
    rs = np.random.default_rng(0)
    # 3- and 16-channel inputs, each also given in channels-last memory
    for s, p, shape in [(1, 0, (2, 3, 7, 9)), (1, 1, (2, 3, 7, 9)),
                        (2, 1, (2, 3, 7, 9)), (2, 0, (2, 3, 7, 9)),
                        (2, 1, (2, 16, 6, 6)), (1, 1, (2, 16, 4, 4))]:
        desc = nn.conv2d("c", shape[1], 4, 3, s=s, p=p)
        store = nn.ParamStore()
        nn.init_params([desc], store, nn.seed_rng(1), dtype=np.float64)
        x = rs.standard_normal(shape)
        ref = naive_conv(x, store.values["c.w"], store.values["c.b"], s, p)
        for given in (x, channels_last(x)):
            y, _ = nn.forward(desc, store, given)
            assert np.allclose(y, ref, atol=1e-12)


def test_conv_transpose_is_adjoint_of_conv():
    """<conv(x), y> == <x, convT(y)> when the two share a weight tensor."""
    rs = np.random.default_rng(2)
    conv = nn.conv2d("c", 5, 3, 3, s=2, p=1)
    tconv = nn.conv_transpose2d("t", 3, 5, 3, s=2, p=1)
    store = nn.ParamStore()
    nn.init_params([conv], store, nn.seed_rng(0), dtype=np.float64)
    store.add("t.w", store.values["c.w"].copy())
    store.add("t.b", np.zeros(5))
    store.values["c.b"][:] = 0.0
    for _ in range(5):
        x = rs.standard_normal((2, 5, 9, 9))
        y = rs.standard_normal((2,) + nn.out_shape(conv, x.shape[1:]))
        fwd, _ = nn.forward(conv, store, x)
        adj, _ = nn.forward(tconv, store, y)
        assert abs(np.sum(fwd * y) - np.sum(x * adj)) < 1e-9


def test_dense_forward_matches_matmul():
    desc = nn.dense("d", 6, 4)
    store = nn.ParamStore()
    nn.init_params([desc], store, nn.seed_rng(5), dtype=np.float64)
    x = np.random.default_rng(1).standard_normal((3, 6))
    y, _ = nn.forward(desc, store, x)
    ref = x @ store.values["d.w"].T + store.values["d.b"]
    assert np.allclose(y, ref, atol=1e-14)


def test_relu_and_sigmoid_values():
    x = np.array([[-2.0, 0.0, 3.0, -700.0, 700.0]])
    y, _ = nn.forward(nn.relu(), nn.ParamStore(), x)
    assert np.array_equal(y, [[0.0, 0.0, 3.0, 0.0, 700.0]])
    s, _ = nn.forward(nn.sigmoid(), nn.ParamStore(), x)
    assert np.all(np.isfinite(s))
    assert abs(s[0, 1] - 0.5) < 1e-15
    assert s[0, 3] >= 0.0 and s[0, 4] <= 1.0


def test_residual_block_composition():
    desc = nn.residual_block("r", 4)
    store = nn.ParamStore()
    nn.init_params([desc], store, nn.seed_rng(2), dtype=np.float64)
    x = np.random.default_rng(3).standard_normal((2, 4, 6, 6))
    y, _ = nn.forward(desc, store, x)
    h = x
    for inner in desc.inner:
        h, _ = nn.forward(inner, store, h)
    assert np.allclose(y, x + h, atol=1e-12)


def test_recurrent_cell_matches_gate_equations():
    desc = nn.recurrent_cell("g", 5, 3)
    store = nn.ParamStore()
    nn.init_params([desc], store, nn.seed_rng(4), dtype=np.float64)
    rs = np.random.default_rng(8)
    x = rs.standard_normal((2, 5))
    h = rs.standard_normal((2, 3))
    out, _ = nn.forward(desc, store, (x, h))
    p = store.values

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    u = sig(x @ p["g.wxu"].T + h @ p["g.whu"].T + p["g.bu"])
    r = sig(x @ p["g.wxr"].T + h @ p["g.whr"].T + p["g.br"])
    c = np.tanh(x @ p["g.wxc"].T + (r * h) @ p["g.whc"].T + p["g.bc"])
    ref = (1.0 - u) * h + u * c
    assert np.allclose(out, ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Gradient checks against central finite differences
# ---------------------------------------------------------------------------

def weighted_sum_loss(desc, store, x, coef):
    """Scalar objective sum(forward(x) * coef) with fixed weighting."""
    y, _ = nn.forward(desc, store, x)
    return float(np.sum(y * coef))


def run_fd_check(desc, x_shape, seed, tol=1e-5):
    store = nn.ParamStore()
    nn.init_params([desc], store, nn.seed_rng(seed), dtype=np.float64)
    rs = np.random.default_rng(seed + 100)
    x = rs.standard_normal(x_shape)
    y, cache = nn.forward(desc, store, x)
    coef = rs.standard_normal(y.shape)
    store.zero_grads()
    gx = nn.backward(desc, store, cache, coef)
    analytic = {name: store.grads[name].copy() for name in store.names()}

    def loss():
        return weighted_sum_loss(desc, store, x, coef)

    if analytic:
        assert fd_param_error(loss, store, analytic, seed=seed) < tol
    assert fd_array_error(loss, x, gx, seed=seed) < tol


def test_conv_gradients():
    for seed in range(3):
        run_fd_check(nn.conv2d("c", 3, 4, 3, s=2, p=1), (2, 3, 9, 9), seed)
        # channels-last: 9 output pixels for 16 channels, and 16 for 16
        run_fd_check(nn.conv2d("c", 16, 4, 3, s=2, p=1), (2, 16, 6, 6), seed)
        run_fd_check(nn.conv2d("c", 16, 4, 3, s=1, p=1), (2, 16, 4, 4), seed)


def test_conv_transpose_gradients():
    for seed in range(3):
        run_fd_check(nn.conv_transpose2d("t", 4, 3, 4, s=2, p=1), (2, 4, 5, 5), seed)


def test_dense_gradients():
    for seed in range(3):
        run_fd_check(nn.dense("d", 7, 4), (3, 7), seed)


def test_relu_gradients():
    # Keep inputs away from the kink so FD is well defined.
    desc = nn.relu()
    store = nn.ParamStore()
    rs = np.random.default_rng(0)
    x = rs.standard_normal((4, 6))
    x[np.abs(x) < 1e-2] = 0.5
    y, cache = nn.forward(desc, store, x)
    coef = rs.standard_normal(y.shape)
    gx = nn.backward(desc, store, cache, coef)
    assert fd_array_error(lambda: weighted_sum_loss(desc, store, x, coef), x, gx) < 1e-6


def test_sigmoid_gradients():
    desc = nn.sigmoid()
    store = nn.ParamStore()
    rs = np.random.default_rng(1)
    x = rs.standard_normal((4, 6))
    y, cache = nn.forward(desc, store, x)
    coef = rs.standard_normal(y.shape)
    gx = nn.backward(desc, store, cache, coef)
    assert fd_array_error(lambda: weighted_sum_loss(desc, store, x, coef), x, gx) < 1e-6


def test_residual_gradients():
    for seed in range(3):
        run_fd_check(nn.residual_block("r", 3), (2, 3, 5, 5), seed)


def test_recurrent_cell_gradients():
    """Check dL/dx, dL/dh and all nine parameter gradients."""
    for seed in range(3):
        desc = nn.recurrent_cell("g", 5, 4)
        store = nn.ParamStore()
        nn.init_params([desc], store, nn.seed_rng(seed), dtype=np.float64)
        rs = np.random.default_rng(seed + 50)
        x = rs.standard_normal((3, 5))
        h = rs.standard_normal((3, 4))
        out, cache = nn.forward(desc, store, (x, h))
        coef = rs.standard_normal(out.shape)
        store.zero_grads()
        gx, gh = nn.backward(desc, store, cache, coef)
        analytic = {name: store.grads[name].copy() for name in store.names()}

        def loss():
            y, _ = nn.forward(desc, store, (x, h))
            return float(np.sum(y * coef))

        assert fd_param_error(loss, store, analytic, seed=seed) < 1e-5
        assert fd_array_error(loss, x, gx, seed=seed) < 1e-5
        assert fd_array_error(loss, h, gh, seed=seed) < 1e-5


def test_stack_backward_chains_layers():
    descs = [nn.conv2d("a", 2, 3, 3, s=1, p=1), nn.relu(),
             nn.conv2d("b", 3, 2, 3, s=2, p=1)]
    store = nn.ParamStore()
    nn.init_params(descs, store, nn.seed_rng(9), dtype=np.float64)
    rs = np.random.default_rng(9)
    x = rs.standard_normal((2, 2, 8, 8))
    y, caches = nn.stack_forward(descs, store, x)
    coef = rs.standard_normal(y.shape)
    store.zero_grads()
    gx = nn.stack_backward(descs, store, caches, coef)

    def loss():
        out, _ = nn.stack_forward(descs, store, x)
        return float(np.sum(out * coef))

    analytic = {name: store.grads[name].copy() for name in store.names()}
    assert fd_param_error(loss, store, analytic) < 1e-5
    assert fd_array_error(loss, x, gx) < 1e-5


@pytest.mark.parametrize("first", ["conv2d", "conv_transpose2d", "residual_block"])
def test_stack_backward_without_input_grad_keeps_param_grads_bitwise(first):
    lead = {"conv2d": nn.conv2d("a", 3, 6, 4, s=2, p=1),
            "conv_transpose2d": nn.conv_transpose2d("a", 3, 6, 4, s=2, p=1),
            "residual_block": nn.residual_block("a", 3)}[first]
    descs = [lead, nn.relu()]
    shape = nn.stack_out_shape(descs, (3, 8, 8))
    descs += [nn.conv2d("b", shape[0], 4, 3, s=2, p=1), nn.relu(),
              nn.residual_block("r", 4)]
    store = nn.ParamStore()
    nn.init_params(descs, store, nn.seed_rng(4))
    rs = np.random.default_rng(4)
    x = rs.standard_normal((8, 3, 8, 8)).astype(np.float32)
    y, caches = nn.stack_forward(descs, store, x)
    coef = rs.standard_normal(y.shape).astype(np.float32)
    gx = nn.stack_backward(descs, store, caches, coef)
    assert gx.shape == x.shape
    want = {name: g.copy() for name, g in store.grads.items()}
    store.zero_grads()
    assert nn.stack_backward(descs, store, caches, coef, need_grad_in=False) is None
    for name, g in store.grads.items():
        assert g.dtype == np.float32
        assert g.tobytes() == want[name].tobytes(), name


def _conv_stack(kind):
    lead = {"conv2d": nn.conv2d("a", 3, 4, 4, s=2, p=1),
            "conv_transpose2d": nn.conv_transpose2d("a", 3, 4, 4, s=2, p=1)}[kind]
    descs = [lead, nn.relu(), nn.residual_block("r", 4)]
    store = nn.ParamStore()
    nn.init_params(descs, store, nn.seed_rng(6))
    rs = np.random.default_rng(6)
    x = rs.standard_normal((5, 3, 8, 8)).astype(np.float32)
    coef = rs.standard_normal((5,) + nn.stack_out_shape(descs, (3, 8, 8))).astype(np.float32)
    return descs, store, x, coef


@pytest.mark.parametrize("kind", ["conv2d", "conv_transpose2d"])
def test_conv_backward_returns_with_every_gradient_in_the_store(runners, kind):
    """backward and stack_backward add the weight-gradient GEMMs they hand
    to pool workers before they return, and every output is bitwise one
    runner's."""
    descs, store, x, coef = _conv_stack(kind)
    got = {}
    for n in (1, 2, 3):
        runners(n)
        y, caches = nn.stack_forward(descs, store, x)
        store.zero_grads()
        gx = nn.stack_backward(descs, store, caches, coef)
        stack = {name: g.tobytes() for name, g in store.grads.items()}
        store.zero_grads()
        g_lead = nn.stack_backward(descs[1:], store, caches[1:], coef)
        g1 = nn.backward(descs[0], store, caches[0], g_lead)
        assert g1.tobytes() == gx.tobytes()
        assert {name: g.tobytes() for name, g in store.grads.items()} == stack
        got[n] = (y.tobytes(), gx.tobytes(), stack)
    assert got[2] == got[1]
    assert got[3] == got[1]


def test_backward_that_raises_leaves_one_runners_gradients(runners, monkeypatch):
    """A conv whose input gradient raises still adds its weight gradient,
    whether the GEMM ran inline or on a pool worker, and the next backward
    is the clean one."""
    descs = [nn.conv2d("a", 3, 4, 3, s=1, p=1), nn.relu(), nn.conv2d("b", 4, 4, 3, s=1, p=1)]
    store = nn.ParamStore()
    nn.init_params(descs, store, nn.seed_rng(2))
    rs = np.random.default_rng(2)
    x = rs.standard_normal((4, 3, 8, 8)).astype(np.float32)
    y, caches = nn.stack_forward(descs, store, x)
    coef = rs.standard_normal(y.shape).astype(np.float32)
    store.zero_grads()
    want_gx = nn.stack_backward(descs, store, caches, coef)
    want = {name: g.tobytes() for name, g in store.grads.items()}

    def broken_adjoint(*args):
        raise RuntimeError("adjoint failed")

    got = {}
    for n in (1, 2, 3):
        runners(n)
        store.zero_grads()
        with monkeypatch.context() as m, pytest.raises(RuntimeError, match="adjoint failed"):
            m.setattr(nn, "_conv_adjoint", broken_adjoint)
            nn.stack_backward(descs, store, caches, coef)
        got[n] = {name: g.tobytes() for name, g in store.grads.items()}
        assert store.grads["b.w"].any() and store.grads["b.b"].any()
        assert not store.grads["a.w"].any()

        store.zero_grads()
        assert nn.stack_backward(descs, store, caches, coef).tobytes() == want_gx.tobytes()
        assert {name: g.tobytes() for name, g in store.grads.items()} == want
    assert got[2] == got[1]
    assert got[3] == got[1]


# ---------------------------------------------------------------------------
# Optimizer and losses
# ---------------------------------------------------------------------------

def test_adam_single_step_reference_value():
    # One step at lr=0.1 from w=0 with g=1: bias correction makes both
    # moment estimates 1, so the update is lr / (1 + eps).
    store = nn.ParamStore()
    store.add("w", np.zeros(1, dtype=np.float64))
    store.accumulate("w", np.ones(1))
    nn.adam_step(store, lr=0.1, t=1)
    assert abs(store.values["w"][0] - (-0.1 / (1.0 + 1e-8))) < 1e-15
    assert store.grads["w"][0] == 0.0


def test_adam_two_steps_match_hand_rollout():
    store = nn.ParamStore()
    store.add("w", np.array([0.5], dtype=np.float64))
    m = v = 0.0
    w = 0.5
    for t in (1, 2):
        g = float(w)  # gradient of 0.5*w^2
        store.accumulate("w", np.array([g]))
        nn.adam_step(store, lr=0.01, t=t)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert abs(store.values["w"][0] - w) < 1e-14


def test_adam_rejects_nonfinite_gradient():
    store = nn.ParamStore()
    store.add("layer.w", np.zeros(2, dtype=np.float64))
    store.accumulate("layer.w", np.array([1.0, np.nan]))
    with pytest.raises(NumericError, match="layer.w"):
        nn.adam_step(store, lr=0.1, t=1)


def test_bce_with_logits_matches_direct_formula():
    rs = np.random.default_rng(6)
    z = rs.standard_normal(40)
    y = (rs.uniform(size=40) > 0.5).astype(np.float64)
    loss, grad = nn.bce_with_logits(z, y)
    p = 1.0 / (1.0 + np.exp(-z))
    ref = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert abs(loss - ref) < 1e-12
    assert np.allclose(grad, (p - y) / 40, atol=1e-12)


def test_bce_with_logits_stable_at_extreme_logits():
    loss, grad = nn.bce_with_logits(np.array([1000.0, -1000.0]),
                                    np.array([1.0, 0.0]))
    assert np.isfinite(loss) and loss < 1e-6
    assert np.all(np.isfinite(grad))


# (kernel, stride, padding) of every conv the encoder, the decoder backward,
# the baseline extractors and the head unfold, from 3 to 70 channels; each
# input is also given in channels-last memory. The columns are the ones a
# training conv2d forward caches for its backward.
@pytest.mark.parametrize("k,s,p", [(4, 2, 1), (3, 1, 1), (3, 2, 1)])
@pytest.mark.parametrize("n,c", [(1, 3), (8, 3), (8, 5), (2, 70)])
def test_im2col_matches_patch_loop_bitwise(k, s, p, n, c):
    rs = np.random.default_rng(k * 100 + s * 10 + n + c)
    desc = nn.conv2d("c", c, 2, k, s, p)
    for dtype in (np.float32, np.float64):
        x = rs.normal(size=(n, c, 10, 7)).astype(dtype)
        store = nn.ParamStore()
        store.add("c.w", np.zeros((2, c, k, k), dtype))
        store.add("c.b", np.zeros(2, dtype))
        want, _, _ = im2col_by_loops(x, k, s, p, channels_last=True)
        for given in (x, channels_last(x)):
            _, cache = nn.forward(desc, store, given)
            cols = cache[1].transpose(0, 2, 1)
            assert cols.shape == want.shape and cols.dtype == want.dtype
            assert cols.tobytes() == np.ascontiguousarray(want).tobytes()


def conv_pair(a: int, b: int, k: int, s: int, p: int, w: np.ndarray
              ) -> tuple[nn.LayerDescriptor, nn.LayerDescriptor, nn.ParamStore]:
    """A conv2d b -> a and the conv_transpose2d a -> b that share weight w
    (a, b, k, k), with zero biases."""
    conv = nn.conv2d("c", b, a, k, s, p)
    tconv = nn.conv_transpose2d("t", a, b, k, s, p)
    store = nn.ParamStore()
    store.add("c.w", w)
    store.add("c.b", np.zeros(a, w.dtype))
    store.add("t.w", w)
    store.add("t.b", np.zeros(b, w.dtype))
    return conv, tconv, store


# conv2d's input gradient and conv_transpose2d's forward are one operator,
# the adjoint of the conv: col2im(W.T @ g). It sums each pixel's taps in
# another order than the scatter loop, so the match is to a tolerance set
# from the dtype, in the training forward and backward and in the arena pass
@pytest.mark.parametrize("k,s,p", [(4, 2, 1), (3, 1, 1), (3, 2, 1)])
@pytest.mark.parametrize("n,c", [(1, 3), (8, 3), (8, 5)])
def test_conv_adjoint_matches_scatter_loop(k, s, p, n, c):
    rs = np.random.default_rng(k * 100 + s * 10 + n + c)
    shape = (n, c, 10, 7)
    ho, wo = (10 + 2 * p - k) // s + 1, (7 + 2 * p - k) // s + 1
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
        w = rs.normal(size=(4, c, k, k)).astype(dtype)
        g = rs.normal(size=(n, 4, ho, wo)).astype(dtype)
        cols = w.reshape(4, -1).T.astype(np.float64) @ g.reshape(n, 4, -1).astype(np.float64)
        conv, tconv, store = conv_pair(4, c, k, s, p, w)
        _, cache = nn.forward(conv, store, rs.normal(size=shape).astype(dtype))
        # conv_transpose2d's output drops the rows and columns past the last
        # stride step, which no tap of the conv reads
        tshape = (n, c, (ho - 1) * s - 2 * p + k, (wo - 1) * s - 2 * p + k)
        for name, gx, want_shape in [
                ("conv2d input gradient", nn.backward(conv, store, cache, g), shape),
                ("conv_transpose2d forward", nn.forward(tconv, store, g)[0], tshape),
                ("conv_transpose2d arena forward", nn.stack_infer([tconv], store, g), tshape)]:
            assert gx.shape == want_shape and gx.dtype == dtype, name
            want = col2im_by_loops(cols, want_shape, k, s, p)
            assert np.allclose(gx, want, atol=tol, rtol=tol), name


def test_conv_adjoint_grid_matches_scatter_loop():
    """Every (k, s, p) with k <= 5, s <= 3 and p < k on images of 1 to 8
    pixels a side, in float64: pixels that no tap reaches, taps that fall in
    the padding, kernels shorter than the stride. conv_transpose2d refuses
    an output size below 1 as out_shape does."""
    rs = np.random.default_rng(17)
    sizes = (1, 3, 5, 6, 7, 8)
    checked = refused = 0
    for k, s in product(range(1, 6), range(1, 4)):
        for p, h, wd in product(range(k), sizes, sizes):
            conv, tconv, store = conv_pair(4, 2, k, s, p, rs.normal(size=(4, 2, k, k)))
            try:
                _, ho, wo = nn.out_shape(conv, (2, h, wd))
            except UsageError:
                continue
            g = rs.normal(size=(1, 4, ho, wo))
            cols = store.values["c.w"].reshape(4, -1).T @ g.reshape(1, 4, -1)
            _, cache = nn.forward(conv, store, rs.normal(size=(1, 2, h, wd)))
            gx = nn.backward(conv, store, cache, g)
            assert np.allclose(gx, col2im_by_loops(cols, (1, 2, h, wd), k, s, p),
                               atol=1e-12, rtol=0), (k, s, p, h, wd)
            th, tw = (ho - 1) * s - 2 * p + k, (wo - 1) * s - 2 * p + k
            if th < 1 or tw < 1:
                for run in (lambda: nn.forward(tconv, store, g),
                            lambda: nn.stack_infer([tconv], store, g)):
                    with pytest.raises(UsageError, match="degenerate output"):
                        run()
                refused += 1
                continue
            y, _ = nn.forward(tconv, store, g)
            assert np.allclose(y, col2im_by_loops(cols, (1, 2, th, tw), k, s, p),
                               atol=1e-12, rtol=0), (k, s, p, h, wd)
            checked += 1
    assert (checked, refused) == (1280, 88)


def naive_conv_transpose(x: np.ndarray, w: np.ndarray, b: np.ndarray, s: int, p: int
                         ) -> np.ndarray:
    """Scatter every input pixel times every kernel tap onto its output
    pixel, dropping those that land in the cropped border."""
    n, cin, h, wid = x.shape
    _, cout, k, _ = w.shape
    ho, wo = (h - 1) * s - 2 * p + k, (wid - 1) * s - 2 * p + k
    out = np.zeros((n, cout, ho, wo)) + b[:, None, None]
    for bi, ci, co, i, j, ki, kj in product(range(n), range(cin), range(cout), range(h),
                                            range(wid), range(k), range(k)):
        y, xx = i * s + ki - p, j * s + kj - p
        if 0 <= y < ho and 0 <= xx < wo:
            out[bi, co, y, xx] += x[bi, ci, i, j] * w[ci, co, ki, kj]
    return out


def test_conv_transpose_forward_matches_naive_scatter():
    rs = np.random.default_rng(11)
    # the decoder's k4 s2 p1, a kernel the stride does not divide, a kernel
    # shorter than the stride, and a padding wider than the stride
    for k, s, p, shape in [(4, 2, 1, (2, 3, 5, 4)), (3, 2, 1, (2, 3, 4, 5)),
                           (2, 3, 0, (1, 2, 3, 3)), (5, 2, 3, (2, 2, 4, 6))]:
        desc = nn.conv_transpose2d("t", shape[1], 3, k, s, p)
        store = nn.ParamStore()
        nn.init_params([desc], store, nn.seed_rng(5), dtype=np.float64)
        store.values["t.b"][:] = rs.standard_normal(3)
        x = rs.standard_normal(shape)
        ref = naive_conv_transpose(x, store.values["t.w"], store.values["t.b"], s, p)
        y, _ = nn.forward(desc, store, x)
        assert y.shape == ref.shape and np.allclose(y, ref, atol=1e-12)
        assert np.allclose(nn.stack_infer([desc], store, x), ref, atol=1e-12)
