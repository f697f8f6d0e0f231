"""Tests for latent fusion, the sequence classifier, and the metrics."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from latentfuse import fusion, synthetic
from latentfuse import nnkernel as nn
from latentfuse.errors import DataError, UsageError

from helpers import as_samples, auc_by_pairs, naive_conv


def random_latents(names, d=4, grid=8, seed=0):
    rs = np.random.default_rng(seed)
    return {name: rs.standard_normal((d, grid, grid)).astype(np.float32)
            for name in names}


# ---------------------------------------------------------------------------
# fuse / unfuse
# ---------------------------------------------------------------------------

def test_fuse_concatenates_in_order():
    lat = random_latents(["ECG", "EMG", "EDA"])
    fused = fusion.fuse(lat, ["ECG", "EMG", "EDA"])
    assert fused.tensor.shape == (12, 8, 8)
    assert fused.modality_order == ("ECG", "EMG", "EDA")
    assert np.array_equal(fused.tensor[0:4], lat["ECG"])
    assert np.array_equal(fused.tensor[4:8], lat["EMG"])
    assert np.array_equal(fused.tensor[8:12], lat["EDA"])


def test_fuse_order_matters():
    lat = random_latents(["ECG", "EMG"])
    a = fusion.fuse(lat, ["ECG", "EMG"])
    b = fusion.fuse(lat, ["EMG", "ECG"])
    assert not np.array_equal(a.tensor, b.tensor)
    assert np.array_equal(a.tensor[0:4], b.tensor[4:8])


def test_fuse_single_modality_is_identity():
    lat = random_latents(["ECG"])
    fused = fusion.fuse(lat, ["ECG"])
    assert np.array_equal(fused.tensor, lat["ECG"])


def test_unfuse_roundtrip_bitwise():
    rs = np.random.default_rng(2)
    for _ in range(20):
        m = int(rs.integers(1, 7))
        names = [f"M{i}" for i in range(m)]
        lat = random_latents(names, d=int(rs.integers(1, 6)), seed=int(rs.integers(1000)))
        back = fusion.unfuse(fusion.fuse(lat, names))
        assert set(back) == set(names)
        for name in names:
            assert np.array_equal(back[name], lat[name])


def test_fuse_validates_inputs():
    lat = random_latents(["ECG"])
    with pytest.raises(UsageError):
        fusion.fuse(lat, [])
    with pytest.raises(UsageError, match="EMG"):
        fusion.fuse(lat, ["ECG", "EMG"])
    bad = {"ECG": np.zeros((4, 8, 8), dtype=np.float32),
           "EMG": np.zeros((5, 8, 8), dtype=np.float32)}
    with pytest.raises(UsageError, match="mismatch"):
        fusion.fuse(bad, ["ECG", "EMG"])


# ---------------------------------------------------------------------------
# Classifier head
# ---------------------------------------------------------------------------

def test_build_head_is_seeded():
    a = fusion.build_head(8, grid=8, seed=3)
    b = fusion.build_head(8, grid=8, seed=3)
    for name in a.store.names():
        assert np.array_equal(a.store.values[name], b.store.values[name])
    c = fusion.build_head(8, grid=8, seed=4)
    assert any(not np.array_equal(a.store.values[n], c.store.values[n])
               for n in a.store.names())


def test_classify_returns_probability():
    head = fusion.build_head(4, grid=8, seed=0)
    sample = synthetic.make_separable_sequences(2, m=1, d=4, grid=8, seq_len=3)[0]
    p = fusion.classify(head, sample)
    assert 0.0 < p < 1.0


def test_classify_handles_length_one_sequences():
    head = fusion.build_head(4, grid=8, seed=0)
    sample = synthetic.make_separable_sequences(2, m=1, d=4, grid=8, seq_len=1)[0]
    p = fusion.classify(head, sample)
    assert 0.0 < p < 1.0


def test_forward_logits_batch_matches_single():
    head = fusion.build_head(4, grid=8, seed=1)
    data = synthetic.make_separable_sequences(6, m=1, d=4, grid=8, seq_len=2)
    batch_logits, _ = fusion.forward_logits(head, data)
    for i, sample in enumerate(data):
        one, _ = fusion.forward_logits(head, [sample])
        assert batch_logits[i] == pytest.approx(one[0], abs=1e-6)


def _reference_logits(head, x, flatten):
    """Logits of a (B, L, C, g, g) batch in float64: naive_conv and relu for
    the conv stack, flatten(features) into the cell, the cell equations,
    then the output layer."""
    p = {name: v.astype(np.float64) for name, v in head.store.values.items()}

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    h = np.zeros((x.shape[0], head.cell.hidden))
    for t in range(x.shape[1]):
        f = x[:, t].astype(np.float64)
        for c in ("head.c1", "head.c2"):
            f = np.maximum(naive_conv(f, p[f"{c}.w"], p[f"{c}.b"], 2, 1), 0.0)
        f = flatten(f)
        u = sig(f @ p["head.cell.wxu"].T + h @ p["head.cell.whu"].T + p["head.cell.bu"])
        r = sig(f @ p["head.cell.wxr"].T + h @ p["head.cell.whr"].T + p["head.cell.br"])
        c = np.tanh(f @ p["head.cell.wxc"].T + (r * h) @ p["head.cell.whc"].T
                    + p["head.cell.bc"])
        h = (1.0 - u) * h + u * c
    return (h @ p["head.out.w"].T + p["head.out.b"])[:, 0]


def test_forward_logits_match_a_float64_reference_that_flattens_c_h_w():
    # a saved head's cell weights read the conv features in C*H*W order
    head = fusion.build_head(8, grid=8, seed=3)
    for name, v in head.store.values.items():
        if name.rsplit(".", 1)[1].startswith("b"):  # nonzero biases
            v[...] = np.random.default_rng(len(name)).uniform(-0.2, 0.2, v.shape)
    data = synthetic.make_separable_sequences(4, m=2, d=4, grid=8, seq_len=3, seed=5)
    x = np.stack([np.stack([fl.tensor for fl in s.steps]) for s in data])
    logits, _ = fusion.forward_logits(head, data)
    want = _reference_logits(head, x, lambda f: f.reshape(f.shape[0], -1))
    assert np.allclose(logits, want, rtol=0, atol=1e-5)
    # the check has teeth: an H*W*C flatten moves the logits past it
    slip = _reference_logits(head, x, lambda f: f.transpose(0, 2, 3, 1).reshape(f.shape[0], -1))
    assert np.abs(slip - want).max() > 1e-3


def test_forward_logits_rejects_wrong_channels():
    head = fusion.build_head(4, grid=8, seed=0)
    with pytest.raises(UsageError, match="5 channels.* takes 4"):
        fusion.forward_logits(head, as_samples(np.zeros((1, 2, 5, 8, 8), dtype=np.float32)))


def test_step_order_changes_output():
    head, _ = fusion.train_classifier(
        synthetic.make_separable_sequences(8, m=1, d=4, grid=8, seq_len=3),
        fusion.ClassifierConfig(epochs=3, batch=4, seed=0))
    data = synthetic.make_separable_sequences(2, m=1, d=4, grid=8, seq_len=3,
                                              seed=9)
    sample = data[0]
    reordered = fusion.SequenceSample(sample.steps[::-1], sample.label)
    assert fusion.classify(head, sample) != fusion.classify(head, reordered)


def test_head_gradients_match_fd():
    """End-to-end BPTT check on a tiny head in float64."""
    head = fusion.build_head(2, grid=8, hidden=5, seed=2)
    store = nn.ParamStore()
    nn.init_params(head.conv, store, nn.seed_rng(2), dtype=np.float64)
    nn.init_params([head.cell, head.out], store, nn.seed_rng(3), dtype=np.float64)
    head.store = store
    rs = np.random.default_rng(4)
    x = as_samples(rs.standard_normal((2, 3, 2, 8, 8)))
    y = np.array([1.0, 0.0])

    def loss():
        logits, _ = fusion.forward_logits(head, x)
        val, _ = nn.bce_with_logits(logits, y)
        return val

    logits, caches = fusion.forward_logits(head, x)
    _, dlogits = nn.bce_with_logits(logits, y)
    store.zero_grads()
    fusion.backward_logits(head, caches, dlogits)

    from helpers import fd_param_error
    analytic = {name: store.grads[name].copy() for name in store.names()}
    # composite tolerance: the logit gradient is seeded through a float32
    # cast, so expect a few times 1e-5, not single-layer precision
    assert fd_param_error(loss, store, analytic, max_coords=20) < 1e-3


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_train_classifier_learns_separable_data():
    data = synthetic.make_separable_sequences(24, m=1, d=4, grid=8, seq_len=3,
                                              distance=6.0, seed=0)
    head, curve = fusion.train_classifier(
        data, fusion.ClassifierConfig(epochs=20, batch=8, seed=0))
    assert curve[-1].accuracy >= 0.95
    assert curve[-1].loss < curve[0].loss


def test_train_classifier_deterministic():
    data = synthetic.make_separable_sequences(8, m=1, d=4, grid=8, seq_len=2)
    cfg = fusion.ClassifierConfig(epochs=3, batch=4, seed=5)
    h1, c1 = fusion.train_classifier(data, cfg)
    h2, c2 = fusion.train_classifier(data, cfg)
    assert [(s.loss, s.accuracy) for s in c1] == [(s.loss, s.accuracy) for s in c2]
    for name in h1.store.names():
        assert np.array_equal(h1.store.values[name], h2.store.values[name])


def _in_fresh_thread(fn):
    """fn() on a new thread, which starts with no column stores."""
    with ThreadPoolExecutor(1) as fresh:
        return fresh.submit(fn).result(timeout=300)


def _trained_bytes(head, curve) -> list:
    return ([head.store.values[name].tobytes() for name in head.store.names()]
            + [(s.loss, s.accuracy) for s in curve])


@pytest.mark.parametrize("n", [1, 2])
def test_training_unfolds_head_c1_into_the_same_columns(runners, monkeypatch, n):
    # batches of 4, 4 and 2: after the first, every batch of both calls
    # unfolds step t's head.c1 into the leading images of one buffer
    runners(n)
    data = synthetic.make_separable_sequences(10, m=2, d=4, grid=8, seq_len=3, seed=1)
    cfg = fusion.ClassifierConfig(epochs=2, batch=4, seed=0)
    c1_cols = []  # kept alive, so a freed buffer's address is never reused
    unfold = nn._unfold

    def spy(x, xp, cols, k, s, p):
        if cols.shape[0] > 1 and cols.shape[2] == 9 * 8:  # head.c1 in training
            c1_cols.append(cols)
        unfold(x, xp, cols, k, s, p)

    monkeypatch.setattr(nn, "_unfold", spy)
    for _ in range(2):
        fusion.train_classifier(data, cfg)
    assert len(c1_cols) == 2 * 2 * 3 * 3  # calls, epochs, batches, steps
    assert [len(c) for c in c1_cols[:9]] == [4] * 6 + [2] * 3
    assert len({c.__array_interface__["data"][0] for c in c1_cols}) == 3


def test_heads_of_other_shapes_train_bitwise_as_in_a_fresh_thread():
    # 16 and 96 fused channels in turn on one thread, 21 sequences in
    # batches of 8: each run must match the same run on a fresh thread
    cfg = fusion.ClassifierConfig(epochs=2, batch=8, seed=1)
    sets = [synthetic.make_separable_sequences(21, m=m, d=16, grid=16, seq_len=3, seed=9)
            for m in (1, 6)]
    want = [_in_fresh_thread(lambda d=d: _trained_bytes(*fusion.train_classifier(d, cfg)))
            for d in sets]
    got = _in_fresh_thread(lambda: [_trained_bytes(*fusion.train_classifier(d, cfg))
                                    for d in sets + sets])
    assert got == want + want


def test_column_stores_are_dropped_above_the_arena_limit(monkeypatch):
    data = synthetic.make_separable_sequences(8, m=1, d=4, grid=8, seq_len=2)
    cfg = fusion.ClassifierConfig(epochs=1, batch=4)

    def stores_after_training():
        fusion.train_classifier(data, cfg)
        return fusion._thread.columns

    kept = _in_fresh_thread(stores_after_training)
    assert [sorted(s) for s in kept] == [["head.c1", "head.c2"]] * 2
    held = sum(c.nbytes for s in kept for c in s.values())
    monkeypatch.setattr(nn, "ARENA_LIMIT", held - 1)
    assert _in_fresh_thread(stores_after_training) is None


def test_forward_logits_caches_survive_a_later_call():
    head = fusion.build_head(8, grid=8, seed=0)
    a = synthetic.make_separable_sequences(4, m=2, d=4, grid=8, seq_len=3, seed=2)
    b = synthetic.make_separable_sequences(4, m=2, d=4, grid=8, seq_len=3, seed=3)
    grad = np.linspace(-1.0, 1.0, 4).astype(np.float32)

    def grads(interleave: bool) -> list[bytes]:
        _, caches = fusion.forward_logits(head, a)
        if interleave:
            fusion.forward_logits(head, b)
        fusion.backward_logits(head, caches, grad)
        out = [head.store.grads[name].tobytes() for name in head.store.names()]
        head.store.zero_grads()
        return out

    assert grads(interleave=True) == grads(interleave=False)


def test_train_classifier_zero_epochs_keeps_init():
    data = synthetic.make_separable_sequences(4, m=1, d=4, grid=8, seq_len=2)
    head, curve = fusion.train_classifier(
        data, fusion.ClassifierConfig(epochs=0, seed=7))
    assert curve == []
    ref = fusion.build_head(4, grid=8, seed=7)
    for name in ref.store.names():
        assert np.array_equal(head.store.values[name], ref.store.values[name])


def test_train_classifier_rejects_single_class():
    data = synthetic.make_separable_sequences(4, m=1, d=4, grid=8, seq_len=2)
    ones = [fusion.SequenceSample(s.steps, 1) for s in data]
    with pytest.raises(UsageError, match="both classes"):
        fusion.train_classifier(ones)
    with pytest.raises(UsageError):
        fusion.train_classifier([])


@pytest.mark.parametrize("batch", [0, -1])
def test_train_classifier_rejects_batch_below_one(batch):
    data = synthetic.make_separable_sequences(4, m=1, d=4, grid=8, seq_len=2)
    with pytest.raises(UsageError, match="batch"):
        fusion.train_classifier(data, fusion.ClassifierConfig(epochs=1, batch=batch))


@pytest.mark.parametrize("batch", [0, -1])
def test_predict_scores_rejects_batch_below_one(batch):
    head = fusion.build_head(4, grid=8, seed=0)
    data = synthetic.make_separable_sequences(2, m=1, d=4, grid=8, seq_len=2)
    with pytest.raises(UsageError, match="batch"):
        fusion.predict_scores(head, data, batch=batch)


def test_predict_scores_rejects_an_empty_dataset():
    head = fusion.build_head(4, grid=8, seed=0)
    with pytest.raises(UsageError, match="empty"):
        fusion.predict_scores(head, [])


def test_a_batch_is_checked_before_any_step_runs(monkeypatch):
    head = fusion.build_head(8, grid=8, seed=0)
    data = synthetic.make_separable_sequences(3, m=2, d=4, grid=8, seq_len=3, seed=6)
    ran = []
    monkeypatch.setattr(nn, "stack_forward", lambda *a: ran.append(a))
    monkeypatch.setattr(nn, "stack_infer", lambda *a: ran.append(a))
    odd = fusion.SequenceSample(data[0].steps[:2] + [fusion.FusedLatent(
        np.zeros((4, 8, 8), dtype=np.float32), ("ECG",))], 0)
    for score in (lambda b: fusion.forward_logits(head, b),
                  lambda b: fusion.predict_scores(head, b)):
        with pytest.raises(UsageError, match="shape"):
            score([data[1], odd])
        with pytest.raises(UsageError, match="length"):
            score([data[1], fusion.SequenceSample(data[0].steps[:2], 0)])
        with pytest.raises(UsageError, match="step"):
            score([fusion.SequenceSample([], 0)])
        with pytest.raises(UsageError, match="12 channels.* takes 8"):
            score(synthetic.make_separable_sequences(2, m=3, d=4, grid=8, seq_len=3))
    assert ran == []


def test_each_step_is_gathered_in_the_heads_dtype_and_memory_order(runners, monkeypatch):
    runners(1)  # the steps run in order
    head = fusion.build_head(8, grid=8, seed=0)
    data = synthetic.make_separable_sequences(3, m=2, d=4, grid=8, seq_len=3, seed=6)
    # float64 and channels-last, the memory order fuse() gives codebook rows
    for s in data:
        s.steps = [fusion.FusedLatent(np.ascontiguousarray(
            fl.tensor.transpose(1, 2, 0), dtype=np.float64).transpose(2, 0, 1), ())
            for fl in s.steps]
    seen = []
    stack_forward = nn.stack_forward
    monkeypatch.setattr(nn, "stack_forward",
                        lambda d, st, x, columns=None:
                        seen.append(x) or stack_forward(d, st, x, columns))
    fusion.forward_logits(head, data)
    want = np.stack([np.stack([s.steps[t].tensor for s in data]) for t in range(3)])
    assert [x.dtype for x in seen] == [np.float32] * 3
    assert b"".join(x.tobytes() for x in seen) == want.astype(np.float32).tobytes()
    assert all(x.strides[1] == x.itemsize for x in seen)


@pytest.mark.parametrize("n", [1, 2])
def test_scoring_holds_no_whole_batch(runners, n):
    # each map item gathers its own step batch, and it is dead once head.c1
    # has unfolded it: at most one step batch per runner is alive
    runners(n)
    head = fusion.build_head(16, grid=16, seed=0)
    data = synthetic.make_separable_sequences(32, m=1, d=16, grid=16, seq_len=8)
    whole = 32 * 8 * 16 * 16 * 16 * 4  # one (B, L, C, g, g) float32 batch
    for _ in range(2):
        fusion.predict_scores(head, data)  # warms each runner's arena
    tracemalloc.start()
    try:
        fusion.predict_scores(head, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 2


def test_training_curve_csv(tmp_path):
    curve = [fusion.EpochStats(0.7, 0.5), fusion.EpochStats(0.5, 0.75)]
    path = tmp_path / "curve.csv"
    fusion.write_training_curve(str(path), curve)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert lines[2].startswith("1,0.5,")


@pytest.mark.parametrize("grid", [8, 10])
def test_head_roundtrip_scores_bitwise(tmp_path, grid):
    data = synthetic.make_separable_sequences(8, m=2, d=4, grid=grid, seq_len=2,
                                              order=("ECG", "EMG"))
    head, _ = fusion.train_classifier(data, fusion.ClassifierConfig(epochs=2,
                                                                    batch=4))
    path = str(tmp_path / "head.lsfw")
    fusion.save_head(head, path)
    loaded = fusion.load_head(path)
    assert loaded.conv[0].in_channels == head.conv[0].in_channels
    assert loaded.cell.in_features == head.cell.in_features
    a = fusion.predict_scores(head, data)
    b = fusion.predict_scores(loaded, data)
    assert np.array_equal(a, b)


def test_load_head_rejects_incomplete_file(tmp_path):
    from latentfuse.vqvae import write_tensors
    path = str(tmp_path / "bad.lsfw")
    write_tensors(path, {"head.c1.w": np.zeros((16, 4, 3, 3), dtype=np.float32)})
    with pytest.raises(DataError):
        fusion.load_head(path)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_confusion_counts_hand_example():
    scores = np.array([0.9, 0.8, 0.3, 0.7, 0.2, 0.1])
    labels = np.array([1, 1, 1, 0, 0, 0])
    m = fusion.metrics_from_scores(scores, labels, threshold=0.5)
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 2)
    assert m.accuracy == pytest.approx(4 / 6)
    assert m.f1 == pytest.approx(2 / 3)


def test_f1_zero_when_nothing_predicted_positive():
    m = fusion.metrics_from_scores(np.array([0.1, 0.2]), np.array([1, 0]))
    assert m.f1 == 0.0
    assert m.tp == 0


def test_auc_perfect_and_reversed():
    labels = np.array([1, 1, 0, 0])
    assert fusion.auc_score(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 1.0
    assert fusion.auc_score(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 0.0


def test_auc_all_tied_is_half():
    assert fusion.auc_score(np.full(6, 0.5),
                            np.array([1, 0, 1, 0, 1, 0])) == pytest.approx(0.5)


def test_auc_single_class_is_none():
    assert fusion.auc_score(np.array([0.5, 0.6]), np.array([1, 1])) is None
    assert fusion.auc_score(np.array([0.5]), np.array([0])) is None


def test_auc_matches_pair_counting():
    rs = np.random.default_rng(5)
    for _ in range(100):
        n = int(rs.integers(2, 30))
        labels = rs.integers(0, 2, size=n)
        # quantized scores force plenty of ties
        scores = np.round(rs.uniform(size=n), 1)
        ref = auc_by_pairs(scores, labels)
        got = fusion.auc_score(scores, labels)
        if ref is None:
            assert got is None
        else:
            assert got == pytest.approx(ref, abs=1e-12)


def test_mean_ranks_tie_handling():
    ranks = fusion._mean_ranks(np.array([0.3, 0.1, 0.3, 0.9]))
    assert ranks.tolist() == [2.5, 1.0, 2.5, 4.0]


def test_evaluate_on_trained_head():
    data = synthetic.make_separable_sequences(24, m=1, d=4, grid=8, seq_len=3,
                                              distance=6.0, seed=1)
    head, _ = fusion.train_classifier(
        data, fusion.ClassifierConfig(epochs=20, batch=8, seed=1))
    m = fusion.evaluate(head, data)
    assert m.accuracy >= 0.95
    assert m.auc is not None and m.auc >= 0.95
    assert m.tp + m.fp + m.tn + m.fn == len(data)
    with pytest.raises(UsageError):
        fusion.evaluate(head, [])


def test_metrics_json_fields():
    import json
    m = fusion.metrics_from_scores(np.array([0.9, 0.1]), np.array([1, 0]))
    payload = json.loads(m.to_json())
    assert set(payload) == {"accuracy", "f1", "auc", "tp", "fp", "tn", "fn"}
    assert payload["accuracy"] == 1.0
