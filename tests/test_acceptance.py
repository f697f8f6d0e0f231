"""Ship-gate checks: ten numbered criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear
(without -s they show up in pytest's captured-output section on failure).
Heavy artifacts, the trained autoencoder and the encoded synthetic streams,
are built once in module fixtures and shared between criteria.
"""

import statistics

import numpy as np
import pytest

from latentfuse import baseline as baseline_mod
from latentfuse import costmodel, fusion, pipeline, synthetic, vqvae
from latentfuse import nnkernel as nn
from latentfuse.cli import LatentEntry, main, sequences_from_latents
from latentfuse.ingest import MultimodalStream, window_stream
from latentfuse.spectral import SpectralImage, spectral_image, stft

from helpers import auc_by_pairs, exhaustive_nearest, fd_array_error, fd_param_error


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_autoencoder():
    """64 synthetic images, a K=32 D=16 autoencoder trained 500 steps."""
    images = synthetic.make_images(64, seed=0)
    cfg = vqvae.VqVaeConfig(codebook_size=32, embed_dim=16, steps=500,
                            batch=8, seed=0)
    model, curve = vqvae.train_vqvae(images, cfg)
    return images, model, curve


def _dataset_recon_mse(model, images) -> float:
    total = 0.0
    for i in range(images.shape[0]):
        code = vqvae.encode_image(model, SpectralImage(images[i], ("", 0)))
        x_hat = vqvae.decode(model, code.quantized)
        diff = images[i].astype(np.float64) - x_hat.astype(np.float64)
        total += float(np.mean(diff ** 2))
    return total / images.shape[0]


ALL_MODALITIES = pipeline.PERMUTATIONS[6] + ("Noise",)


@pytest.fixture(scope="module")
def encoded_streams(trained_autoencoder):
    """Two labeled synthetic streams encoded per modality, noise included."""
    _, model, _ = trained_autoencoder

    def entries_for(seed):
        stream = synthetic.make_stream(n_samples=8192, seed=seed,
                                       include_noise=True)
        stream = pipeline.derive_acc_magnitude(stream)
        sub = MultimodalStream({m: stream.channels[m] for m in ALL_MODALITIES},
                               labels=stream.labels)
        per = window_stream(sub, 128, 96)
        entries = []
        for m in ALL_MODALITIES:
            for w in per[m]:
                code = vqvae.encode_image(model, spectral_image(w))
                entries.append(LatentEntry(m, w.start_index, w.label,
                                           code.indices))
        return entries

    return entries_for(10), entries_for(11)


# ---------------------------------------------------------------------------
# 1. Encoder-count scaling
# ---------------------------------------------------------------------------

def test_acceptance_01_encoder_count_scaling():
    model = vqvae.build_model(128, 16, seed=0)
    unified = pipeline.UnifiedSystem(model)
    encoders = {}
    for i, name in enumerate(pipeline.PERMUTATIONS[6]):
        encoders[name] = baseline_mod.splice(
            baseline_mod.build_encoder(name, 16, seed=i))
    base = baseline_mod.BaselineSystem(encoders, head=None)

    single = costmodel.pipeline_cost("baseline", 1).stages["encode"].params
    unified_params = set()
    problems = []
    for m, mods in sorted(pipeline.PERMUTATIONS.items()):
        uc = costmodel.pipeline_cost("unified", m)
        bc = costmodel.pipeline_cost("baseline", m)
        unified_params.add(uc.stages["encode"].params)
        if uc.encoder_loads != 1:
            problems.append(f"unified loads at m={m}: {uc.encoder_loads}")
        if bc.encoder_loads != m:
            problems.append(f"baseline loads at m={m}: {bc.encoder_loads}")
        if pipeline.encoder_loads(unified, mods) != 1:
            problems.append(f"structural unified loads at m={m}")
        if pipeline.encoder_loads(base, mods) != m:
            problems.append(f"structural baseline loads at m={m}")
        if bc.stages["encode"].params != m * single:
            problems.append(f"baseline params at m={m}: "
                            f"{bc.stages['encode'].params} != {m}x{single}")
    if len(unified_params) != 1:
        problems.append(f"unified params vary: {sorted(unified_params)}")
    report(1, "encoder count scaling", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 2. Complexity trend
# ---------------------------------------------------------------------------

def test_acceptance_02_complexity_trend():
    ms = range(1, 7)
    uni = [costmodel.pipeline_cost("unified", m).total_macs for m in ms]
    base = [costmodel.pipeline_cost("baseline", m).total_macs for m in ms]
    d_uni = {b - a for a, b in zip(uni, uni[1:])}
    d_base = {b - a for a, b in zip(base, base[1:])}
    linear = len(d_uni) == 1 and len(d_base) == 1
    steeper = linear and d_base.pop() > d_uni.pop()
    ratio = base[-1] / uni[-1]
    ok = linear and steeper and ratio >= 1.9
    report(2, "complexity trend", ok,
           f"unified={uni} baseline={base} ratio_at_6={ratio:.4f}")


# ---------------------------------------------------------------------------
# 3. Runtime trend
# ---------------------------------------------------------------------------

def test_acceptance_03_runtime_trend():
    model = vqvae.build_model(128, 16, seed=0)
    unified = pipeline.UnifiedSystem(model)
    encoders = {}
    for i, name in enumerate(pipeline.PERMUTATIONS[6]):
        encoders[name] = baseline_mod.splice(
            baseline_mod.build_encoder(name, 16, seed=i))
    base = baseline_mod.BaselineSystem(encoders, head=None)

    cfg = pipeline.PipelineConfig()
    medians = {}
    for m in (1, 6):
        for label, system in (("unified", unified), ("baseline", base)):
            medians[(label, m)] = statistics.median(
                pipeline.encoding_runs(system, m, 10, cfg))
    gap1 = medians[("baseline", 1)] - medians[("unified", 1)]
    gap6 = medians[("baseline", 6)] - medians[("unified", 6)]
    ok = medians[("baseline", 6)] > medians[("unified", 6)] and gap6 > gap1
    report(3, "runtime trend", ok,
           f"medians={medians} gap1={gap1:.6f}s gap6={gap6:.6f}s")


# ---------------------------------------------------------------------------
# 4. STFT correctness
# ---------------------------------------------------------------------------

def test_acceptance_04_stft_correctness():
    rs = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        x = rs.normal(0, 1, 128)
        spec = stft(x, frame_len=64, hop=64, taper="rect")
        full = np.concatenate([spec.bins, np.conj(spec.bins[1:-1][::-1])],
                              axis=0)
        for t in range(full.shape[1]):
            frame = x[t * 64:(t + 1) * 64]
            lhs = float(np.sum(np.abs(full[:, t]) ** 2)) / 64.0
            rhs = float(np.sum(frame ** 2))
            worst = max(worst, abs(lhs - rhs) / rhs)
    parseval_ok = worst < 1e-6

    n = np.arange(128)
    tone = np.cos(2 * np.pi * 4 * n / 64)
    spec = stft(tone, frame_len=64, hop=64, taper="rect")
    mags = np.abs(spec.bins)
    tone_ok = bool(np.all(mags.argmax(axis=0) == 4))
    ok = parseval_ok and tone_ok
    report(4, "stft correctness", ok,
           f"worst_parseval_rel={worst:.3e} tone_argmax={mags.argmax(axis=0)}")


# ---------------------------------------------------------------------------
# 5. Quantizer oracle equivalence
# ---------------------------------------------------------------------------

def test_acceptance_05_quantizer_oracle():
    rs = np.random.default_rng(5)
    mismatches = 0
    for trial in range(1000):
        k = int(rs.integers(2, 12))
        d = int(rs.integers(1, 6))
        entries = rs.normal(0, 1, (k, d))
        z = rs.normal(0, 1, (d, 2, 2))
        if trial % 2 == 0:
            # coarse grids force exact ties; the tie-break has to pick the
            # lowest index every time
            entries = np.round(entries)
            z = np.round(z)
        if trial % 5 == 0 and k >= 2:
            entries[-1] = entries[0]
        code = vqvae.quantize(z, vqvae.Codebook(entries.astype(np.float32)))
        vecs = z.reshape(d, 4).T
        for cell in range(4):
            want = exhaustive_nearest(vecs[cell],
                                      entries.astype(np.float32))
            if code.indices.reshape(-1)[cell] != want:
                mismatches += 1
    report(5, "quantizer oracle equivalence", mismatches == 0,
           f"{mismatches} mismatching cells")


# ---------------------------------------------------------------------------
# 6. Gradient suite
# ---------------------------------------------------------------------------

def _layer_fd_error(desc, x_shape, seed) -> float:
    """Worst FD relative error across parameters and the input."""
    store = nn.ParamStore()
    nn.init_params([desc], store, nn.seed_rng(seed), dtype=np.float64)
    rs = np.random.default_rng(seed + 100)
    x = rs.standard_normal(x_shape)
    if desc.kind == "relu":
        x[np.abs(x) < 1e-2] = 0.5
    y, cache = nn.forward(desc, store, x)
    coef = rs.standard_normal(y.shape)
    store.zero_grads()
    gx = nn.backward(desc, store, cache, coef)

    def loss():
        out, _ = nn.forward(desc, store, x)
        return float(np.sum(out * coef))

    worst = fd_array_error(loss, x, gx, seed=seed, max_coords=20)
    analytic = {name: store.grads[name].copy() for name in store.names()}
    if analytic:
        worst = max(worst, fd_param_error(loss, store, analytic, seed=seed,
                                          max_coords=20))
    return worst


def _cell_fd_error(seed) -> float:
    desc = nn.recurrent_cell("g", 5, 4)
    store = nn.ParamStore()
    nn.init_params([desc], store, nn.seed_rng(seed), dtype=np.float64)
    rs = np.random.default_rng(seed + 100)
    x = rs.standard_normal((3, 5))
    h = rs.standard_normal((3, 4))
    out, cache = nn.forward(desc, store, (x, h))
    coef = rs.standard_normal(out.shape)
    store.zero_grads()
    gx, gh = nn.backward(desc, store, cache, coef)

    def loss():
        o, _ = nn.forward(desc, store, (x, h))
        return float(np.sum(o * coef))

    worst = max(fd_array_error(loss, x, gx, seed=seed, max_coords=20),
                fd_array_error(loss, h, gh, seed=seed, max_coords=20))
    analytic = {name: store.grads[name].copy() for name in store.names()}
    return max(worst, fd_param_error(loss, store, analytic, seed=seed,
                                     max_coords=20))


def _head_fd_error(seed) -> float:
    head = fusion.build_head(2, grid=8, hidden=5, seed=seed)
    store = nn.ParamStore()
    nn.init_params(head.conv, store, nn.seed_rng(seed), dtype=np.float64)
    nn.init_params([head.cell, head.out], store, nn.seed_rng(seed + 1),
                   dtype=np.float64)
    head.store = store
    rs = np.random.default_rng(seed + 100)
    x = rs.standard_normal((2, 3, 2, 8, 8))
    y = np.array([1.0, 0.0])

    def loss():
        logits, _ = fusion.forward_logits(head, x)
        val, _ = nn.bce_with_logits(logits, y)
        return val

    logits, caches = fusion.forward_logits(head, x)
    _, dlogits = nn.bce_with_logits(logits, y)
    store.zero_grads()
    fusion.backward_logits(head, caches, dlogits)
    analytic = {name: store.grads[name].copy() for name in store.names()}
    return fd_param_error(loss, store, analytic, seed=seed, max_coords=10)


def test_acceptance_06_gradient_suite():
    cases = {
        "conv2d": lambda s: _layer_fd_error(nn.conv2d("c", 3, 4, 3, s=2, p=1),
                                            (2, 3, 9, 9), s),
        "conv_transpose2d": lambda s: _layer_fd_error(
            nn.conv_transpose2d("t", 4, 3, 4, s=2, p=1), (2, 4, 5, 5), s),
        "dense": lambda s: _layer_fd_error(nn.dense("d", 7, 4), (3, 7), s),
        "relu": lambda s: _layer_fd_error(nn.relu(), (4, 6), s),
        "sigmoid": lambda s: _layer_fd_error(nn.sigmoid(), (4, 6), s),
        "residual_block": lambda s: _layer_fd_error(nn.residual_block("r", 3),
                                                    (2, 3, 5, 5), s),
        "recurrent_cell": _cell_fd_error,
    }
    worst = {}
    for kind, check in cases.items():
        worst[kind] = max(check(seed) for seed in range(20))
    worst["head"] = max(_head_fd_error(seed) for seed in range(20))
    layer_ok = all(v < 1e-4 for k, v in worst.items() if k != "head")
    head_ok = worst["head"] < 1e-3
    report(6, "gradient suite", layer_ok and head_ok,
           " ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# 7. Desk-scale learning
# ---------------------------------------------------------------------------

def test_acceptance_07_desk_scale_learning(trained_autoencoder):
    images, model, _ = trained_autoencoder
    mse0 = _dataset_recon_mse(vqvae.build_model(32, 16, seed=0), images)
    mse1 = _dataset_recon_mse(model, images)
    halved = mse1 < 0.5 * mse0

    train = synthetic.make_separable_sequences(40, m=1, d=8, grid=8,
                                               seq_len=3, distance=5.0, seed=0)
    held = synthetic.make_separable_sequences(40, m=1, d=8, grid=8,
                                              seq_len=3, distance=5.0, seed=1)
    head, _ = fusion.train_classifier(
        train, fusion.ClassifierConfig(epochs=30, batch=8, seed=0))
    train_acc = fusion.evaluate(head, train, 0.5).accuracy
    held_acc = fusion.evaluate(head, held, 0.5).accuracy
    learner_ok = train_acc >= 0.95 and held_acc >= 0.90
    report(7, "desk-scale learning", halved and learner_ok,
           f"recon_mse {mse0:.5f}->{mse1:.5f}; train_acc={train_acc:.3f} "
           f"held_acc={held_acc:.3f}")


# ---------------------------------------------------------------------------
# 8. End-to-end synthetic fusion
# ---------------------------------------------------------------------------

def test_acceptance_08_fusion_stability(trained_autoencoder, encoded_streams):
    """Mean rank AUC over five head initialisations must not drop by more
    than 0.05 as modalities are added, nor by more than 0.10 once Noise
    joins the six.

    Accuracy at threshold 0.5 of a single head is not compared. A sequence
    takes its label from the last real sample of its final window
    (docs/design.md), so a few of the 21 eval sequences are labelled by a
    state that covers a small tail of their samples. Those score near 0.5
    and flip with the head seed and the BLAS kernel, and one flip moves
    accuracy by 0.048.
    """
    _, model, _ = trained_autoencoder
    train_entries, eval_entries = encoded_streams

    def metrics_for(mods):
        tr = sequences_from_latents(train_entries, model.codebook, mods, seq_len=4)
        ev = sequences_from_latents(eval_entries, model.codebook, mods, seq_len=4)
        out = []
        for seed in range(5):
            head, _ = fusion.train_classifier(
                tr, fusion.ClassifierConfig(epochs=20, batch=8, seed=seed))
            out.append(fusion.evaluate(head, ev, 0.5))
        return out

    sets = {m: pipeline.PERMUTATIONS[m] for m in (1, 2, 3, 6)}
    sets["6+Noise"] = pipeline.PERMUTATIONS[6] + ("Noise",)
    runs = {key: metrics_for(mods) for key, mods in sets.items()}
    mean_auc = {key: float(np.mean([r.auc for r in rs]))
                for key, rs in runs.items()}

    series = [mean_auc[m] for m in (1, 2, 3, 6)]
    min_step = min(b - a for a, b in zip(series, series[1:]))
    monotone = min_step >= -0.05
    noise_ok = mean_auc["6+Noise"] >= mean_auc[6] - 0.10
    shown_auc = {key: round(v, 3) for key, v in mean_auc.items()}
    accs = {key: [round(r.accuracy, 3) for r in rs]
            for key, rs in runs.items()}
    report(8, "fusion stability", monotone and noise_ok,
           f"mean_auc={shown_auc} min_step={min_step:+.3f} "
           f"accs_by_seed={accs}")


# ---------------------------------------------------------------------------
# 9. Determinism and serialization
# ---------------------------------------------------------------------------

def _run_pipeline(root, seed_dir):
    out = root / seed_dir
    out.mkdir()
    stream = synthetic.make_stream(n_samples=1024, seed=0)
    ecg = stream.channels["ECG"].values
    emg = stream.channels["EMG"].values
    state = (np.arange(1024) // 512) % 2
    csv_path = out / "stream.csv"
    with open(csv_path, "w") as fh:
        fh.write("timestamp,ecg,emg,state\n")
        for i in range(1024):
            fh.write(f"{i / 32.0:.6f},{ecg[i]:.9g},{emg[i]:.9g},{state[i]}\n")
    cfg = out / "run.cfg"
    cfg.write_text("seed=0\nsteps=15\nbatch=4\nepochs=5\nseq_len=2\n")
    argsets = [
        ["ingest", "--csv", str(csv_path), "--schema",
         "ecg=ECG,emg=EMG,state=label", "--out", str(out / "data.lsfd"),
         "--config", str(cfg)],
        ["train-encoder", "--synthetic", "6", "--out", str(out / "model.lsfw"),
         "--config", str(cfg)],
        ["encode", "--model", str(out / "model.lsfw"), "--data",
         str(out / "data.lsfd"), "--out", str(out / "codes.lsfl"),
         "--config", str(cfg)],
        ["train-classifier", "--latents", str(out / "codes.lsfl"),
         "--modalities", "ECG,EMG", "--out", str(out / "head.lsfw"),
         "--config", str(cfg)],
        ["eval", "--latents", str(out / "codes.lsfl"), "--head",
         str(out / "head.lsfw"), "--modalities", "ECG,EMG", "--out",
         str(out / "metrics.json"), "--config", str(cfg)],
    ]
    for args in argsets:
        assert main(args) == 0, args[0]
    return out


def test_acceptance_09_determinism(tmp_path):
    a = _run_pipeline(tmp_path, "a")
    b = _run_pipeline(tmp_path, "b")
    problems = []
    for name in ("model.lsfw", "head.lsfw", "metrics.json", "data.lsfd",
                 "codes.lsfl"):
        if (a / name).read_bytes() != (b / name).read_bytes():
            problems.append(name)

    # save/load round trip preserves encode outputs bitwise
    loaded = vqvae.load_model(str(a / "model.lsfw"))
    reloaded = vqvae.load_model(str(a / "model.lsfw"))
    img = SpectralImage(synthetic.make_images(1, seed=3)[0], ("", 0))
    c1 = vqvae.encode_image(loaded, img)
    c2 = vqvae.encode_image(reloaded, img)
    if not (np.array_equal(c1.indices, c2.indices)
            and np.array_equal(c1.quantized, c2.quantized)):
        problems.append("encode after reload")
    report(9, "determinism and serialization", not problems,
           f"mismatched: {problems}")


# ---------------------------------------------------------------------------
# 10. Metric correctness
# ---------------------------------------------------------------------------

def test_acceptance_10_metric_correctness():
    rs = np.random.default_rng(10)
    bad = 0
    for trial in range(500):
        n = int(rs.integers(2, 40))
        scores = rs.uniform(0, 1, n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # force tied scores
        labels = rs.integers(0, 2, n)
        got = fusion.auc_score(scores, labels)
        want = auc_by_pairs(scores, labels)
        if got is None or want is None:
            if got is not want:
                bad += 1
        elif abs(got - want) > 1e-12:
            bad += 1
    auc_ok = bad == 0

    scores = np.array([0.9, 0.8, 0.3, 0.7, 0.2, 0.1])
    labels = np.array([1, 1, 1, 0, 0, 0])
    m = fusion.metrics_from_scores(scores, labels, 0.5)
    confusion_ok = ((m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 2)
                    and abs(m.accuracy - 4 / 6) < 1e-12
                    and abs(m.f1 - 2 / 3) < 1e-12)
    report(10, "metric correctness", auc_ok and confusion_ok,
           f"auc_mismatches={bad} confusion=({m.tp},{m.fp},{m.fn},{m.tn}) "
           f"acc={m.accuracy} f1={m.f1}")
