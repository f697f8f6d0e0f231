"""Tests for the shared encoder, vector quantizer, loss, and weight files."""

import re
import sys

import numpy as np
import pytest

from latentfuse import nnkernel as nn
from latentfuse import baseline, fusion, synthetic, vqvae
from latentfuse.errors import (BadMagicError, DataError, NumericError,
                               TruncatedPayloadError, UsageError, VersionError)
from latentfuse.spectral import SpectralImage

from helpers import bounded, channels_last, exhaustive_nearest, fd_array_error


def small_images(n, seed=0):
    return synthetic.make_images(n, seed=seed)


# ---------------------------------------------------------------------------
# Architecture and encoding
# ---------------------------------------------------------------------------

def test_model_parameter_budget():
    model = vqvae.build_model(codebook_size=128, embed_dim=16, seed=0)
    enc = sum(nn.param_count(d) for d in model.encoder)
    dec = sum(nn.param_count(d) for d in model.decoder)
    assert enc == 60080
    assert enc + dec == 120147
    assert model.store.values["codebook"].shape == (128, 16)
    assert model.store.total_params() == 120147 + 128 * 16


def test_encode_shape_and_determinism():
    model = vqvae.build_model(codebook_size=8, embed_dim=16, seed=3)
    img = SpectralImage(small_images(1, seed=5)[0])
    z1 = vqvae.encode(model, img)
    z2 = vqvae.encode(model, img)
    assert z1.shape == (16, 16, 16)
    assert np.array_equal(z1, z2)


def test_encode_responds_to_input():
    model = vqvae.build_model(codebook_size=8, embed_dim=16, seed=3)
    px = small_images(1, seed=5)[0]
    z1 = vqvae.encode(model, SpectralImage(px))
    px2 = px.copy()
    px2[:, 64, 64] += 0.25
    z2 = vqvae.encode(model, SpectralImage(px2))
    assert np.abs(z1 - z2).max() > 0.0


def test_decode_output_range():
    model = vqvae.build_model(codebook_size=8, embed_dim=16, seed=1)
    rs = np.random.default_rng(0)
    z = rs.standard_normal((16, 16, 16)).astype(np.float32)
    x = vqvae.decode(model, z)
    assert x.shape == (3, 128, 128)
    assert x.min() > 0.0 and x.max() < 1.0


def test_equal_seeds_build_equal_models():
    a = vqvae.build_model(16, 16, seed=7)
    b = vqvae.build_model(16, 16, seed=7)
    for name in a.store.names():
        assert np.array_equal(a.store.values[name], b.store.values[name])


# ---------------------------------------------------------------------------
# Quantizer
# ---------------------------------------------------------------------------

def test_quantize_simple_cases():
    cb = vqvae.Codebook(np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32))
    z = np.array([[[0.2]], [[0.1]]])  # one cell, vector (0.2, 0.1)
    code = vqvae.quantize(z, cb)
    assert code.indices[0, 0] == 0
    assert np.array_equal(code.quantized[:, 0, 0], cb.entries[0])


def test_quantize_exact_match_is_bitwise():
    rs = np.random.default_rng(1)
    entries = rs.standard_normal((12, 4)).astype(np.float32)
    cb = vqvae.Codebook(entries)
    z = rs.standard_normal((4, 3, 3))
    z[:, 1, 2] = entries[7]
    code = vqvae.quantize(z, cb)
    assert code.indices[1, 2] == 7
    assert np.array_equal(code.quantized[:, 1, 2], entries[7])


def test_quantize_tie_breaks_to_lowest_index():
    cb = vqvae.Codebook(np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32))
    z = np.full((2, 1, 1), 0.5)
    assert vqvae.quantize(z, cb).indices[0, 0] == 0
    # duplicated rows: the earlier copy wins
    entries = np.zeros((6, 3), dtype=np.float32)
    entries[3] = entries[5] = [1.0, 2.0, 3.0]
    z = np.array([1.0, 2.0, 3.1]).reshape(3, 1, 1)
    assert vqvae.quantize(z, vqvae.Codebook(entries)).indices[0, 0] == 3


def test_quantize_matches_exhaustive_scan():
    rs = np.random.default_rng(2)
    for _ in range(100):
        k = int(rs.integers(2, 20))
        d = int(rs.integers(1, 6))
        entries = rs.standard_normal((k, d)).astype(np.float32)
        z = rs.standard_normal((d, 2, 2))
        code = vqvae.quantize(z, vqvae.Codebook(entries))
        for cell in range(4):
            r, c = divmod(cell, 2)
            ref = exhaustive_nearest(z[:, r, c].astype(np.float64),
                                     entries.astype(np.float64))
            assert code.indices[r, c] == ref


def test_quantize_dimension_mismatch():
    cb = vqvae.Codebook(np.zeros((4, 3), dtype=np.float32))
    with pytest.raises(UsageError):
        vqvae.quantize(np.zeros((2, 1, 1)), cb)


def test_quantize_batch_matches_per_image_and_exhaustive_scan():
    rs = np.random.default_rng(11)
    for trial in range(40):
        k = int(rs.integers(2, 24))
        d = int(rs.integers(1, 8))
        # half-integer grids force exact ties; a copied row forces duplicates
        entries = np.round(rs.normal(0, 2, (k, d))).astype(np.float32)
        entries[-1] = entries[0]
        z = (np.round(rs.normal(0, 2, (3, d, 4, 4)) * 2) / 2).astype(np.float32)
        z[1, :, 0, 0] = entries[-1]
        flat, z_q = vqvae._quantize_batch(z, entries)
        per_image = [vqvae.quantize(img, vqvae.Codebook(entries)) for img in z]
        assert np.array_equal(flat, np.concatenate([c.indices.reshape(-1)
                                                    for c in per_image]))
        assert np.array_equal(z_q, np.stack([c.quantized for c in per_image]))
        vecs = z.transpose(0, 2, 3, 1).reshape(-1, d)
        for cell, got in enumerate(flat):
            assert got == exhaustive_nearest(vecs[cell], entries)
        assert flat[16] == 0  # the copy of row 0 loses the tie


def test_quantize_exact_tie_at_large_magnitude():
    # codes c + a and c - a around a cell at v = c, |c_j| ~ 1e2..1e4 and a_j
    # a few ulps of c_j: both differences are exact, so the float64
    # difference form ties the two codes exactly, while |e|^2 - 2 v.e
    # rounds at ~1e-9 and orders them either way. The re-check has to hand
    # the tie to the lowest index every time.
    rs = np.random.default_rng(12)
    misordered = 0
    for _ in range(40):
        c = (rs.choice([-1, 1], 16) * 10 ** rs.uniform(2, 4, 16)).astype(np.float32)
        a = (rs.integers(-8, 9, 16) * np.spacing(np.abs(c))).astype(np.float32)
        entries = np.stack([c + a, c - a, c + np.float32(1e3)])
        v = c.astype(np.float64)
        e64 = entries.astype(np.float64)
        assert np.array_equal(e64[0] - v, v - e64[1])  # an exact tie
        gemm = (e64 * e64).sum(axis=1) - 2.0 * (e64 * v).sum(axis=1)
        misordered += gemm[1] < gemm[0]
        z = v.reshape(16, 1, 1)
        assert vqvae.quantize(z, vqvae.Codebook(entries)).indices[0, 0] == 0
        flat, _ = vqvae._quantize_batch(z[None].astype(np.float32), entries)
        assert flat[0] == 0 == exhaustive_nearest(v, entries)
    assert misordered > 0  # the GEMM form alone gets some of these wrong


def test_quantize_batch_accepts_float64_latents():
    rs = np.random.default_rng(13)
    entries = rs.standard_normal((16, 5)).astype(np.float32)
    z = rs.standard_normal((2, 5, 3, 3))  # float64, as the tests above pass
    flat, z_q = vqvae._quantize_batch(z, entries)
    assert z_q.dtype == np.float32 and z_q.shape == z.shape
    vecs = z.transpose(0, 2, 3, 1).reshape(-1, 5)
    assert [exhaustive_nearest(v, entries) for v in vecs] == flat.tolist()
    assert np.array_equal(z_q[0], vqvae.quantize(z[0], vqvae.Codebook(entries)).quantized)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_vq_loss_scalar_reference():
    report = vqvae.vq_loss(np.array([1.0]), np.array([0.5]),
                           np.array([1.0, 0.0]), np.array([0.0, 0.0]),
                           beta=0.25)
    assert report.reconstruction == pytest.approx(0.25)
    assert report.codebook_term == pytest.approx(0.5)
    assert report.commitment_term == pytest.approx(0.125)
    assert report.total == pytest.approx(0.875)


def test_vq_loss_perfect_reconstruction():
    x = np.random.default_rng(3).uniform(size=(3, 8, 8))
    z = np.random.default_rng(4).standard_normal((4, 2, 2))
    report = vqvae.vq_loss(x, x.copy(), z, z.copy(), beta=0.25)
    assert report.total == 0.0


def test_vq_loss_beta_zero_drops_commitment():
    report = vqvae.vq_loss(np.array([1.0]), np.array([0.0]),
                           np.array([1.0]), np.array([0.0]), beta=0.0)
    assert report.commitment_term == 0.0
    assert report.codebook_term == 1.0


def test_vq_loss_shape_mismatch():
    with pytest.raises(UsageError):
        vqvae.vq_loss(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2))


def test_straight_through_convention_matches_fd():
    """The encoder-side gradient used in training is d(recon)/d(z_q) carried
    through the quantizer unchanged, plus the commitment pull. Check both
    terms against finite differences with the code assignment frozen."""
    descs = [nn.residual_block("dec.r", 3),
             nn.conv_transpose2d("dec.t", 3, 2, 2, 2, 0), nn.sigmoid()]
    store = nn.ParamStore()
    nn.init_params(descs, store, nn.seed_rng(0), dtype=np.float64)
    rs = np.random.default_rng(5)
    z_e = rs.standard_normal((1, 3, 8, 8))
    offset = 0.1 * rs.standard_normal(z_e.shape)  # stands in for z_q - z_e
    x = rs.uniform(size=(1, 2, 16, 16))
    beta = 0.25
    z_q0 = z_e + offset  # the frozen assignment: a snapshot, not a view

    def loss():
        # reconstruction sees z_e through the pass-through (offset is fixed),
        # while the commitment pulls toward the frozen z_q0
        x_hat, _ = nn.stack_forward(descs, store, z_e + offset)
        recon = np.mean((x - x_hat) ** 2)
        commit = beta * np.mean((z_e - z_q0) ** 2)
        return float(recon + commit)

    x_hat0, caches = nn.stack_forward(descs, store, z_q0)
    gx_hat = (2.0 / x.size) * (x_hat0 - x)
    store.zero_grads()
    dz_q = nn.stack_backward(descs, store, caches, gx_hat)
    dz_e = dz_q + beta * (2.0 / z_e.size) * (z_e - z_q0)
    # moving z_e moves z_q with it (offset frozen), matching the estimator
    assert fd_array_error(loss, z_e, dz_e, max_coords=60) < 1e-6


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_train_zero_steps_returns_seeded_init():
    cfg = vqvae.VqVaeConfig(codebook_size=8, embed_dim=8, steps=0, seed=4)
    model, curve = vqvae.train_vqvae(small_images(2), cfg)
    assert curve == []
    ref = vqvae.build_model(8, 8, seed=4)
    for name in ref.store.names():
        assert np.array_equal(model.store.values[name], ref.store.values[name])


def test_train_is_deterministic():
    images = small_images(4, seed=1)
    cfg = vqvae.VqVaeConfig(codebook_size=8, embed_dim=8, steps=12, batch=2, seed=9)
    m1, c1 = vqvae.train_vqvae(images, cfg)
    m2, c2 = vqvae.train_vqvae(images, cfg)
    assert [r.total for r in c1] == [r.total for r in c2]
    for name in m1.store.names():
        assert np.array_equal(m1.store.values[name], m2.store.values[name])


def test_train_first_report_reflects_initialization():
    """curve[0] is measured before any update, so it must be reproducible
    from the seeded init model and the first deterministic batch draw."""
    images = small_images(4, seed=2)
    cfg = vqvae.VqVaeConfig(codebook_size=8, embed_dim=8, steps=1, batch=3, seed=11)
    _, curve = vqvae.train_vqvae(images, cfg)

    init = vqvae.build_model(8, 8, seed=11)
    idx = nn.seed_rng(12).integers(4, 3)
    x = images[idx]
    z_e, _ = nn.stack_forward(init.encoder, init.store, x)
    _, z_q = vqvae._quantize_batch(z_e, init.store.values["codebook"])
    x_hat, _ = nn.stack_forward(init.decoder, init.store, z_q)
    ref = vqvae.vq_loss(x, x_hat, z_e, z_q)
    assert curve[0].total == pytest.approx(ref.total, rel=1e-12)


def test_first_step_gradients_are_one_whole_batch_pass(monkeypatch):
    """The per-image tapes of step 0 sum to the gradients of one whole-batch
    backward, since each image scales its loss gradients by the batch's
    sizes; curve[0] is that pass's vq_loss bitwise."""
    images = small_images(4, seed=6)
    cfg = vqvae.VqVaeConfig(codebook_size=16, embed_dim=8, steps=1, batch=3, seed=13)
    seen = []
    adam_step = nn.adam_step

    def capture(store, *args, **kwargs):
        seen.append({name: g.copy() for name, g in store.grads.items()})
        adam_step(store, *args, **kwargs)

    monkeypatch.setattr(nn, "adam_step", capture)
    _, curve = vqvae.train_vqvae(images, cfg)

    ref = vqvae.build_model(16, 8, seed=13)
    store, entries = ref.store, ref.store.values["codebook"]
    idx = nn.seed_rng(14).integers(4, 3)
    # the batch as training gathers it, in channels-last memory
    x = images.transpose(0, 2, 3, 1)[idx].transpose(0, 3, 1, 2)
    z_e, enc_caches = nn.stack_forward(ref.encoder, store, x)
    flat_idx, z_q = vqvae._quantize_batch(z_e, entries)
    x_hat, dec_caches = nn.stack_forward(ref.decoder, store, z_q)
    want = vqvae.vq_loss(x, x_hat, z_e, z_q, cfg.beta)
    assert curve[0] == want

    gx_hat = (2.0 / x.size) * (x_hat - x)
    dz_q = nn.stack_backward(ref.decoder, store, dec_caches, gx_hat.astype(np.float32))
    dz_e = dz_q + cfg.beta * (2.0 / z_e.size) * (z_e - z_q)
    nn.stack_backward(ref.encoder, store, enc_caches, dz_e.astype(np.float32),
                      need_grad_in=False)
    vecs = z_e.transpose(0, 2, 3, 1).reshape(-1, 8)
    gcb = np.zeros_like(entries)
    np.add.at(gcb, flat_idx, (2.0 / z_e.size) * (entries[flat_idx] - vecs))
    store.accumulate("codebook", gcb)

    (got,) = seen
    assert list(got) == list(store.grads)
    for name, g in store.grads.items():
        assert g.any(), name
        np.testing.assert_allclose(got[name], g, rtol=1e-4, atol=1e-4 * np.abs(g).max(),
                                   err_msg=name)


def test_train_reduces_loss():
    images = small_images(6, seed=3)
    cfg = vqvae.VqVaeConfig(codebook_size=16, embed_dim=8, steps=60, batch=2,
                            lr=2e-3, seed=0)
    _, curve = vqvae.train_vqvae(images, cfg)
    early = np.mean([r.total for r in curve[:10]])
    late = np.mean([r.total for r in curve[-10:]])
    assert late < early


def test_train_rejects_bad_input():
    with pytest.raises(UsageError):
        vqvae.train_vqvae(np.zeros((0, 3, 128, 128), dtype=np.float32))
    with pytest.raises(UsageError):
        vqvae.train_vqvae(np.zeros((2, 3, 64, 64), dtype=np.float32))


def test_train_aborts_on_nonfinite_input():
    images = small_images(2)
    images[:, 0, 0, 0] = np.nan  # every image is poisoned, so step 0 sees it
    cfg = vqvae.VqVaeConfig(codebook_size=8, embed_dim=8, steps=3, batch=2)
    with pytest.raises(NumericError, match="step 0"):
        vqvae.train_vqvae(images, cfg)


def test_dead_code_window_constant():
    assert vqvae.DEAD_CODE_WINDOW == 200


def test_dead_codes_are_reseeded(monkeypatch):
    """Codes unused for the whole window move; without reseeding a code that
    never wins an assignment keeps its initialization bitwise (its gradient
    and Adam moments stay exactly zero)."""
    monkeypatch.setattr(vqvae, "DEAD_CODE_WINDOW", 6)
    images = small_images(3, seed=4)
    init = vqvae.build_model(32, 8, seed=21).store.values["codebook"]

    short_cfg = vqvae.VqVaeConfig(codebook_size=32, embed_dim=8, steps=5,
                                  batch=2, seed=21)
    before, _ = vqvae.train_vqvae(images, short_cfg)
    stale = [k for k in range(32)
             if np.array_equal(before.store.values["codebook"][k], init[k])]
    assert stale, "expected some never-assigned codes at this size"

    long_cfg = vqvae.VqVaeConfig(codebook_size=32, embed_dim=8, steps=10,
                                 batch=2, seed=21)
    after, _ = vqvae.train_vqvae(images, long_cfg)
    moved = [k for k in stale
             if not np.array_equal(after.store.values["codebook"][k], init[k])]
    assert moved == stale


def test_train_rejects_bad_config():
    images = small_images(2)
    for batch in (0, -1):
        cfg = vqvae.VqVaeConfig(codebook_size=8, embed_dim=8, steps=2, batch=batch)
        with pytest.raises(UsageError, match="batch must be >= 1"):
            vqvae.train_vqvae(images, cfg)
    cfg = vqvae.VqVaeConfig(codebook_size=8, embed_dim=8, steps=-3)
    with pytest.raises(UsageError, match="steps must be >= 0"):
        vqvae.train_vqvae(images, cfg)
    with pytest.raises(UsageError, match="embed_dim must be >= 1"):
        vqvae.build_model(8, 0)


def test_train_never_writes_its_float32_images():
    images = small_images(3, seed=5)
    before = images.copy()
    vqvae.train_vqvae(images, vqvae.VqVaeConfig(codebook_size=8, embed_dim=8,
                                                steps=2, batch=2))
    assert images.tobytes() == before.tobytes()


def _trained_bytes(images, cfg):
    """The weights and the loss curve of a training run, as bytes."""
    model, curve = vqvae.train_vqvae(images, cfg)
    weights = {name: v.tobytes() for name, v in model.store.values.items()}
    terms = np.array([(r.reconstruction, r.codebook_term, r.commitment_term)
                      for r in curve])
    return weights, terms.tobytes()


def test_train_does_not_depend_on_the_images_memory_order():
    images = small_images(6, seed=2)
    cfg = vqvae.VqVaeConfig(codebook_size=32, embed_dim=16, steps=4, batch=3)
    assert _trained_bytes(images, cfg) == _trained_bytes(channels_last(images), cfg)


@pytest.mark.parametrize("reseed", [False, True])
def test_train_is_bitwise_at_every_runner_count(runners, monkeypatch, caplog, reseed):
    """One map item per image, with its gradients on a tape of its own and
    the tapes added in image order, keeps every weight and loss bitwise
    those of one runner; so does a run that re-seeds dead codes."""
    if reseed:
        monkeypatch.setattr(vqvae, "DEAD_CODE_WINDOW", 6)
    images = small_images(4, seed=4)
    cfg = vqvae.VqVaeConfig(codebook_size=32, embed_dim=8, steps=10 if reseed else 4,
                            batch=3, seed=21)
    got = {}
    for n in (1, 2, 3):
        runners(n)
        with caplog.at_level("DEBUG", logger="latentfuse.vqvae"):
            got[n] = _trained_bytes(images, cfg)
        reseeded = any("re-seeded" in r.getMessage() for r in caplog.records)
        assert reseeded == reseed
        caplog.clear()
    assert got[2] == got[1]
    assert got[3] == got[1]


def test_train_under_thread_contention_is_bitwise(runners):
    """Four runners on the host's CPUs, switching threads every microsecond."""
    images = small_images(4, seed=8)
    cfg = vqvae.VqVaeConfig(codebook_size=16, embed_dim=8, steps=3, batch=4, seed=5)
    runners(1)
    want = _trained_bytes(images, cfg)
    runners(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bounded(lambda: _trained_bytes(images, cfg))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_failed_step_leaves_no_gradient_in_flight(runners):
    runners(2)
    cfg = vqvae.VqVaeConfig(codebook_size=8, embed_dim=8, steps=3, batch=2)
    fresh = _trained_bytes(small_images(2), cfg)
    poisoned = small_images(2)
    poisoned[:, 0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="step 0"):
        vqvae.train_vqvae(poisoned, cfg)
    assert _trained_bytes(small_images(2), cfg) == fresh


# ---------------------------------------------------------------------------
# Weight files
# ---------------------------------------------------------------------------

def test_tensor_file_roundtrip(tmp_path):
    rs = np.random.default_rng(6)
    tensors = {
        "a.w": rs.standard_normal((3, 4)).astype(np.float32),
        "b": rs.standard_normal(7).astype(np.float32),
        "deep.c.b": rs.standard_normal((2, 2, 2)).astype(np.float32),
    }
    path = str(tmp_path / "t.lsfw")
    vqvae.write_tensors(path, tensors)
    back = vqvae.read_tensors(path)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert np.array_equal(back[name], arr)
        assert back[name].dtype == np.float32


def test_model_roundtrip_encodes_bitwise(tmp_path):
    model, _ = vqvae.train_vqvae(small_images(2, seed=7),
                                 vqvae.VqVaeConfig(codebook_size=8, embed_dim=8,
                                                   steps=4, batch=2, seed=2))
    path = str(tmp_path / "m.lsfw")
    vqvae.save_model(model, path)
    loaded = vqvae.load_model(path)
    img = SpectralImage(small_images(1, seed=8)[0])
    a = vqvae.encode_image(model, img)
    b = vqvae.encode_image(loaded, img)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.quantized, b.quantized)
    x1 = vqvae.decode(model, a.quantized)
    x2 = vqvae.decode(loaded, b.quantized)
    assert np.array_equal(x1, x2)


def test_encoder_only_file_cannot_decode(tmp_path):
    model = vqvae.build_model(8, 8, seed=5)
    path = str(tmp_path / "enc.lsfw")
    vqvae.save_model(model, path, include_decoder=False)
    loaded = vqvae.load_model(path)
    img = SpectralImage(small_images(1)[0])
    vqvae.encode_image(loaded, img)  # encoding still works
    with pytest.raises(UsageError):
        vqvae.decode(loaded, np.zeros((8, 16, 16), dtype=np.float32))


def test_weight_file_bad_magic(tmp_path):
    p = tmp_path / "x.lsfw"
    p.write_bytes(b"WXYZ" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        vqvae.read_tensors(str(p))


def test_weight_file_bad_version(tmp_path):
    model = vqvae.build_model(8, 8, seed=0)
    path = tmp_path / "m.lsfw"
    vqvae.save_model(model, str(path))
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(VersionError):
        vqvae.read_tensors(str(path))


def test_weight_file_truncation_names_tensor(tmp_path):
    path = str(tmp_path / "m.lsfw")
    vqvae.write_tensors(path, {"enc.c1.w": np.zeros((4, 4), dtype=np.float32)})
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-8])
    with pytest.raises(TruncatedPayloadError, match="enc.c1.w"):
        vqvae.read_tensors(path)


def test_weight_file_missing():
    with pytest.raises(DataError):
        vqvae.read_tensors("/nonexistent/m.lsfw")


def test_load_model_rejects_foreign_tensor(tmp_path):
    model = vqvae.build_model(8, 8, seed=0)
    tensors = {name: model.store.values[name] for name in model.store.names()}
    tensors["stray.w"] = np.zeros(3, dtype=np.float32)
    path = str(tmp_path / "m.lsfw")
    vqvae.write_tensors(path, tensors)
    with pytest.raises(DataError, match="stray.w"):
        vqvae.load_model(path)


def test_load_model_requires_codebook(tmp_path):
    path = str(tmp_path / "m.lsfw")
    vqvae.write_tensors(path, {"enc.c1.w": np.zeros((32, 3, 4, 4),
                                                    dtype=np.float32)})
    with pytest.raises(DataError, match="codebook"):
        vqvae.load_model(path)


# Each weight loader: a seeded store and the function that reads it back.
LOADERS = {
    "model": (lambda: vqvae.build_model(8, 8, seed=0).store, vqvae.load_model),
    "head": (lambda: fusion.build_head(4, 8, seed=0).store, fusion.load_head),
    "extractor": (lambda: baseline.build_encoder("ECG", 16, seed=0).store,
                  lambda path: baseline.load_extractor(path, "ECG")),
}


@pytest.mark.parametrize("kind,name", [
    ("model", "enc.c1.w"), ("model", "codebook"), ("model", "stray.w"),
    ("head", "head.c2.w"), ("head", "head.c1.w"), ("head", "head.cell.wxu"),
    ("head", "stray.w"),
    ("extractor", "ECG.c1.w"), ("extractor", "ECG.tail.w"),
    ("extractor", "stray.w"),
])
def test_loaders_reject_wrong_shape_and_stray_tensors(tmp_path, kind, name):
    build, load = LOADERS[kind]
    tensors = dict(build().values)
    # a (1,)-shaped tensor: the wrong shape for a known name, or a stray one
    tensors[name] = np.zeros(1, dtype=np.float32)
    path = str(tmp_path / f"{kind}.lsfw")
    vqvae.write_tensors(path, tensors)
    with pytest.raises(DataError, match=re.escape(name)):
        load(path)


@pytest.mark.parametrize("kind,name,shape", [
    ("model", "codebook", (1, 8)), ("model", "codebook", (8, 0)),
    ("head", "head.cell.wxu", (64, 0)), ("head", "head.cell.wxu", (0, 64)),
    ("head", "head.cell.wxu", (64, 1)), ("head", "head.c1.w", (16, 0, 3, 3)),
])
def test_loaders_reject_degenerate_architecture(tmp_path, kind, name, shape):
    build, load = LOADERS[kind]
    tensors = dict(build().values)
    tensors[name] = np.zeros(shape, dtype=np.float32)
    path = str(tmp_path / f"{kind}.lsfw")
    vqvae.write_tensors(path, tensors)
    with pytest.raises(DataError, match=re.escape(path)):
        load(path)


def test_weight_file_truncated_anywhere_is_data_error(tmp_path):
    path = tmp_path / "w.lsfw"
    vqvae.write_tensors(str(path), {"codebook": np.ones((2, 3), dtype=np.float32),
                                    "scale": np.float32(2.0).reshape(())})
    data = path.read_bytes()
    assert vqvae.read_tensors(str(path))["codebook"].shape == (2, 3)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(DataError):
            vqvae.read_tensors(str(path))


def test_weight_file_header_byte_any_value_reads_or_is_data_error(tmp_path):
    path = tmp_path / "w.lsfw"
    # a payload long enough that a corrupted rank reads payload bytes as dims
    vqvae.write_tensors(str(path), {"codebook": np.ones((64, 16), dtype=np.float32)})
    data = path.read_bytes()
    header = 4 + 4 + 4 + 2 + len("codebook") + 1 + 2 * 4
    for i in range(header):
        for value in range(256):
            raw = bytearray(data)
            raw[i] = value
            path.write_bytes(bytes(raw))
            try:
                vqvae.read_tensors(str(path))
            except DataError as exc:
                # any other exception class fails the test as it propagates
                assert str(path) in str(exc), (i, value, exc)


def test_loss_curve_csv(tmp_path):
    curve = [vqvae.VqLossReport(0.5, 0.2, 0.05), vqvae.VqLossReport(0.4, 0.1, 0.025)]
    path = tmp_path / "curve.csv"
    vqvae.write_loss_curve(str(path), curve)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,reconstruction,codebook,commitment,total"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[4]) == pytest.approx(0.75)
