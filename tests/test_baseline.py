"""Tests for the per-modality baseline encoders and their pretraining."""

import numpy as np
import pytest

from latentfuse import baseline, synthetic
from latentfuse import nnkernel as nn
from latentfuse.errors import DataError, UsageError
from latentfuse.spectral import SpectralImage


@pytest.fixture(scope="module")
def labeled_set():
    return synthetic.make_labeled_images(32, seed=0)


@pytest.fixture(scope="module")
def pretrained(labeled_set):
    images, labels = labeled_set
    # lr low enough that the descent is smooth for all 10 epochs instead of
    # crashing to convergence and bouncing around the floor
    cfg = baseline.PretrainConfig(epochs=10, batch=8, seed=0, samples=32, lr=3e-4)
    encoder, curve = baseline.pretrain_encoder("ECG", images, labels, cfg)
    return encoder, curve


# ---------------------------------------------------------------------------
# Architecture
# ---------------------------------------------------------------------------

def test_feature_stack_shape_and_parameter_budget():
    stack = baseline.build_feature_stack("EMG", embed_dim=16)
    assert nn.stack_out_shape(stack, (3, 128, 128)) == (16, 16, 16)
    assert sum(nn.param_count(d) for d in stack) == 70000


def test_encoder_names_carry_modality():
    enc = baseline.build_encoder("EDA", seed=0)
    names = enc.store.names()
    assert all(name.startswith("EDA.") for name in names)
    assert "EDA.tail.w" in names
    # features plus the 16 -> 2 tail
    assert enc.store.total_params() == 70000 + 34


def test_build_encoder_is_seeded():
    a = baseline.build_encoder("ECG", seed=5)
    b = baseline.build_encoder("ECG", seed=5)
    for name in a.store.names():
        assert np.array_equal(a.store.values[name], b.store.values[name])


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------

def test_pretraining_loss_strictly_decreases(pretrained):
    _, curve = pretrained
    assert len(curve) == 10
    for a, b in zip(curve, curve[1:]):
        assert b < a


def test_pretrained_encoder_separates_classes(pretrained, labeled_set):
    encoder, _ = pretrained
    images, labels = labeled_set
    assert baseline.pretrain_accuracy(encoder, images, labels) >= 0.9


def test_pretraining_is_deterministic(labeled_set):
    images, labels = labeled_set
    cfg = baseline.PretrainConfig(epochs=2, batch=4, seed=3, samples=8)
    e1, c1 = baseline.pretrain_encoder("ECG", images, labels, cfg)
    e2, c2 = baseline.pretrain_encoder("ECG", images, labels, cfg)
    assert c1 == c2
    for name in e1.store.names():
        assert np.array_equal(e1.store.values[name], e2.store.values[name])


def test_pretraining_uses_only_the_seeded_subsample(labeled_set):
    """Images outside the first `samples` slots of the seeded shuffle must
    never be touched: poisoning them with NaN should not affect training."""
    images, labels = labeled_set
    cfg = baseline.PretrainConfig(epochs=1, batch=4, seed=11, samples=10)
    perm = nn.seed_rng(11).shuffle(images.shape[0])
    poisoned = images.copy()
    poisoned[perm[10:]] = np.nan
    encoder, curve = baseline.pretrain_encoder("ECG", poisoned, labels, cfg)
    for name in encoder.store.names():
        assert np.isfinite(encoder.store.values[name]).all()
    ref, ref_curve = baseline.pretrain_encoder("ECG", images, labels, cfg)
    assert curve == ref_curve
    for name in encoder.store.names():
        assert np.array_equal(encoder.store.values[name], ref.store.values[name])


def test_pretraining_warns_when_short_of_samples(labeled_set, caplog):
    images, labels = labeled_set
    cfg = baseline.PretrainConfig(epochs=1, batch=8, seed=0, samples=1000)
    with caplog.at_level("WARNING"):
        baseline.pretrain_encoder("Temp", images, labels, cfg)
    assert any("1000" in rec.message for rec in caplog.records)


def test_pretraining_rejects_single_class(labeled_set):
    images, _ = labeled_set
    with pytest.raises(UsageError, match="single class"):
        baseline.pretrain_encoder("ECG", images, np.ones(32, dtype=np.int64))


def test_pretraining_rejects_single_class_subsample(labeled_set):
    images, _ = labeled_set
    cfg = baseline.PretrainConfig(epochs=1, batch=4, seed=2, samples=10)
    perm = nn.seed_rng(2).shuffle(images.shape[0])
    labels = np.zeros(32, dtype=np.int64)
    labels[perm[10:]] = 1  # both classes overall, one class in the subsample
    with pytest.raises(UsageError, match="subsample"):
        baseline.pretrain_encoder("ECG", images, labels, cfg)


def test_pretraining_validates_shapes(labeled_set):
    images, labels = labeled_set
    with pytest.raises(UsageError):
        baseline.pretrain_encoder("ECG", images[:, :, :64, :], labels)
    with pytest.raises(UsageError):
        baseline.pretrain_encoder("ECG", images, labels[:-1])


def test_default_sample_budget():
    assert baseline.PRETRAIN_SAMPLES == 1000
    assert baseline.PretrainConfig().samples == 1000


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_spliced_features_match_full_forward(pretrained, labeled_set):
    encoder, _ = pretrained
    images, _ = labeled_set
    img = SpectralImage(images[3])
    feats = baseline.extract(encoder, img)
    full_feats, _, _ = baseline._forward_with_tail(encoder, images[3:4])
    assert feats.shape == (16, 16, 16)
    assert np.array_equal(feats, full_feats[0])


def test_extractor_roundtrip(tmp_path, pretrained, labeled_set):
    encoder, _ = pretrained
    images, _ = labeled_set
    path = str(tmp_path / "ECG.lsfw")
    baseline.save_encoder(encoder, path)
    loaded = baseline.load_extractor(path, "ECG")
    img = SpectralImage(images[5])
    assert np.array_equal(baseline.extract(loaded, img),
                          baseline.extract(encoder, img))


def test_load_extractor_accepts_tail_free_file(tmp_path, pretrained, labeled_set):
    from latentfuse.vqvae import write_tensors
    encoder, _ = pretrained
    images, _ = labeled_set
    tensors = {name: encoder.store.values[name] for name in encoder.store.names()
               if ".tail." not in name}
    path = str(tmp_path / "stripped.lsfw")
    write_tensors(path, tensors)
    loaded = baseline.load_extractor(path, "ECG")
    img = SpectralImage(images[7])
    ref = baseline.extract(encoder, img)
    assert np.array_equal(baseline.extract(loaded, img), ref)


def test_load_extractor_rejects_missing_feature_tensor(tmp_path, pretrained):
    from latentfuse.vqvae import write_tensors
    encoder, _ = pretrained
    tensors = {name: encoder.store.values[name] for name in encoder.store.names()
               if not name.endswith("c3.w")}
    path = str(tmp_path / "broken.lsfw")
    write_tensors(path, tensors)
    with pytest.raises(DataError, match="c3.w"):
        baseline.load_extractor(path, "ECG")
