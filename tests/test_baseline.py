"""Tests for the per-modality baseline encoders."""

import numpy as np
import pytest

from latentfuse import baseline, synthetic
from latentfuse import nnkernel as nn
from latentfuse.errors import DataError
from latentfuse.spectral import SpectralImage


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
    assert "EDA.c3.w" in names
    # the feature stack's weights and nothing else
    assert enc.store.total_params() == 70000


def test_build_encoder_is_seeded():
    a = baseline.build_encoder("ECG", seed=5)
    b = baseline.build_encoder("ECG", seed=5)
    for name in a.store.names():
        assert np.array_equal(a.store.values[name], b.store.values[name])


# ---------------------------------------------------------------------------
# Weight files
# ---------------------------------------------------------------------------

def test_extractor_roundtrip(tmp_path):
    # load_extractor starts from a seed-0 encoder, so a file written from
    # another seed shows that every weight came from the file
    encoder = baseline.build_encoder("ECG", 16, seed=3)
    path = str(tmp_path / "ECG.lsfw")
    baseline.save_encoder(encoder, path)
    loaded = baseline.load_extractor(path, "ECG")
    for name in encoder.store.names():
        assert np.array_equal(loaded.store.values[name], encoder.store.values[name])
    img = SpectralImage(synthetic.make_images(1, seed=5)[0])
    feats = baseline.extract(loaded, img)
    assert feats.shape == (16, 16, 16)
    assert np.array_equal(feats, baseline.extract(encoder, img))


def test_load_extractor_rejects_missing_feature_tensor(tmp_path):
    from latentfuse.vqvae import write_tensors
    encoder = baseline.build_encoder("ECG", 16, seed=0)
    tensors = {name: encoder.store.values[name] for name in encoder.store.names()
               if not name.endswith("c3.w")}
    path = str(tmp_path / "broken.lsfw")
    write_tensors(path, tensors)
    with pytest.raises(DataError, match="c3.w"):
        baseline.load_extractor(path, "ECG")


def test_load_extractor_reads_modality_and_embed_dim_from_the_file(tmp_path):
    encoder = baseline.build_encoder("Resp", 8, seed=2)
    path = str(tmp_path / "resp.lsfw")
    baseline.save_encoder(encoder, path)
    loaded = baseline.load_extractor(path)
    assert loaded.store.names() == encoder.store.names()
    for name in encoder.store.names():
        assert np.array_equal(loaded.store.values[name], encoder.store.values[name])
    img = SpectralImage(synthetic.make_images(1, seed=5)[0])
    assert baseline.extract(loaded, img).shape == (8, 16, 16)
    # restating either fact, in its position, still loads
    assert baseline.load_extractor(path, "Resp", 8).store.names() == encoder.store.names()


@pytest.mark.parametrize("modality,embed_dim,match", [
    ("ECG", None, "'Resp' extractor, not 'ECG'"),
    (None, 16, "embed_dim 8, not 16"),
])
def test_load_extractor_refuses_a_fact_the_file_contradicts(tmp_path, modality,
                                                            embed_dim, match):
    path = str(tmp_path / "resp.lsfw")
    baseline.save_encoder(baseline.build_encoder("Resp", 8, seed=2), path)
    with pytest.raises(DataError, match=match) as err:
        baseline.load_extractor(path, modality, embed_dim)
    assert path in str(err.value)


@pytest.mark.parametrize("shape", [(0, 48, 3, 3), (8,)])
def test_load_extractor_refuses_a_degenerate_last_conv(tmp_path, shape):
    from latentfuse.vqvae import write_tensors
    tensors = dict(baseline.build_encoder("ECG", 8, seed=0).store.values)
    tensors["ECG.c3.w"] = np.zeros(shape, dtype=np.float32)
    path = str(tmp_path / "ecg.lsfw")
    write_tensors(path, tensors)
    with pytest.raises(DataError, match="ECG.c3.w"):
        baseline.load_extractor(path)
