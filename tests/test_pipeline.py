"""End-to-end wiring: a raw stream through either system into fused sequences."""

import numpy as np
import pytest

from latentfuse import baseline, pipeline, synthetic, vqvae
from latentfuse.cli import LatentEntry, sequences_from_latents
from latentfuse.errors import DataError, UsageError
from latentfuse.ingest import slide_windows
from latentfuse.spectral import spectral_image

MODALITIES = pipeline.PERMUTATIONS[6]


def _systems():
    unified = pipeline.UnifiedSystem(vqvae.build_model(128, 16, seed=0))
    encoders = {m: baseline.build_encoder(m, 16, seed=i)
                for i, m in enumerate(MODALITIES)}
    return {"unified": unified,
            "baseline": baseline.BaselineSystem(encoders, head=None)}


def _reference_latent(kind, system, modality, window, cfg):
    image = spectral_image(window, cfg.spectral)
    if kind == "unified":
        return vqvae.encode_image(system.model, image).quantized
    return baseline.extract(system.encoders[modality], image)


@pytest.mark.parametrize("kind", ["unified", "baseline"])
def test_stream_to_sequences_fuses_each_window_and_labels_by_last_step(kind):
    cfg = pipeline.PipelineConfig(seq_len=3)
    # 7 full windows plus a zero-filled tail; labels flip every 300 samples,
    # so the first and last steps of each sequence carry different labels
    stream = synthetic.make_stream(n_samples=744, segment_len=300, seed=3)
    system = _systems()[kind]

    samples = pipeline.stream_to_sequences(system, stream, 6, cfg)

    derived = pipeline.derive_acc_magnitude(stream)
    windows = {m: slide_windows(derived.channels[m], derived.labels,
                                cfg.window_len, cfg.stride) for m in MODALITIES}
    n_windows = len(windows["ECG"])
    assert n_windows == 8
    assert len(samples) == n_windows // cfg.seq_len
    for s, sample in enumerate(samples):
        assert len(sample.steps) == cfg.seq_len
        first, last = s * cfg.seq_len, s * cfg.seq_len + cfg.seq_len - 1
        assert sample.label == windows["ECG"][last].label
        assert sample.label != windows["ECG"][first].label
        for t, step in enumerate(sample.steps):
            assert step.modality_order == MODALITIES
            for j, m in enumerate(MODALITIES):
                want = _reference_latent(kind, system, m,
                                         windows[m][s * cfg.seq_len + t], cfg)
                block = step.tensor[j * 16:(j + 1) * 16]
                assert block.dtype == want.dtype
                assert np.array_equal(block, want)


def test_stream_and_latent_file_align_alike():
    """One stream encoded in memory, or written as code indices and read back
    (here in reverse order), gives bitwise-equal steps and labels."""
    cfg = pipeline.PipelineConfig(seq_len=3)
    stream = synthetic.make_stream(n_samples=744, segment_len=300, seed=3)
    system = pipeline.UnifiedSystem(vqvae.build_model(128, 16, seed=0))
    modalities = pipeline.PERMUTATIONS[3]

    samples = pipeline.stream_to_sequences(system, stream, 3, cfg)

    derived = pipeline.derive_acc_magnitude(stream)
    entries = [LatentEntry(m, w.start_index, w.label, vqvae.encode_image(
                   system.model, spectral_image(w, cfg.spectral)).indices)
               for m in modalities
               for w in slide_windows(derived.channels[m], derived.labels,
                                      cfg.window_len, cfg.stride)]
    from_file = sequences_from_latents(entries[::-1], system.model.codebook,
                                       modalities, cfg.seq_len)
    assert len(samples) == len(from_file) == 2
    for a, b in zip(samples, from_file):
        assert a.label == b.label
        assert len(a.steps) == len(b.steps) == cfg.seq_len
        for x, y in zip(a.steps, b.steps):
            assert x.modality_order == y.modality_order == modalities
            assert x.tensor.dtype == y.tensor.dtype
            assert x.tensor.tobytes() == y.tensor.tobytes()


def test_stream_shorter_than_one_sequence_is_data_error():
    cfg = pipeline.PipelineConfig(seq_len=3)
    # 224 samples hold exactly two windows (starts 0 and 96), one too few
    stream = synthetic.make_stream(n_samples=224, seed=3)
    system = pipeline.UnifiedSystem(vqvae.build_model(128, 16, seed=0))
    with pytest.raises(DataError, match="seq_len=3"):
        pipeline.stream_to_sequences(system, stream, 2, cfg)


class _CountingSystem:
    """Forwards to a system and records which modalities it encodes."""

    def __init__(self, system):
        self.system = system
        self.encoded = []

    def encode(self, modality, image):
        self.encoded.append(modality)
        return self.system.encode(modality, image)

    def parameter_stores(self, modalities):
        return self.system.parameter_stores(modalities)


@pytest.mark.parametrize("kind", ["unified", "baseline"])
def test_encoding_runs(kind):
    system = _CountingSystem(_systems()[kind])
    runs = pipeline.encoding_runs(system, 3, 4)
    assert len(runs) == 4
    assert all(isinstance(t, float) and t > 0 for t in runs)
    # one discarded warm-up pass, then four timed ones, one window per modality
    assert system.encoded == list(pipeline.PERMUTATIONS[3]) * 5


def test_encoding_runs_missing_encoder_fails_untimed():
    encoders = {"ECG": baseline.build_encoder("ECG", 16, seed=0)}
    system = _CountingSystem(baseline.BaselineSystem(encoders, head=None))
    with pytest.raises(UsageError):
        pipeline.encoding_runs(system, 2, 3)
    assert system.encoded == []
