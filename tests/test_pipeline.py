"""End-to-end wiring: a raw stream through either system into fused sequences."""

import numpy as np
import pytest

from latentfuse import baseline, pipeline, synthetic, vqvae
from latentfuse.ingest import slide_windows
from latentfuse.spectral import spectral_image

MODALITIES = pipeline.PERMUTATIONS[6]


def _systems():
    unified = pipeline.UnifiedSystem(vqvae.build_model(128, 16, seed=0))
    encoders = {m: baseline.splice(baseline.build_encoder(m, 16, seed=i))
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
