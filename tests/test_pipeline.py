"""End-to-end wiring: a raw stream through either system into fused sequences."""

import logging
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from latentfuse import baseline, fusion, hostinfo, pipeline, synthetic, vqvae
from latentfuse import nnkernel as nn
from latentfuse.cli import (LatentEntry, main, sequences_from_latents, write_dataset,
                           write_latents)
from latentfuse.errors import DataError, UsageError
from latentfuse.ingest import slide_windows, window_stream
from latentfuse.spectral import spectral_image

from helpers import bounded

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
    """Forwards to a system and records the modality of each image it encodes."""

    def __init__(self, system):
        self.system = system
        self.encoded = []

    def encode(self, modality, images):
        self.encoded += [modality] * len(images)
        return self.system.encode(modality, images)

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


def test_repeated_modality_is_usage_error():
    with pytest.raises(UsageError, match="'ECG'"):
        pipeline.permutation_modalities(["ECG", "ECG"])
    with pytest.raises(UsageError, match="'EMG'"):
        pipeline.permutation_modalities(("EMG", "ECG", "EMG"))
    system = pipeline.UnifiedSystem(vqvae.build_model(32, 8, seed=0))
    stream = synthetic.make_stream(n_samples=800, seed=3)
    with pytest.raises(UsageError, match="'ECG'"):
        pipeline.stream_to_sequences(system, stream, ["ECG", "ECG"])
    assert pipeline.permutation_modalities(["EMG", "ECG"]) == ("EMG", "ECG")


def test_encode_windows_keeps_modalities_apart_in_window_order(runners, monkeypatch):
    runners(2)
    windows = {"A": list(range(5)), "B": list(range(10, 13)), "C": [20]}
    chunks = []

    def encode(modality, images):
        chunks.append((modality, len(images)))
        return [(modality, im) for im in images]

    # each "image" is its window, so the results show which window they came from
    monkeypatch.setattr(pipeline, "spectral_image", lambda w, cfg: w)
    got = pipeline.encode_windows(encode, windows, None)
    assert got == {m: [(m, w) for w in ws] for m, ws in windows.items()}
    size = pipeline.CHUNK_WINDOWS
    assert sorted(chunks) == sorted(
        (m, len(ws[i:i + size])) for m, ws in windows.items()
        for i in range(0, len(ws), size))


def test_unified_encode_searches_codes_once_per_chunk(runners, monkeypatch):
    runners(1)
    system = _systems()["unified"]
    cfg = pipeline.PipelineConfig(seq_len=3)
    stream = synthetic.make_stream(n_samples=744, segment_len=300, seed=3)
    want = pipeline.stream_to_sequences(system, stream, 6, cfg)
    shapes = []
    quantize = vqvae.quantize

    def counted(z_e, codebook):
        shapes.append(z_e.shape)
        return quantize(z_e, codebook)

    monkeypatch.setattr(vqvae, "quantize", counted)
    got = pipeline.stream_to_sequences(system, stream, 6, cfg)
    # 8 windows per modality make chunks of 3, 3 and 2
    assert sorted(shapes) == sorted([(3, 16, 16, 16)] * 12 + [(2, 16, 16, 16)] * 6)
    for a, b in zip(got, want):
        for x, y in zip(a.steps, b.steps):
            assert x.tensor.strides == y.tensor.strides
            assert x.tensor.tobytes() == y.tensor.tobytes()
    # a fused step has the memory order of one fused from latents quantized alone
    derived = pipeline.derive_acc_magnitude(stream)
    alone = fusion.fuse({m: _reference_latent("unified", system, m, slide_windows(
        derived.channels[m], derived.labels, 128, 96)[0], cfg) for m in MODALITIES},
        MODALITIES)
    assert got[0].steps[0].tensor.strides == alone.tensor.strides
    assert got[0].steps[0].tensor.tobytes() == alone.tensor.tobytes()


# ---------------------------------------------------------------------------
# The window map
# ---------------------------------------------------------------------------

def _window_threads():
    return {t for t in threading.enumerate() if t.name.startswith("latentfuse-window")}


@pytest.mark.parametrize("cpus,blas,want", [
    (2, None, 1),  # no OpenBLAS found
    (1, 1, 1),
    (2, 1, 2),     # one OpenBLAS thread: every CPU
    (2, 2, 1),     # more than one: OpenBLAS spreads each GEMM itself
    (4, 2, 1),
])
def test_window_runners_sizing_rule(monkeypatch, cpus, blas, want):
    monkeypatch.setattr(hostinfo, "cpu_count", lambda: cpus)
    monkeypatch.setattr(hostinfo, "blas_threads", lambda: blas)
    assert nn.window_runners() == want


def test_cpu_count_follows_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert hostinfo.cpu_count() == 1
    assert nn.window_runners() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert hostinfo.cpu_count() == (os.cpu_count() or 1)


def test_import_runs_openblas_on_one_thread():
    # a fresh interpreter, since OpenBLAS reads the variable when numpy loads it
    script = ("from latentfuse import hostinfo, nnkernel as nn\n"
              "threads = hostinfo.blas_threads()\n"
              "assert threads in (1, None), threads\n"
              "assert nn.window_runners() == (hostinfo.cpu_count() if threads else 1)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.path.dirname(os.path.dirname(pipeline.__file__)))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_map_windows_claims_each_item_once_under_contention(runners):
    # four runners on two cores, switching threads as often as possible
    runners(4)
    calls = [0] * 2000

    def fn(i):
        calls[i] += 1
        return sum(range(i % 50))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bounded(lambda: nn.map_windows(fn, range(2000)))
    finally:
        sys.setswitchinterval(old)
    assert got == [sum(range(i % 50)) for i in range(2000)]
    assert calls == [1] * 2000
    assert nn.map_windows(fn, []) == []


def test_map_inside_a_map_runs_serially(runners):
    # a nested map would otherwise wait on pool tasks queued behind itself
    runners(2)
    got = bounded(lambda: nn.map_windows(
        lambda k: nn.map_windows(abs, range(-k, 0)), range(6)))
    assert got == [list(range(k, 0, -1)) for k in range(6)]


@pytest.mark.parametrize("kind", ["unified", "baseline"])
def test_stream_to_sequences_parallel_is_bitwise_serial(runners, kind):
    # window chunks at 1, 2 and 3 runners against a per-window loop, with 8,
    # 1, 3 and 5 windows per modality, so some chunks are short
    system = _systems()[kind]
    head = fusion.build_head(len(MODALITIES) * 16, seed=0)
    cases = [(synthetic.make_stream(n_samples=744, segment_len=300, seed=3), 3)]
    cases += [(synthetic.make_stream(n_samples=128 + 96 * (k - 1), seed=k), 1)
              for k in (1, 3, 5)]
    counts = []
    for stream, seq_len in cases:
        cfg = pipeline.PipelineConfig(seq_len=seq_len)
        derived = pipeline.derive_acc_magnitude(stream)
        coded = {m: {w.start_index: (_reference_latent(kind, system, m, w, cfg), w.label)
                     for w in slide_windows(derived.channels[m], derived.labels,
                                            cfg.window_len, cfg.stride)}
                 for m in MODALITIES}
        want = pipeline.aligned_sequences(coded, MODALITIES, seq_len)
        want = ([(s.label, [step.tensor.tobytes() for step in s.steps]) for s in want],
                [fusion.classify(head, s) for s in want])
        for n in (1, 2, 3):
            runners(n)
            samples = pipeline.stream_to_sequences(system, stream, 6, cfg)
            assert ([(s.label, [step.tensor.tobytes() for step in s.steps])
                     for s in samples],
                    [fusion.classify(head, s) for s in samples]) == want
        counts.append((len(coded["ECG"]), len(want[0])))
    assert counts == [(8, 2), (1, 1), (3, 3), (5, 5)]


def test_encode_command_parallel_is_bitwise_serial(tmp_path, runners):
    # 1, 3 and 5 windows of three modalities, against a per-window loop
    stream = pipeline.derive_acc_magnitude(synthetic.make_stream(n_samples=600, seed=4))
    windows = window_stream(stream, 128, 96)
    windows = {"ECG": windows["ECG"][:1], "EDA": windows["EDA"][:3],
               "Resp": windows["Resp"][:5]}
    data = str(tmp_path / "data.lsfd")
    write_dataset(data, windows, 128)
    model = str(tmp_path / "model.lsfw")
    vqvae.save_model(vqvae.build_model(32, 8, seed=2), model)
    loaded = vqvae.load_model(model)
    entries = [LatentEntry(m, w.start_index, w.label,
                           vqvae.encode_image(loaded, spectral_image(w)).indices)
               for m in sorted(windows) for w in windows[m]]
    want = tmp_path / "want.lsfl"
    write_latents(str(want), entries, loaded.codebook, vqvae.GRID)
    for n in (1, 2, 3):
        runners(n)
        out = tmp_path / f"codes{n}.lsfl"
        assert main(["encode", "--model", model, "--data", data, "--out", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n", [2, 3])
def test_map_windows_raises_the_lowest_failing_index(runners, n):
    runners(n)
    # items 0 and 1 are held by two runners at once; item 1 fails first,
    # item 0 later, and item 0's error is the one raised
    both = threading.Barrier(2)
    ran_on = {}

    def fn(i):
        if i < 2:
            ran_on[i] = threading.get_ident()
            both.wait(timeout=30)
            if i == 0:
                time.sleep(0.05)
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 0"):
        nn.map_windows(fn, range(20))
    assert ran_on[0] != ran_on[1]
    threads = _window_threads()
    assert nn.map_windows(lambda x: -x, range(20)) == [-x for x in range(20)]
    assert _window_threads() == threads


@pytest.mark.parametrize("n", [2, 3])
def test_map_windows_reuses_threads_and_arenas(runners, n):
    runners(n)
    system = _systems()["baseline"]
    stream = synthetic.make_stream(n_samples=800, seed=5)
    arenas = {}
    all_in = threading.Barrier(n)

    def encode_first_waits(modality, images):
        # the warm call: every runner takes a chunk before any goes on, and
        # first encodes a full chunk, so its arena reaches full-chunk depth
        # even if every chunk it draws is a short one
        if threading.get_ident() not in arenas:
            arenas[threading.get_ident()] = nn.thread_arena()
            baseline.BaselineSystem.encode(system, modality,
                                           [images[0]] * pipeline.CHUNK_WINDOWS)
            all_in.wait(timeout=30)
        return baseline.BaselineSystem.encode(system, modality, images)

    system.encode = encode_first_waits
    pipeline.stream_to_sequences(system, stream, 6)
    assert len(arenas) == n
    warm = {ident: arena.nbytes for ident, arena in arenas.items()}
    assert all(size > 0 for size in warm.values())
    threads = _window_threads()
    assert len(threads) == n - 1

    used = set()

    def encode_noting_thread(modality, images):
        used.add(threading.get_ident())
        return baseline.BaselineSystem.encode(system, modality, images)

    system.encode = encode_noting_thread
    for _ in range(2):
        pipeline.stream_to_sequences(system, stream, 6)
    assert _window_threads() == threads
    assert used <= set(arenas)
    assert {ident: arena.nbytes for ident, arena in arenas.items()} == warm


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_map_windows_works_in_a_forked_child(runners):
    runners(2)
    assert nn.map_windows(abs, range(-4, 4)) == [4, 3, 2, 1, 0, 1, 2, 3]
    pid = os.fork()
    if pid == 0:  # the child has the parent's pool object but none of its threads
        ok = nn.map_windows(abs, range(-4, 4)) == [4, 3, 2, 1, 0, 1, 2, 3]
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_pool_is_logged_once_when_made(runners, caplog):
    runners(2)
    with caplog.at_level(logging.INFO, logger="latentfuse.nnkernel"):
        nn.map_windows(abs, range(8))
        nn.map_windows(abs, range(8))
    made = [r.getMessage() for r in caplog.records if "window map" in r.getMessage()]
    assert made == ["window map: 2 runners"]


# ---------------------------------------------------------------------------
# The head's time steps on the map
# ---------------------------------------------------------------------------

def _head_data(seed, n=20):
    return synthetic.make_separable_sequences(n, m=3, d=4, grid=8, seq_len=5,
                                              distance=2.0, seed=seed)


def test_head_training_and_scoring_parallel_is_bitwise_serial(runners):
    held = _head_data(99, n=11)
    results = {}
    for n in (1, 2, 3):
        runners(n)
        got = []
        for seed in (0, 1):
            cfg = fusion.ClassifierConfig(epochs=2, batch=6, seed=seed)
            head, curve = fusion.train_classifier(_head_data(seed), cfg)
            got.append(([head.store.values[k].tobytes() for k in head.store.names()],
                        [(s.loss, s.accuracy) for s in curve],
                        fusion.predict_scores(head, held, batch=4).tobytes(),
                        [fusion.classify(head, s) for s in held[:3]],
                        fusion.evaluate(head, held).to_json()))
        results[n] = got
    assert results[2] == results[1]
    assert results[3] == results[1]


def test_length_one_head_convs_stay_on_the_calling_thread(runners):
    # one step is the map's plain loop, and its convs run serially inside
    # it: no pool is made
    data = synthetic.make_separable_sequences(12, m=3, d=4, grid=8, seq_len=1,
                                              distance=2.0, seed=6)
    cfg = fusion.ClassifierConfig(epochs=2, batch=5, seed=0)
    results = {}
    for n in (1, 2, 3):
        runners(n)
        head, curve = fusion.train_classifier(data, cfg)
        results[n] = ([head.store.values[k].tobytes() for k in head.store.names()],
                      [(s.loss, s.accuracy) for s in curve],
                      fusion.predict_scores(head, data, batch=4).tobytes())
        assert nn._pool is None
    assert results[2] == results[1]
    assert results[3] == results[1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_backward_logits_is_the_step_by_step_bptt(runners, n):
    # the conv grads of each step are added last step first, as this loop does
    runners(n)
    head = fusion.build_head(12, grid=8, seed=4)
    data = _head_data(5, n=6)
    y = np.array([s.label for s in data], dtype=np.float64)
    logits, caches = fusion.forward_logits(head, data)
    _, dlogits = nn.bce_with_logits(logits, y)
    head.store.zero_grads()
    fusion.backward_logits(head, caches, dlogits)
    got = {k: g.copy() for k, g in head.store.grads.items()}

    head.store.zero_grads()
    store = head.store
    gh = nn.backward(head.out, store, caches[2], dlogits[:, None].astype(np.float32))
    for t in range(len(data[0].steps) - 1, -1, -1):
        feats, conv_cache = caches[0][t]
        gx, gh = nn.backward(head.cell, store, caches[1][t], gh)
        nn.stack_backward(head.conv, store, conv_cache, gx.reshape(feats.shape),
                          need_grad_in=False)
    for k, g in store.grads.items():
        assert got[k].tobytes() == g.tobytes(), k


@pytest.mark.parametrize("n", [2, 3])
def test_predict_scores_reuses_threads_and_arenas(runners, monkeypatch, n):
    runners(n)
    head = fusion.build_head(12, grid=8, seed=0)
    data = _head_data(7, n=10)
    arenas = {}
    all_in = threading.Barrier(n)
    stack_infer = nn.stack_infer

    def infer_first_waits(*args):
        # the warm call: every runner takes a step before any goes on
        if threading.get_ident() not in arenas:
            arenas[threading.get_ident()] = nn.thread_arena()
            all_in.wait(timeout=30)
        return stack_infer(*args)

    monkeypatch.setattr(nn, "stack_infer", infer_first_waits)
    want = fusion.predict_scores(head, data, batch=6)
    assert len(arenas) == n
    warm = {ident: arena.nbytes for ident, arena in arenas.items()}
    assert all(size > 0 for size in warm.values())
    threads = _window_threads()
    assert len(threads) == n - 1

    used = set()

    def infer_noting_thread(*args):
        used.add(threading.get_ident())
        return stack_infer(*args)

    monkeypatch.setattr(nn, "stack_infer", infer_noting_thread)
    for _ in range(2):
        assert fusion.predict_scores(head, data, batch=6).tobytes() == want.tobytes()
    assert _window_threads() == threads
    assert used <= set(arenas)
    assert {ident: arena.nbytes for ident, arena in arenas.items()} == warm


def test_head_steps_under_contention_are_bitwise_serial(runners):
    # four runners on two cores, switching threads as often as possible
    data, held = _head_data(3, n=12), _head_data(4, n=7)
    cfg = fusion.ClassifierConfig(epochs=1, batch=4, seed=2)

    def train_and_score():
        head, curve = fusion.train_classifier(data, cfg)
        return ([head.store.values[k].tobytes() for k in head.store.names()],
                [(s.loss, s.accuracy) for s in curve],
                fusion.predict_scores(head, held, batch=3).tobytes())

    runners(1)
    want = train_and_score()
    runners(4)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bounded(train_and_score)
    finally:
        sys.setswitchinterval(old)
    assert got == want
