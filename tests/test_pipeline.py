"""End-to-end wiring: a raw stream through either system into fused sequences."""

import logging
import os
import sys
import threading
import time

import numpy as np
import pytest

from latentfuse import baseline, fusion, hostinfo, pipeline, synthetic, vqvae
from latentfuse import nnkernel as nn
from latentfuse.cli import LatentEntry, main, sequences_from_latents, write_dataset
from latentfuse.errors import DataError, UsageError
from latentfuse.ingest import slide_windows, window_stream
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


# ---------------------------------------------------------------------------
# The window map
# ---------------------------------------------------------------------------

def _stop_pool():
    """Join the module's pool threads; the next parallel map makes a new pool.

    Queued tasks are cancelled, which also frees a runner stuck waiting on
    one, so a test that fails by deadlock still ends.
    """
    if pipeline._pool is not None:
        pipeline._pool.shutdown(cancel_futures=True)
    pipeline._pool, pipeline._pool_workers = None, 0


@pytest.fixture
def runners(monkeypatch):
    """force(n) sizes every later map at n runners (n CPUs, one BLAS thread),
    on a pool of this test's own."""
    _stop_pool()

    def force(n):
        monkeypatch.setattr(hostinfo, "cpu_count", lambda: n)
        monkeypatch.setattr(hostinfo, "blas_threads", lambda: 1)
        assert pipeline.window_runners() == n

    yield force
    _stop_pool()


def _window_threads():
    return {t for t in threading.enumerate() if t.name.startswith("latentfuse-window")}


@pytest.mark.parametrize("cpus,blas,want", [
    (2, None, 1),  # no OpenBLAS found
    (2, 2, 1),     # OpenBLAS at its default of one thread per CPU
    (2, 1, 2),
    (1, 1, 1),
    (4, 2, 2),
    (3, 2, 1),
    (2, 0, 1),
])
def test_window_runners_sizing_rule(monkeypatch, cpus, blas, want):
    monkeypatch.setattr(hostinfo, "cpu_count", lambda: cpus)
    monkeypatch.setattr(hostinfo, "blas_threads", lambda: blas)
    assert pipeline.window_runners() == want


def test_cpu_count_follows_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert hostinfo.cpu_count() == 1
    monkeypatch.setattr(hostinfo, "blas_threads", lambda: 1)
    assert pipeline.window_runners() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert hostinfo.cpu_count() == (os.cpu_count() or 1)


def test_blas_threads_reads_the_loaded_library():
    threads = hostinfo.blas_threads()
    assert threads is None or threads >= 1
    if threads is not None and os.environ.get("OPENBLAS_NUM_THREADS", "").isdigit():
        assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])


def _bounded(fn, seconds=60):
    """fn() on a daemon thread, failing the test if it does not return in time."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), "timed out"
    assert out, "raised"
    return out[0]


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
        got = _bounded(lambda: pipeline.map_windows(fn, range(2000)))
    finally:
        sys.setswitchinterval(old)
    assert got == [sum(range(i % 50)) for i in range(2000)]
    assert calls == [1] * 2000
    assert pipeline.map_windows(fn, []) == []


def test_map_inside_a_map_runs_serially(runners):
    # a nested map would otherwise wait on pool tasks queued behind itself
    runners(2)
    got = _bounded(lambda: pipeline.map_windows(
        lambda k: pipeline.map_windows(abs, range(-k, 0)), range(6)))
    assert got == [list(range(k, 0, -1)) for k in range(6)]


@pytest.mark.parametrize("kind", ["unified", "baseline"])
def test_stream_to_sequences_parallel_is_bitwise_serial(runners, kind):
    cfg = pipeline.PipelineConfig(seq_len=3)
    stream = synthetic.make_stream(n_samples=744, segment_len=300, seed=3)
    system = _systems()[kind]
    head = fusion.build_head(len(MODALITIES) * 16, seed=0)
    results = {}
    for n in (1, 2, 3):
        runners(n)
        samples = pipeline.stream_to_sequences(system, stream, 6, cfg)
        results[n] = ([(s.label, [step.tensor.tobytes() for step in s.steps])
                       for s in samples],
                      [fusion.classify(head, s) for s in samples])
    assert len(results[1][0]) == 2
    assert results[2] == results[1]
    assert results[3] == results[1]


def test_encode_command_parallel_is_bitwise_serial(tmp_path, runners):
    stream = pipeline.derive_acc_magnitude(synthetic.make_stream(n_samples=600, seed=4))
    windows = {m: ws for m, ws in window_stream(stream, 128, 96).items()
               if m in ("ECG", "EDA", "Resp")}
    data = str(tmp_path / "data.lsfd")
    write_dataset(data, windows, 128)
    model = str(tmp_path / "model.lsfw")
    vqvae.save_model(vqvae.build_model(32, 8, seed=2), model)
    written = {}
    for n in (1, 2, 3):
        runners(n)
        out = tmp_path / f"codes{n}.lsfl"
        assert main(["encode", "--model", model, "--data", data, "--out", str(out)]) == 0
        written[n] = out.read_bytes()
    assert written[2] == written[1]
    assert written[3] == written[1]


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
        pipeline.map_windows(fn, range(20))
    assert ran_on[0] != ran_on[1]
    threads = _window_threads()
    assert pipeline.map_windows(lambda x: -x, range(20)) == [-x for x in range(20)]
    assert _window_threads() == threads


@pytest.mark.parametrize("n", [2, 3])
def test_map_windows_reuses_threads_and_arenas(runners, n):
    runners(n)
    system = _systems()["baseline"]
    stream = synthetic.make_stream(n_samples=800, seed=5)
    arenas = {}
    all_in = threading.Barrier(n)

    def encode_first_waits(modality, image):
        # the warm call: every runner takes an item before any goes on
        if threading.get_ident() not in arenas:
            arenas[threading.get_ident()] = nn.thread_arena()
            all_in.wait(timeout=30)
        return baseline.BaselineSystem.encode(system, modality, image)

    system.encode = encode_first_waits
    pipeline.stream_to_sequences(system, stream, 6)
    assert len(arenas) == n
    warm = {ident: arena.nbytes for ident, arena in arenas.items()}
    assert all(size > 0 for size in warm.values())
    threads = _window_threads()
    assert len(threads) == n - 1

    used = set()

    def encode_noting_thread(modality, image):
        used.add(threading.get_ident())
        return baseline.BaselineSystem.encode(system, modality, image)

    system.encode = encode_noting_thread
    for _ in range(2):
        pipeline.stream_to_sequences(system, stream, 6)
    assert _window_threads() == threads
    assert used <= set(arenas)
    assert {ident: arena.nbytes for ident, arena in arenas.items()} == warm


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_map_windows_works_in_a_forked_child(runners):
    runners(2)
    assert pipeline.map_windows(abs, range(-4, 4)) == [4, 3, 2, 1, 0, 1, 2, 3]
    pid = os.fork()
    if pid == 0:  # the child has the parent's pool object but none of its threads
        ok = pipeline.map_windows(abs, range(-4, 4)) == [4, 3, 2, 1, 0, 1, 2, 3]
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
    with caplog.at_level(logging.INFO, logger="latentfuse.pipeline"):
        pipeline.map_windows(abs, range(8))
        pipeline.map_windows(abs, range(8))
    made = [r.getMessage() for r in caplog.records if "window map" in r.getMessage()]
    assert made == ["window map: 2 runners (2 CPUs, 1 BLAS threads)"]
