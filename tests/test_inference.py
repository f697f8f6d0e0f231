"""The cache-free inference pass (`nnkernel.stack_infer`) and its arena."""

import sys
import threading
from itertools import product

import numpy as np
import pytest

from latentfuse import baseline, fusion, synthetic, vqvae
from latentfuse import nnkernel as nn
from latentfuse.spectral import SpectralImage

from helpers import channels_last, is_channels_last


def _stacks():
    model = vqvae.build_model(32, 16, seed=0)
    base = baseline.build_encoder("ECG", 16, seed=1)
    head = fusion.build_head(96, seed=2)  # M = 6: both convs unfold channels-last
    return {"encoder": (model.encoder, model.store),
            "decoder": (model.decoder, model.store),
            "baseline": (base.features, base.store),
            "head": (head.conv, head.store)}


def _inputs(batch: int, seed: int) -> dict[str, np.ndarray]:
    images = synthetic.make_images(batch, seed=seed)
    rs = np.random.default_rng(seed)
    latents = rs.standard_normal((batch, 16, 16, 16)).astype(np.float32)
    fused = rs.standard_normal((batch, 96, 16, 16)).astype(np.float32)
    return {"encoder": images, "decoder": latents, "baseline": images, "head": fused}


def _in_fresh_thread(fn):
    """fn() run in a new thread, so on a new thread arena; returns its result."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the calling thread
            box["error"] = exc

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_stack_infer_is_stack_forward_bitwise_and_owns_its_results():
    stacks = _stacks()
    # every stack at batch 1 and 8 (the head at 1 and 16, its training
    # batch), interleaved across stacks and shapes
    calls = [(name, 2 * batch if name == "head" and batch > 1 else batch, seed)
             for seed, batch in ((0, 1), (1, 8), (2, 1), (3, 8)) for name in stacks]
    results = []
    for name, batch, seed in calls:
        descs, store = stacks[name]
        x = _inputs(batch, seed)[name]
        x_before = x.copy()
        got = nn.stack_infer(descs, store, x)
        want, _ = nn.stack_forward(descs, store, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (name, batch)
        assert x.tobytes() == x_before.tobytes(), f"{name} wrote its input"
        assert not nn.thread_arena().owns(got)
        results.append((got, want))
    # later calls reuse the arena; no returned array may change with them
    for (name, batch, _), (got, want) in zip(calls, results):
        assert got.tobytes() == want.tobytes(), f"{name} batch {batch} aliases the arena"


def _layer_outputs(descs, store, x):
    """Every layer's output in a stack_forward pass over x."""
    outs = []
    for d in descs:
        x, _ = nn.forward(d, store, x)
        outs.append(x)
    return outs


def _gradients(descs, store, x, grad):
    """(input gradient, parameter gradients) of one stack_forward and
    stack_backward pass; the store's gradients are left at zero."""
    store.zero_grads()
    _, caches = nn.stack_forward(descs, store, x)
    g_in = nn.stack_backward(descs, store, caches, grad)
    params = {name: g.copy() for name, g in store.grads.items()}
    store.zero_grads()
    return g_in, params


@pytest.mark.parametrize("name", ["encoder", "decoder", "baseline", "head"])
def test_input_memory_format_changes_no_bit_and_outputs_are_channels_last(name):
    descs, store = _stacks()[name]
    x = _inputs(2, 9)[name]
    assert x.flags.c_contiguous and not is_channels_last(x)
    grad = np.random.default_rng(3).standard_normal(
        (2,) + nn.stack_out_shape(descs, x.shape[1:])).astype(np.float32)
    results = []
    for xi, gi in product((x, channels_last(x)), (grad, channels_last(grad))):
        y, _ = nn.stack_forward(descs, store, xi)
        inferred = nn.stack_infer(descs, store, xi)
        outs = _layer_outputs(descs, store, xi)
        assert all(is_channels_last(o) for o in outs), [d.kind for d in descs]
        assert is_channels_last(inferred)
        g_in, params = _gradients(descs, store, xi, gi)
        assert is_channels_last(g_in)
        results.append([y, inferred, g_in] + [params[k] for k in sorted(params)])
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("n_runners", [1, 2])
@pytest.mark.parametrize("name", ["encoder", "baseline"])
def test_batch_forward_is_per_image_forwards_bitwise(runners, n_runners, name):
    runners(n_runners)
    descs, store = _stacks()[name]
    x = _inputs(4, 10)[name]
    y, _ = nn.stack_forward(descs, store, x)
    for i in range(x.shape[0]):
        one, _ = nn.stack_forward(descs, store, x[i:i + 1])
        assert one[0].tobytes() == y[i].tobytes(), (name, i)


def test_callers_run_the_inference_pass():
    model = vqvae.build_model(32, 16, seed=0)
    encoder = baseline.build_encoder("EDA", 16, seed=2)
    px = synthetic.make_images(2, seed=4)
    img = SpectralImage(px[0])
    z_e = vqvae.encode(model, img)
    z_ref, _ = nn.stack_forward(model.encoder, model.store, px[:1])
    assert z_e.tobytes() == z_ref[0].tobytes()
    feats = baseline.extract(encoder, img)
    f_ref, _ = nn.stack_forward(encoder.features, encoder.store, px[:1])
    assert feats.tobytes() == f_ref[0].tobytes()
    z_q = vqvae.quantize(z_e, model.codebook).quantized
    x_hat = vqvae.decode(model, z_q)
    x_ref, _ = nn.stack_forward(model.decoder, model.store, z_q[None])
    assert x_hat.tobytes() == x_ref[0].tobytes()
    # a second image through the same arena leaves the first results alone
    vqvae.encode(model, SpectralImage(px[1]))
    baseline.extract(encoder, SpectralImage(px[1]))
    assert z_e.tobytes() == z_ref[0].tobytes()
    assert feats.tobytes() == f_ref[0].tobytes()


def test_training_caches_survive_an_inference_pass():
    stacks = _stacks()
    descs, store = stacks["baseline"]
    x = _inputs(2, 5)["baseline"]
    grad = np.random.default_rng(0).standard_normal((2, 16, 16, 16)).astype(np.float32)

    def grads(interleave: bool):
        store.zero_grads()
        _, caches = nn.stack_forward(descs, store, x)
        if interleave:
            for name, (d, s) in stacks.items():
                nn.stack_infer(d, s, _inputs(8, 6)[name])
        g_in = nn.stack_backward(descs, store, caches, grad)
        out = {k: v.copy() for k, v in store.grads.items()}
        store.zero_grads()
        return g_in, out

    g_plain, p_plain = grads(False)
    g_mixed, p_mixed = grads(True)
    assert g_plain.tobytes() == g_mixed.tobytes()
    for name in p_plain:
        assert p_plain[name].tobytes() == p_mixed[name].tobytes(), name


@pytest.mark.parametrize("batch", [1, 8])
def test_arena_repeat_calls_add_no_bytes(batch):
    stacks = _stacks()
    inputs = _inputs(batch, 7)

    def sizes():
        arena = nn.thread_arena()
        assert arena.nbytes == 0
        warm = []
        for name, (descs, store) in stacks.items():
            nn.stack_infer(descs, store, inputs[name])
            warm.append(arena.nbytes)
        for _ in range(2):
            for name in reversed(list(stacks)):
                descs, store = stacks[name]
                nn.stack_infer(descs, store, inputs[name])
        return warm, arena.nbytes

    warm, after = _in_fresh_thread(sizes)
    assert warm[0] > 0
    assert warm == sorted(warm), "the arena shrank"
    assert after == warm[-1], f"repeat calls grew the arena {warm[-1]} -> {after}"
    assert after <= nn.ARENA_LIMIT


def _conv_output_bytes(descs, shape) -> int:
    """float32 bytes of one image's conv outputs: the activations an arena
    pass allocates (relu and the residual add write in place), and each
    transposed conv's phase grids, (Ha*Wa, s*s*B) floats."""
    total = 0
    for d in descs:
        if d.kind == "residual_block":
            total += _conv_output_bytes(d.inner, shape)
        if d.kind == "conv_transpose2d":
            q = -(-d.kernel // d.stride)
            ha, wa = shape[1] + q - 1, shape[2] + q - 1
            total += 4 * ha * wa * d.stride * d.stride * d.out_channels
        shape = nn.out_shape(d, shape)
        if d.kind in ("conv2d", "conv_transpose2d"):
            total += 4 * int(np.prod(shape))
    return total


@pytest.mark.parametrize("name", ["encoder", "baseline", "decoder"])
def test_inference_arena_keeps_one_images_columns(name):
    descs, store = _stacks()[name]
    images = _inputs(4, seed=9)[name]

    def arena_after(batch):
        nn.stack_infer(descs, store, images[:batch])
        return nn.thread_arena().nbytes

    one = _in_fresh_thread(lambda: arena_after(1))
    four = _in_fresh_thread(lambda: arena_after(4))
    extra = 3 * _conv_output_bytes(descs, images.shape[1:])
    # three more images add their activations (and phase grids), and no
    # padded input or columns
    assert one < four <= one + extra, (one, four, extra)


def test_threads_encoding_at_once_reproduce_single_thread_bits():
    # more threads than the two cores, switching often, all on one model
    model = vqvae.build_model(32, 16, seed=0)
    encoders = [baseline.build_encoder(m, 16, seed=i)
                for i, m in enumerate(("ECG", "EMG", "EDA"))]
    images = [SpectralImage(px) for px in synthetic.make_images(4, seed=8)]

    def work(encoder):
        return [(vqvae.encode(model, im).tobytes(), baseline.extract(encoder, im).tobytes())
                for im in images for _ in range(2)]

    want = [_in_fresh_thread(lambda e=e: work(e)) for e in encoders]
    got = [None] * len(encoders)
    start = threading.Barrier(len(encoders))

    def run(i):
        start.wait()
        got[i] = work(encoders[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(encoders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_arena_blocks_are_stack_ordered_aligned_and_reused():
    arena = nn.Arena()
    a = arena.take((3, 5))
    mark = arena.mark()
    b = arena.take((7,), np.float64)
    assert arena.nbytes == 0 and arena.owns(a) and arena.owns(b)
    arena.release(mark)
    assert arena.owns(a) and not arena.owns(b)
    arena.release(0)
    # the buffer grows to the deepest stack: two 64-byte-rounded blocks
    assert arena.nbytes == 128
    a2 = arena.take((3, 5))
    mark = arena.mark()
    b2 = arena.take((7,), np.float64)
    assert a2.ctypes.data % 64 == 0 and b2.ctypes.data - a2.ctypes.data == 64
    arena.release(mark)
    c = arena.take((2,), np.float64)
    assert c.ctypes.data == b2.ctypes.data
    arena.release(0)
    assert arena.nbytes == 128


def test_arena_keeps_at_most_its_limit(monkeypatch):
    monkeypatch.setattr(nn, "ARENA_LIMIT", 256)
    arena = nn.Arena()
    arena.take((1024,), np.uint8)
    arena.release(0)
    assert arena.nbytes == 256
    big = arena.take((1024,), np.uint8)
    assert arena.owns(big)
    arena.release(0)
    assert arena.nbytes == 256


def test_relu_never_writes_an_input_the_arena_does_not_own():
    arena = nn.Arena()
    x = np.array([[-1.0, 2.0, -0.5]], dtype=np.float32)
    y, cache = nn.forward(nn.relu(), nn.ParamStore(), x, arena=arena)
    assert cache is None
    assert x.tolist() == [[-1.0, 2.0, -0.5]]
    assert y.tolist() == [[0.0, 2.0, 0.0]]
    z, _ = nn.forward(nn.relu(), nn.ParamStore(), y - 1.0, arena=arena)
    y2, _ = nn.forward(nn.relu(), nn.ParamStore(), y, arena=arena)
    assert y2 is y  # an arena block is rectified in place
    assert z.tolist() == [[0.0, 1.0, 0.0]]
