"""Tests of the benchmark's own machinery: python3 -m pytest perfbench -q"""

from __future__ import annotations

import io
import itertools
import json
import statistics
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from latentfuse import nnkernel as nn, spectral  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def ticking_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def children(tracer, index):
    return [s for s in tracer.spans if s[4] == index]


def self_time_from_spans(tracer, name):
    total = 0.0
    for i, (_, span_name, start, end, _) in enumerate(tracer.spans):
        if span_name == name:
            total += (end - start) - sum(e - s for _, _, s, e, _ in children(tracer, i))
    return total


def test_self_time_subtracts_direct_children_only():
    times = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(times))
    with tracer.span("outer"):          # 0 .. 10
        with tracer.span("mid"):        # 2 .. 5
            with tracer.span("leaf"):   # 3 .. 4
                pass
        with tracer.span("leaf"):       # 6 .. 7
            pass
    assert tracer.self_s["outer"] == 10.0 - 3.0 - 1.0
    assert tracer.self_s["mid"] == 3.0 - 1.0
    assert tracer.self_s["leaf"] == 2.0
    assert tracer.total_s["outer"] == 10.0
    assert tracer.calls["leaf"] == 2


def test_residual_block_self_time_excludes_inner_convs():
    block = nn.residual_block("enc.r1", 4)
    store = nn.ParamStore()
    nn.init_params([block], store, nn.seed_rng(0))
    tracer = tracing.Tracer(clock=ticking_clock())
    x = np.ones((1, 4, 8, 8), dtype=np.float32)
    with tracing.installed(layers.probes(set()), tracer):
        nn.forward(block, store, x)
    outer = next(i for i, s in enumerate(tracer.spans) if s[4] == -1)
    assert [s[1] for s in children(tracer, outer)] == [
        "nn.enc.r1.fwd", "nn.elementwise.fwd", "nn.enc.r1.fwd"]
    assert tracer.self_s["nn.enc.r1.fwd"] == self_time_from_spans(tracer, "nn.enc.r1.fwd")
    outer_span = tracer.spans[outer]
    assert tracer.self_s["nn.enc.r1.fwd"] < outer_span[3] - outer_span[2]
    assert tracer.counts["samples:enc.r1"] == 1  # the inner convs add no samples


def test_render_image_self_time_excludes_resize_and_colormap():
    tracer = tracing.Tracer(clock=ticking_clock())
    mag = np.arange(33 * 65, dtype=np.float64).reshape(33, 65)
    with tracing.installed(layers.probes(set()), tracer):
        spectral.render_image(mag)
    (root,) = [i for i, s in enumerate(tracer.spans) if s[4] == -1]
    assert tracer.spans[root][1] == "spectral.render_image"
    assert [s[1] for s in children(tracer, root)] == [
        "spectral.bilinear_resize", "spectral.apply_colormap"]
    start, end = tracer.spans[root][2:4]
    inner = sum(s[3] - s[2] for s in children(tracer, root))
    assert tracer.self_s["spectral.render_image"] == (end - start) - inner


@pytest.mark.parametrize("n, percentile, beyond", [
    (1, 100.0, 0), (2, 100.0, 0), (15, 800 / 15, 7), (16, 900 / 16, 7),
    (19, 1000 / 19, 9), (20, 55.0, 9), (21, 1100 / 21, 10), (22, 1200 / 22, 10),
    (38, 2800 / 38, 10), (40, 75.0, 10), (1000, 99.0, 10),
])
def test_tail_percentile_is_the_highest_with_ten_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))  # the order of samples must not matter
    p, value, got_beyond = tracing.tail_percentile(samples)
    assert p == pytest.approx(percentile) and got_beyond == beyond
    assert value == n - beyond
    assert sum(s > value for s in samples) == beyond
    assert value >= statistics.median(samples)


def test_wrappers_are_removed_after_the_traced_run_even_on_error():
    module = types.ModuleType("fake")
    module.f = lambda x: x + 1
    original = module.f
    probes = [tracing.Probe(module, "f", "fake.f")]
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(probes, tracing.Tracer()):
            assert tracing.wrapped_attrs(probes) == ["fake.f"]
            1 / 0
    assert module.f is original
    assert tracing.wrapped_attrs(probes) == []


def test_library_probes_restore_every_original():
    probes = layers.probes(set())
    before = [getattr(p.module, p.attr) for p in probes]
    with tracing.installed(probes, tracing.Tracer()):
        assert all(tracing.is_wrapper(getattr(p.module, p.attr)) for p in probes)
    assert [getattr(p.module, p.attr) for p in probes] == before


class _StftWorkload:
    """Calls spectral.stft through its module attribute, as the library does."""

    name = "stub"
    per_call = 1

    def __init__(self):
        self.seen = []

    def make_input(self, i):
        return np.sin(np.arange(128.0))

    def run(self, values):
        self.seen.append(spectral.stft)
        return spectral.stft(values)

    def check(self, inp, out):
        return []


def test_untraced_run_calls_the_original_functions():
    original = spectral.stft
    wl = _StftWorkload()
    plain = run.Measurement(wl)
    plain.run(1e-9, first=0)
    assert wl.seen == [original]

    tracer = tracing.Tracer()
    traced = run.Measurement(wl)
    traced.run(1e-9, first=1, tracer=tracer, probes=layers.probes(set()))
    assert tracing.is_wrapper(wl.seen[1]) and tracer.calls["spectral.stft"] == 1
    assert spectral.stft is original
    assert plain.attempted == traced.attempted == 1 and plain.failed == traced.failed == 0


def test_join_fails_when_layers_and_cost_rows_drift():
    wl = workloads.make("train_encoder", 0, ".")
    names = [f"nn.{layer}.{d}" for layer in layers.NN_LAYERS[:10] for d in ("fwd", "bwd")]
    tracer = tracing.Tracer()
    tracer.calls.update(names)
    assert [row["span"] for row in layers.join(tracer, wl)] == [
        f"nn.{layer}" for layer in layers.NN_LAYERS[:10]]

    tracer.calls.update(["nn.enc.c9.fwd"])
    with pytest.raises(layers.JoinError, match="without a cost-model row"):
        layers.join(tracer, wl)
    del tracer.calls["nn.enc.c9.fwd"]
    del tracer.calls["nn.dec.t3.fwd"], tracer.calls["nn.dec.t3.bwd"]
    with pytest.raises(layers.JoinError, match="without a traced layer"):
        layers.join(tracer, wl)


def test_reference_clock_divides_by_the_neighbouring_references(monkeypatch):
    times = iter([0.020, 0.010, 0.030])
    monkeypatch.setattr(reference, "time_reference", lambda: next(times))
    clock = reference.Clock()
    clock.mark()
    assert clock.scale() == pytest.approx(reference.REF_SECONDS / 0.015)
    clock.mark()  # reuses the reference taken after the previous interval
    assert clock.scale() == pytest.approx(reference.REF_SECONDS / 0.020)
    assert clock.reference_s == [0.010, 0.030]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_specs()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_short_run_reports_every_metric(trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "infer_unified", "--seed", "3",
                         "--seconds", "0.01", "--trace", trace])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = ([m[0] for m in run.END_TO_END] if trace == "0"
             else [m[0] for m in layers.metric_specs()])
    assert list(result["metrics"]) == names
    if trace == "1":
        assert result["metrics"]["pipeline.encoder_loads"]["value"] == 1
