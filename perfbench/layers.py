"""Per-layer metrics: what the traced run wraps, and how spans join the cost model.

Spans are named after the library module and function they time. Every
nnkernel forward/backward call becomes a span named after its layer's
cost-model row ("nn.enc.c2.fwd", "nn.head.cell.bwd"); the six baseline
modality prefixes fold into "base", a conv nested in a residual block counts
toward the block, and unnamed relu/sigmoid layers count as "elementwise".
"""

from __future__ import annotations

import numpy as np

from latentfuse import (baseline, costmodel, fusion, nnkernel as nn, pipeline,
                        spectral, vqvae)

from tracing import Probe, Tracer
from workloads import CODEBOOK, EMBED_DIM, MODALITIES, PCFG

NN_LAYERS = (
    "enc.c1", "enc.c2", "enc.c3", "enc.r1", "enc.r2",
    "dec.r1", "dec.r2", "dec.t1", "dec.t2", "dec.t3",
    "head.c1", "head.c2", "head.cell", "head.out",
    "base.c1", "base.r1", "base.c2", "base.r2", "base.c3",
)
ELEMENTWISE_KINDS = ("relu", "sigmoid")
_BASE_PREFIXES = frozenset(MODALITIES)

# preprocess_cost rows that each spectral span performs
SPECTRAL_ROWS = {
    "spectral.stft": ("frame_taper", "dft"),
    "spectral.magnitude_db": ("magnitude_db",),
    "spectral.bilinear_resize": ("resize",),
    "spectral.apply_colormap": ("colormap",),
    "spectral.render_image": ("normalize",),
}
STAGES = ("preprocess", "encode", "quantize", "fuse", "classify")

# metric "<key>.ms" reports the self time of span SPAN_METRICS[key]
SPAN_METRICS = {
    "ingest.window_stream": "ingest.window_stream",
    "pipeline.self": "pipeline",
    **{span: span for span in SPECTRAL_ROWS},
    "vqvae.encode": "vqvae.encode",
    "vqvae.quantize": "vqvae.quantize",
    "vqvae.train.quantize": "vqvae.train.quantize",
    "vqvae.train.self": "vqvae.train",
    "baseline.extract": "baseline.extract",
    "fusion.fuse": "fusion.fuse",
    "fusion.forward_logits": "fusion.forward_logits",
    "fusion.backward_logits": "fusion.backward_logits",
    "fusion.predict_scores": "fusion.predict_scores",
    "fusion.train.self": "fusion.train",
}


class JoinError(RuntimeError):
    """The traced layers and the cost model's rows no longer name the same layers."""


def layer_name(name: str) -> str:
    """Layer-descriptor or cost-row name -> the layer it is reported under."""
    if not name:
        return "elementwise"
    prefix, layer = name.split(".")[:2]
    return f"{'base' if prefix in _BASE_PREFIXES else prefix}.{layer}"


def _nn_span(direction: str):
    def name(desc, *args, **kwargs) -> str:
        return f"nn.{layer_name(desc.name)}.{direction}"
    return name


def _count_samples(tracer: Tracer, args: tuple, result) -> None:
    desc, _, x = args[:3]
    if desc.name.count(".") == 1:  # a cost-model row, not a conv inside a block
        n = x[0].shape[0] if isinstance(x, tuple) else x.shape[0]
        tracer.counts[f"samples:{layer_name(desc.name)}"] += n


def probes(codes: set[int]) -> list[Probe]:
    """Module attributes wrapped during the traced run. `codes` collects the
    distinct codebook indices that quantization returns."""
    return [
        Probe(pipeline, "stream_to_sequences", "pipeline"),
        Probe(pipeline, "window_stream", "ingest.window_stream"),
        Probe(pipeline, "fuse", "fusion.fuse"),
        Probe(spectral, "stft", "spectral.stft"),
        Probe(spectral, "magnitude_db", "spectral.magnitude_db"),
        Probe(spectral, "render_image", "spectral.render_image"),
        Probe(spectral, "bilinear_resize", "spectral.bilinear_resize"),
        Probe(spectral, "apply_colormap", "spectral.apply_colormap"),
        Probe(vqvae, "encode", "vqvae.encode"),
        Probe(vqvae, "quantize", "vqvae.quantize",
              lambda t, a, r: codes.update(np.unique(r.indices).tolist())),
        # the batched search inside train_vqvae has no public name
        Probe(vqvae, "_quantize_batch", "vqvae.train.quantize",
              lambda t, a, r: codes.update(np.unique(r[0]).tolist())),
        Probe(vqvae, "train_vqvae", "vqvae.train"),
        Probe(baseline, "extract", "baseline.extract"),
        Probe(fusion, "classify", "fusion.classify"),
        Probe(fusion, "forward_logits", "fusion.forward_logits"),
        Probe(fusion, "backward_logits", "fusion.backward_logits"),
        Probe(fusion, "predict_scores", "fusion.predict_scores"),
        Probe(fusion, "train_classifier", "fusion.train"),
        Probe(nn, "forward", _nn_span("fwd"), _count_samples),
        Probe(nn, "backward", _nn_span("bwd")),
        Probe(nn, "adam_step", "nn.adam_step"),
    ]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{key}.ms", "ms", "lower") for key in SPAN_METRICS]
    specs += [("pipeline.encoder_loads", "count", "lower"),
              ("vqvae.codes_used", "ratio", "higher")]
    for layer in NN_LAYERS:
        specs += [(f"nn.{layer}.fwd_ms", "ms", "lower"),
                  (f"nn.{layer}.bwd_ms", "ms", "lower"),
                  (f"nn.{layer}.fwd_gmacs", "GMAC/s", "higher"),
                  (f"nn.{layer}.macs_per_byte", "MAC/B", "higher")]
    specs += [("nn.elementwise.fwd_ms", "ms", "lower"),
              ("nn.elementwise.bwd_ms", "ms", "lower"),
              ("nn.adam_step.ms", "ms", "lower")]
    for stage in STAGES:
        specs += [(f"stage.{stage}.time_share", "ratio", "lower"),
                  (f"stage.{stage}.mac_share", "ratio", "higher")]
    specs += [("trace.overhead_share", "ratio", "lower"),
              ("vqvae.train.recon_mse", "MSE", "lower"),
              ("fusion.train.eval_bce", "nats", "lower")]
    return specs


def _nn_rows(workload, batch: int) -> dict[str, costmodel.CostRow]:
    return {layer_name(r.name): r for r in workload.cost_rows(batch).values()
            if r.kind not in ELEMENTWISE_KINDS}


def _traced_layers(tracer: Tracer) -> set[str]:
    layers = {span[len("nn."):-len(".fwd")] for span in tracer.calls
              if span.startswith("nn.") and span.endswith((".fwd", ".bwd"))}
    layers.discard("elementwise")
    return layers


def join(tracer: Tracer, workload) -> list[dict]:
    """The traced layers beside the cost-model rows of the same name.

    Raises JoinError when a traced nnkernel layer has no cost-model row, a
    row has no traced layer, or the spectral spans no longer cover the
    preprocess rows, so the table cannot drift silently.
    """
    rows = _nn_rows(workload, 1)
    traced = _traced_layers(tracer)
    pre = {r.name: r for r in costmodel.preprocess_cost(PCFG.window_len, PCFG.spectral).rows}
    mapped = sorted(name for names in SPECTRAL_ROWS.values() for name in names)
    problems = []
    if traced - set(rows):
        problems.append(f"traced layers without a cost-model row: {sorted(traced - set(rows))}")
    if set(rows) - traced:
        problems.append(f"cost-model rows without a traced layer: {sorted(set(rows) - traced)}")
    if traced - set(NN_LAYERS):
        problems.append(f"layers missing from the metric list: {sorted(traced - set(NN_LAYERS))}")
    if mapped != sorted(pre):
        problems.append(f"preprocess rows {sorted(pre)} differ from the spectral spans' {mapped}")
    if problems:
        raise JoinError("; ".join(problems))

    nominal = _nn_rows(workload, workload.batch)
    table = []
    for layer in sorted(rows, key=NN_LAYERS.index):
        name = rows[layer].name
        table.append({"span": f"nn.{layer}",
                      "cost_row": layer if layer == name else f"*.{name.split('.', 1)[1]}",
                      "macs": tracer.counts[f"samples:{layer}"] * rows[layer].macs,
                      "intensity": _intensity([nominal[layer]]),
                      "fwd_s": tracer.self_s[f"nn.{layer}.fwd"],
                      "bwd_s": tracer.self_s[f"nn.{layer}.bwd"]})
    windows = tracer.calls["spectral.stft"]
    for span, names in SPECTRAL_ROWS.items():
        if windows:
            table.append({"span": span, "cost_row": "+".join(names),
                          "macs": windows * sum(pre[n].macs for n in names),
                          "intensity": _intensity([pre[n] for n in names]),
                          "fwd_s": tracer.self_s[span], "bwd_s": 0.0})
    for span, batch in (("vqvae.quantize", 1), ("vqvae.train.quantize", workload.batch)):
        if tracer.calls[span]:
            q = costmodel.quantize_cost(EMBED_DIM, CODEBOOK, batch)
            table.append({"span": span, "cost_row": q.name,
                          "macs": tracer.calls[span] * q.macs, "intensity": _intensity([q]),
                          "fwd_s": tracer.self_s[span], "bwd_s": 0.0})
    return table


def _intensity(rows: list[costmodel.CostRow]) -> float:
    """Modeled MACs per byte fetched or written: the roofline's x axis."""
    moved = sum(r.fetch_bytes + r.write_bytes for r in rows)
    return sum(r.macs for r in rows) / moved if moved else 0.0


def format_table(table: list[dict], ops: int, op_name: str) -> list[str]:
    lines = [f"{'span':26s} {'cost row':24s} {'fwd ms/' + op_name:>13s} "
             f"{'bwd ms/' + op_name:>13s} {'MMAC/' + op_name:>12s} {'GMAC/s':>8s} {'MAC/B':>7s}"]
    for t in table:
        gmacs = t["macs"] / t["fwd_s"] / 1e9 if t["fwd_s"] > 0 else 0.0
        lines.append(f"{t['span']:26s} {t['cost_row']:24s} {1e3 * t['fwd_s'] / ops:13.3f} "
                     f"{1e3 * t['bwd_s'] / ops:13.3f} {t['macs'] / ops / 1e6:12.3f} "
                     f"{gmacs:8.2f} {t['intensity']:7.2f}")
    return lines


def _stage_shares(tracer: Tracer, workload) -> dict[str, float]:
    out = {}
    kind = workload.pipeline_kind
    if kind is None:
        return {f"stage.{s}.{k}": 0.0 for s in STAGES for k in ("time_share", "mac_share")}
    seconds = {
        "preprocess": sum(tracer.self_s[span] for span in SPECTRAL_ROWS),
        "encode": tracer.total_s["vqvae.encode" if kind == "unified" else "baseline.extract"],
        "quantize": tracer.total_s["vqvae.quantize"],
        "fuse": tracer.total_s["fusion.fuse"],
        "classify": tracer.total_s["fusion.classify"],
    }
    cost = costmodel.pipeline_cost(kind, len(MODALITIES), EMBED_DIM, CODEBOOK, PCFG.seq_len,
                                   PCFG.window_len, PCFG.spectral, modalities=MODALITIES)
    quantize = sum(r.macs for r in cost.stages["encode"].rows if r.kind == "quantize")
    macs = {"preprocess": cost.stages["preprocess"].macs,
            "encode": cost.stages["encode"].macs - quantize, "quantize": quantize,
            "fuse": cost.stages["fuse"].macs, "classify": cost.stages["classify"].macs}
    for stage in STAGES:
        out[f"stage.{stage}.time_share"] = seconds[stage] / sum(seconds.values())
        out[f"stage.{stage}.mac_share"] = macs[stage] / sum(macs.values())
    return out


def metrics(tracer: Tracer, workload, ops: int, codes: set[int],
            overhead_share: float) -> dict[str, float]:
    """Every per-layer metric; `ops` is the number of workload operations traced."""
    def per_op(seconds: float) -> float:
        return 1e3 * seconds / ops

    out = {f"{key}.ms": per_op(tracer.self_s[span]) for key, span in SPAN_METRICS.items()}
    system = getattr(workload, "system", None)
    out["pipeline.encoder_loads"] = (pipeline.encoder_loads(system, MODALITIES)
                                     if system is not None else 0)
    out["vqvae.codes_used"] = len(codes) / CODEBOOK
    per_sample, nominal = _nn_rows(workload, 1), _nn_rows(workload, workload.batch)
    for layer in NN_LAYERS:
        fwd, bwd = tracer.self_s[f"nn.{layer}.fwd"], tracer.self_s[f"nn.{layer}.bwd"]
        macs = tracer.counts[f"samples:{layer}"] * per_sample[layer].macs \
            if layer in per_sample else 0
        out[f"nn.{layer}.fwd_ms"] = per_op(fwd)
        out[f"nn.{layer}.bwd_ms"] = per_op(bwd)
        out[f"nn.{layer}.fwd_gmacs"] = macs / fwd / 1e9 if fwd > 0 else 0.0
        out[f"nn.{layer}.macs_per_byte"] = (_intensity([nominal[layer]])
                                            if layer in nominal else 0.0)
    out["nn.elementwise.fwd_ms"] = per_op(tracer.self_s["nn.elementwise.fwd"])
    out["nn.elementwise.bwd_ms"] = per_op(tracer.self_s["nn.elementwise.bwd"])
    out["nn.adam_step.ms"] = per_op(tracer.self_s["nn.adam_step"])
    out.update(_stage_shares(tracer, workload))
    out["trace.overhead_share"] = overhead_share
    out["vqvae.train.recon_mse"] = workload.extra.get("vq_recon_mse", 0.0)
    out["fusion.train.eval_bce"] = workload.extra.get("head_eval_bce", 0.0)
    return out
