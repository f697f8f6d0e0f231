"""Command-line surface for the full pipeline.

Subcommands: ingest, dump, train-encoder, encode, train-classifier, eval,
bench. Everything except paths and the permutation id comes from a
key=value config file so a run is reproducible from its manifest; every
command logs the fully-resolved config it ran with.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.

File formats (full layouts in docs/formats.md):
- .lsfd windowed dataset: magic "LSFD", version, modality name table,
  window length, then per window: modality id, start index, label, and
  float32 samples.
- .lsfl latent dataset: magic "LSFL", version, codebook size K, code
  dimension D, grid size g, the K x D float32 codebook, modality name
  table, then per entry: modality id, start index, label, g x g u16 code
  indices. Readers rebuild each quantized tensor by codebook lookup.
- .lsfw weights are documented beside their module.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import logging
import os
import statistics
import struct
import sys

import numpy as np

from . import baseline as baseline_mod
from . import binio, costmodel, hostinfo, pipeline, vqvae
from .errors import DataError, NumericError, TruncatedPayloadError, UsageError
from .fusion import (ClassifierConfig, SequenceSample, evaluate, load_head,
                     save_head, train_classifier, write_training_curve)
from .ingest import (Window, load_labels, load_stream, prepare_stream,
                     window_stream)
from .spectral import TAPERS, SpectralConfig
from .vqvae import (GRID, Codebook, VqVaeConfig, build_model, load_model,
                    save_model, train_vqvae, write_loss_curve)

log = logging.getLogger(__name__)

_DATASET_MAGIC = b"LSFD"
_LATENT_MAGIC = b"LSFL"
_FORMAT_VERSION = 1
_LATENT_VERSION = 2

EXIT_CODES = {UsageError: 1, DataError: 2, NumericError: 3}


# smallest accepted value of each range-checked config key
_MINIMUM = {"seed": 0, "window_len": 1, "stride": 1, "frame_len": 1, "hop": 1,
            "codebook_size": 2, "embed_dim": 1, "steps": 0, "batch": 1,
            "epochs": 1, "seq_len": 1, "beta": 0.0, "resample_hz": 0.0,
            "energy_per_mac": 0.0, "threshold": 0.0}


def _out_of_range(key: str, value) -> str | None:
    """Why a config value is refused, or None when it is accepted."""
    if isinstance(value, float) and not np.isfinite(value):
        return "must be finite"
    if key in _MINIMUM and value < _MINIMUM[key]:
        return f"must be at least {_MINIMUM[key]}"
    if key == "frame_len" and value % 2:
        return "must be even"
    if key == "taper" and value not in TAPERS:
        return f"must be one of {', '.join(TAPERS)}"
    if key == "lr" and value <= 0:
        return "must be positive"
    if key == "threshold" and value > 1:
        return "must be at most 1"
    return None


@dataclasses.dataclass
class RunConfig:
    """Typed view of the key=value config file."""

    seed: int = 0
    window_len: int = 128
    stride: int = 96
    frame_len: int = 64
    hop: int = 1
    taper: str = "hann"
    floor_db: float = -80.0
    codebook_size: int = 128
    embed_dim: int = 16
    beta: float = 0.25
    lr: float = 2e-3
    steps: int = 500
    batch: int = 8
    epochs: int = 30
    seq_len: int = 8
    threshold: float = 0.5
    resample_hz: float = 0.0
    energy_per_mac: float = costmodel.ENERGY_PER_MAC

    @classmethod
    def from_file(cls, path: str | None) -> "RunConfig":
        cfg = cls()
        if path is None:
            return cfg
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        casts = {"int": int, "float": float, "str": str}
        lines: dict[str, int] = {}
        text = binio.read_text(path, "config file")
        for line_no, line in enumerate(io.StringIO(text), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise UsageError(f"{path}: line {line_no}: unknown config key {key!r}")
            try:
                setattr(cfg, key, casts[fields[key]](value))
            except ValueError:
                raise UsageError(f"{path}: line {line_no}: bad value for {key}: "
                                 f"{value!r}") from None
            problem = _out_of_range(key, getattr(cfg, key))
            if problem:
                raise UsageError(f"{path}: line {line_no}: {key} {problem}, got {value!r}")
            lines[key] = line_no
        if cfg.stride > cfg.window_len:
            line_no = max(lines.get("stride", 0), lines.get("window_len", 0))
            raise UsageError(f"{path}: line {line_no}: stride {cfg.stride} exceeds "
                             f"window_len {cfg.window_len}")
        if cfg.frame_len > cfg.window_len:
            line_no = max(lines.get("frame_len", 0), lines.get("window_len", 0))
            raise UsageError(f"{path}: line {line_no}: frame_len {cfg.frame_len} "
                             f"exceeds window_len {cfg.window_len}")
        return cfg

    def spectral(self) -> SpectralConfig:
        return SpectralConfig(self.frame_len, self.hop, self.taper, self.floor_db)

    def pipeline(self) -> pipeline.PipelineConfig:
        return pipeline.PipelineConfig(self.window_len, self.stride, self.seq_len,
                                       self.spectral())

    def vqvae(self) -> VqVaeConfig:
        return VqVaeConfig(self.codebook_size, self.embed_dim, self.beta, self.lr,
                           self.steps, self.batch, self.seed)

    def classifier(self) -> ClassifierConfig:
        return ClassifierConfig(self.lr, self.epochs, self.batch, self.seed)


def _log_config(cfg: RunConfig, command: str) -> None:
    resolved = " ".join(f"{k}={v}" for k, v in dataclasses.asdict(cfg).items())
    log.info("%s: config %s", command, resolved)


# ---------------------------------------------------------------------------
# Dataset container (.lsfd)
# ---------------------------------------------------------------------------

def _write_name_table(fh, names: list[str]) -> None:
    fh.write(struct.pack("<H", len(names)))
    for name in names:
        raw = name.encode("utf-8")
        fh.write(struct.pack("<H", len(raw)))
        fh.write(raw)


def _read_name_table(data: bytes, offset: int, path: str) -> tuple[list[str], int]:
    (count,), offset = binio.unpack("<H", data, offset, path, "name table")
    names = []
    for i in range(count):
        name, offset = binio.read_name(data, offset, path, f"modality name {i}")
        names.append(name)
    return names, offset


def _read_records(data: bytes, offset: int, path: str, names: list[str],
                  what: str, dtype: str, count: int):
    """Yield (modality, start, label, values) per record of a container body:
    a u32 record count, then per record a u16 modality id, u32 start, u8
    label and `count` values of `dtype` (a read-only view of `data`)."""
    (total,), offset = binio.unpack("<I", data, offset, path, "header")
    size = 7 + np.dtype(dtype).itemsize * count
    for i in range(total):
        if offset + size > len(data):
            raise TruncatedPayloadError(f"{path}: truncated at {what} {i} of {total}")
        mod_id, start, label = struct.unpack_from("<HIB", data, offset)
        if mod_id >= len(names) or label > 1:
            raise DataError(f"{path}: {what} {i} has modality id {mod_id} and label "
                            f"{label}; ids stop at {len(names) - 1}, labels are 0 or 1")
        yield names[mod_id], start, label, np.frombuffer(data, dtype, count, offset + 7)
        offset += size


def write_dataset(path: str, windows: dict[str, list[Window]],
                  window_len: int) -> None:
    names = sorted(windows)
    name_id = {n: i for i, n in enumerate(names)}
    with open(path, "wb") as fh:
        fh.write(_DATASET_MAGIC)
        fh.write(struct.pack("<I", _FORMAT_VERSION))
        _write_name_table(fh, names)
        total = sum(len(ws) for ws in windows.values())
        fh.write(struct.pack("<II", window_len, total))
        for name in names:
            for w in windows[name]:
                fh.write(struct.pack("<HIB", name_id[name], w.start_index, w.label))
                fh.write(w.values.astype("<f4").tobytes())


def read_dataset(path: str) -> tuple[dict[str, list[Window]], int]:
    data, offset = binio.read_file(path, _DATASET_MAGIC, _FORMAT_VERSION,
                                   "dataset file", "re-run ingest")
    names, offset = _read_name_table(data, offset, path)
    (window_len,), offset = binio.unpack("<I", data, offset, path, "header")
    if window_len < 1:
        raise DataError(f"{path}: window length {window_len}, expected at least 1")
    windows: dict[str, list[Window]] = {n: [] for n in names}
    for name, start, label, values in _read_records(data, offset, path, names,
                                                    "window", "<f4", window_len):
        windows[name].append(Window(start, values.astype(np.float64), label))
    return windows, window_len


# ---------------------------------------------------------------------------
# Latent container (.lsfl)
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class LatentEntry:
    modality: str
    start: int
    label: int
    indices: np.ndarray


def write_latents(path: str, entries: list[LatentEntry], codebook: Codebook,
                  grid: int) -> None:
    if codebook.k > 1 << 16:
        raise UsageError(f"{path}: u16 indices cannot name {codebook.k} codes")
    names = sorted({e.modality for e in entries})
    name_id = {n: i for i, n in enumerate(names)}
    with open(path, "wb") as fh:
        fh.write(_LATENT_MAGIC)
        fh.write(struct.pack("<IIII", _LATENT_VERSION, codebook.k, codebook.d, grid))
        fh.write(np.ascontiguousarray(codebook.entries, dtype="<f4").tobytes())
        _write_name_table(fh, names)
        fh.write(struct.pack("<I", len(entries)))
        for e in entries:
            fh.write(struct.pack("<HIB", name_id[e.modality], e.start, e.label))
            fh.write(e.indices.astype("<u2").tobytes())


def read_latents(path: str) -> tuple[list[LatentEntry], Codebook]:
    data, offset = binio.read_file(path, _LATENT_MAGIC, _LATENT_VERSION,
                                   "latent file", "re-run encode")
    (k, d, grid), offset = binio.unpack("<III", data, offset, path, "header")
    if k < 2 or d < 1 or grid < 1:
        raise DataError(f"{path}: codebook has shape {(k, d)} and grid {grid}, "
                        f"expected at least 2 codes of dimension at least 1 on a "
                        f"grid of at least 1")
    if offset + 4 * k * d > len(data):
        raise TruncatedPayloadError(f"{path}: truncated {k} x {d} codebook")
    codebook = Codebook(np.frombuffer(data, "<f4", k * d, offset).reshape(k, d).copy())
    offset += 4 * k * d
    names, offset = _read_name_table(data, offset, path)
    entries = []
    for name, start, label, indices in _read_records(data, offset, path, names,
                                                     "entry", "<u2", grid * grid):
        if (indices >= k).any():
            raise DataError(f"{path}: {name} entry at start {start} holds code "
                            f"index {int(indices.max())}, codebook has {k} codes")
        entries.append(LatentEntry(name, start, label,
                                   indices.reshape(grid, grid).copy()))
    return entries, codebook


def sequences_from_latents(entries: list[LatentEntry], codebook: Codebook,
                           modalities: tuple[str, ...],
                           seq_len: int) -> list[SequenceSample]:
    """Rebuild the requested modalities' latents and align them by start."""
    coded: dict[str, dict[int, tuple[np.ndarray, int]]] = {}
    for e in entries:
        if e.modality in modalities:
            coded.setdefault(e.modality, {})[e.start] = (codebook.lookup(e.indices),
                                                         e.label)
    return pipeline.aligned_sequences(coded, modalities, seq_len)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_schema(text: str) -> dict[str, str]:
    schema = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"schema entry {part!r} is not column=modality")
        col, mod = (p.strip() for p in part.split("=", 1))
        schema[col] = mod
    if not schema:
        raise UsageError("schema is empty")
    return schema


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    _log_config(cfg, "ingest")
    schema = _parse_schema(args.schema)
    stream = load_stream(args.csv, schema)
    if args.labels:
        labels = load_labels(args.labels)  # the file's own faults come first
        if "label" in schema.values():
            raise UsageError(f"labels given twice: by a --schema column mapped to "
                             f"'label' and by --labels {args.labels}")
        stream.labels = labels
    if cfg.resample_hz > 0:
        stream = prepare_stream(stream, cfg.resample_hz)
    else:
        from .ingest import forward_fill
        stream = dataclasses.replace(
            stream, channels={n: forward_fill(c)
                              for n, c in stream.channels.items()})
    stream = pipeline.derive_acc_magnitude(stream)
    windows = window_stream(stream, cfg.window_len, cfg.stride)
    write_dataset(args.out, windows, cfg.window_len)
    total = sum(len(ws) for ws in windows.values())
    log.info("wrote %d windows over %d channels to %s", total, len(windows),
             args.out)
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise UsageError(f"--limit must be at least 0, got {args.limit}")
    windows, window_len = read_dataset(args.data)
    printed = 0
    for name in sorted(windows):
        for w in windows[name]:
            if args.limit and printed >= args.limit:
                return 0
            values = ",".join(f"{v:.9g}" for v in w.values)
            print(f"{name},{w.start_index},{w.label},{values}")
            printed += 1
    return 0


def _check_writable(*paths: str | None) -> None:
    """Raise the OSError that writing any of `paths` (None skipped) would
    raise, leaving no file behind and an existing one unchanged, so an
    output that cannot be written fails a run before it trains."""
    for path in paths:
        if path is None:
            continue
        existed = os.path.lexists(path)
        with open(path, "ab"):
            pass
        if not existed:
            os.remove(path)


def cmd_train_encoder(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    _log_config(cfg, "train-encoder")
    if args.synthetic < 0:
        raise UsageError(f"--synthetic must be at least 0, got {args.synthetic}")
    _check_writable(args.out, args.curve)
    if args.data:
        windows, _ = read_dataset(args.data)
        ordered = {name: windows[name] for name in sorted(windows)}
        rendered = pipeline.encode_windows(lambda name, images: images, ordered,
                                           cfg.spectral())
        images = vqvae.image_batch([im for ims in rendered.values() for im in ims])
    else:
        from .synthetic import make_images
        images = make_images(args.synthetic, cfg.seed)
    model, curve = train_vqvae(images, cfg.vqvae())
    save_model(model, args.out)
    if args.curve:
        write_loss_curve(args.curve, curve)
    log.info("trained on %d images for %d steps; final loss %.6f -> %s",
             images.shape[0], cfg.steps, curve[-1].total if curve else float("nan"),
             args.out)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    _log_config(cfg, "encode")
    model = load_model(args.model)
    windows, window_len = read_dataset(args.data)
    ordered = {name: windows[name] for name in sorted(windows)}
    codes = pipeline.encode_windows(
        lambda name, images: list(vqvae.quantize(vqvae.encode(model, images),
                                                 model.codebook).indices),
        ordered, cfg.spectral())
    entries = [LatentEntry(name, w.start_index, w.label, indices)
               for name, ws in ordered.items() for w, indices in zip(ws, codes[name])]
    write_latents(args.out, entries, model.codebook, GRID)
    used, perplexity = vqvae.code_usage(
        np.array([e.indices for e in entries], dtype=np.int64), model.codebook.k)
    log.info("encoded %d windows -> %s; %d of %d codes used, perplexity %.2f",
             len(entries), args.out, used, model.codebook.k, perplexity)
    return 0


def _resolve_modalities(args: argparse.Namespace) -> tuple[str, ...]:
    """--modalities, else --permutation: argparse requires exactly one."""
    if args.modalities is not None:
        return pipeline.permutation_modalities(
            [m.strip() for m in args.modalities.split(",") if m.strip()])
    return pipeline.permutation_modalities(args.permutation)


def cmd_train_classifier(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    _log_config(cfg, "train-classifier")
    modalities = _resolve_modalities(args)
    _check_writable(args.out, args.curve)
    entries, codebook = read_latents(args.latents)
    samples = sequences_from_latents(entries, codebook, modalities, cfg.seq_len)
    head, curve = train_classifier(samples, cfg.classifier())
    save_head(head, args.out)
    if args.curve:
        write_training_curve(args.curve, curve)
    log.info("trained head on %d sequences (%s); final accuracy %.3f -> %s",
             len(samples), "+".join(modalities),
             curve[-1].accuracy if curve else float("nan"), args.out)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    _log_config(cfg, "eval")
    entries, codebook = read_latents(args.latents)
    modalities = _resolve_modalities(args)
    samples = sequences_from_latents(entries, codebook, modalities, cfg.seq_len)
    head = load_head(args.head)
    metrics = evaluate(head, samples, cfg.threshold)
    text = metrics.to_json()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _bench_metrics_rows(cfg: RunConfig) -> list[dict]:
    """Train and evaluate the unified pipeline per fusion size on synthetic data."""
    from .synthetic import make_images, make_stream

    model, _ = train_vqvae(make_images(64, cfg.seed), cfg.vqvae())
    system = pipeline.UnifiedSystem(model)
    pcfg = cfg.pipeline()
    train_stream = make_stream(seed=cfg.seed + 10)
    eval_stream = make_stream(seed=cfg.seed + 11)
    rows = []
    for m in sorted(pipeline.PERMUTATIONS):
        train_samples = pipeline.stream_to_sequences(system, train_stream, m, pcfg)
        eval_samples = pipeline.stream_to_sequences(system, eval_stream, m, pcfg)
        head, _ = train_classifier(train_samples, cfg.classifier())
        metrics = evaluate(head, eval_samples, cfg.threshold)
        rows.append({"m": m, "accuracy": metrics.accuracy, "f1": metrics.f1,
                     "auc": "" if metrics.auc is None else metrics.auc})
        log.info("fusion m=%d: accuracy %.3f f1 %.3f", m, metrics.accuracy,
                 metrics.f1)
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    _log_config(cfg, "bench")
    if args.repeat < 1:
        raise UsageError(f"--repeat must be at least 1, got {args.repeat}")
    os.makedirs(args.out_dir, exist_ok=True)
    pcfg = cfg.pipeline()
    # seeded-initialization systems of the config's architecture: encode time
    # depends on shapes, not on trained weights
    unified = pipeline.UnifiedSystem(build_model(cfg.codebook_size, cfg.embed_dim,
                                                 cfg.seed))
    base = baseline_mod.BaselineSystem(
        {name: baseline_mod.build_encoder(name, cfg.embed_dim, cfg.seed + i)
         for i, name in enumerate(pipeline.PERMUTATIONS[6])}, head=None)

    rows = costmodel.scaling_table((1, 2, 3, 4, 5, 6), cfg.embed_dim,
                                   cfg.codebook_size, 1, cfg.window_len,
                                   cfg.spectral())
    runs = []
    blas_threads = hostinfo.blas_threads()  # GEMM threads behind every timing
    for row in rows:
        for name, system in (("unified", unified), ("baseline", base)):
            seconds = pipeline.encoding_runs(system, row["m"], args.repeat, pcfg)
            row[f"runtime_s_{name}"] = statistics.median(seconds)
            row[f"{name}_energy_j"] = f"{row[f'{name}_macs'] * cfg.energy_per_mac:.6e}"
            runs += [{"m": row["m"], "system": name, "run": i, "seconds": f"{t:.9f}"}
                     for i, t in enumerate(seconds)]
        log.info("fig3 m=%d: %.2f ms unified, %.2f ms baseline per pass "
                 "(one runner, %s BLAS threads)", row["m"],
                 1e3 * row["runtime_s_unified"], 1e3 * row["runtime_s_baseline"],
                 blas_threads)

    def write(filename: str, cols: list[str], table: list[dict]) -> None:
        with open(os.path.join(args.out_dir, filename), "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in table:
                fh.write(",".join(str(row[c]) for c in cols) + "\n")

    write("scaling_table.csv", ["m", "unified_macs", "baseline_macs", "unified_params",
                                "baseline_params", "unified_loads", "baseline_loads",
                                "runtime_s_unified", "runtime_s_baseline"], rows)
    write("fig3_runtime.csv", ["m", "runtime_s_unified", "runtime_s_baseline"], rows)
    write("fig3_runs.csv", ["m", "system", "run", "seconds"], runs)
    write("fig5_macs.csv", ["m", "unified_macs", "baseline_macs", "unified_energy_j",
                            "baseline_energy_j"], rows)
    if args.skip_metrics:
        log.info("skipping fig4 metrics (--skip-metrics)")
    else:
        write("fig4_metrics.csv", ["m", "accuracy", "f1", "auc"], _bench_metrics_rows(cfg))
    log.info("benchmark data written to %s", args.out_dir)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code table."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="latentfuse",
                     description="Latent sensor fusion pipeline: spectral "
                                 "abstraction, shared encoding, fusion, and "
                                 "cost accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="CSV stream -> windowed dataset (.lsfd)")
    p.add_argument("--csv", required=True, help="input CSV with timestamp column")
    p.add_argument("--schema", required=True,
                   help="column=modality pairs, comma separated; map a column "
                        "to 'label' for inline labels")
    p.add_argument("--labels", help="separate start_index,label CSV")
    p.add_argument("--out", required=True, help="output .lsfd path")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("dump", help="print windows from a dataset file")
    p.add_argument("--data", required=True, help=".lsfd path")
    p.add_argument("--limit", type=int, default=0, help="max windows to print")
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("train-encoder", help="train the shared encoder")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--synthetic", type=int, default=0, metavar="N",
                        help="train on N generated generic images")
    source.add_argument("--data", help="train on a windowed dataset's (.lsfd) images instead")
    p.add_argument("--out", required=True, help="output weights (.lsfw)")
    p.add_argument("--curve", help="write per-step loss CSV here")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(fn=cmd_train_encoder)

    p = sub.add_parser("encode", help="dataset windows -> latent codes (.lsfl)")
    p.add_argument("--model", required=True, help="encoder weights (.lsfw)")
    p.add_argument("--data", required=True, help="windowed dataset (.lsfd)")
    p.add_argument("--out", required=True, help="output latents (.lsfl)")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("train-classifier", help="train the fusion head")
    p.add_argument("--latents", required=True, help="latents file (.lsfl)")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--permutation", type=int, choices=range(1, 7),
                       help="fusion permutation id (cumulative modality sets)")
    which.add_argument("--modalities", help="explicit comma-separated modality list")
    p.add_argument("--out", required=True, help="output head weights (.lsfw)")
    p.add_argument("--curve", help="write per-epoch loss/accuracy CSV here")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(fn=cmd_train_classifier)

    p = sub.add_parser("eval", help="evaluate a trained head on latents")
    p.add_argument("--latents", required=True, help="latents file (.lsfl)")
    p.add_argument("--head", required=True, help="head weights (.lsfw)")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--permutation", type=int, choices=range(1, 7))
    which.add_argument("--modalities", help="explicit comma-separated modality list")
    p.add_argument("--out", help="also write the metrics JSON here")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="emit scaling/runtime/metrics figure data "
                                     "for the config's architecture")
    p.add_argument("--out-dir", default="bench_out", help="output directory")
    p.add_argument("--repeat", type=int, default=10, help="timed runs per point")
    p.add_argument("--skip-metrics", action="store_true",
                   help="skip the trained-accuracy sweep (fig4)")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        base = next(cls for cls in EXIT_CODES if isinstance(exc, cls))
        # UsageError -> "usage error", DataError -> "data error", ...
        print(f"{base.__name__.removesuffix('Error').lower()} error: {exc}",
              file=sys.stderr)
        return EXIT_CODES[base]
    except OSError as exc:
        # a path the system cannot open, read or write is bad data too
        name = "" if exc.filename is None else f"{exc.filename}: "
        print(f"data error: {name}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CODES[DataError]


if __name__ == "__main__":
    sys.exit(main())
