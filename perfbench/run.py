"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src. With
--trace 0 it prints the end-to-end metrics, measured with no wrapper
installed. With --trace 1 it measures untraced for half the time and traced
for the other half, prints the per-layer table beside the cost model, and
reports the per-layer metrics. The last line of stdout is the JSON result;
the line before it is the host, build and run record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1  # fixed, and no more than the 2 vCPUs the reference host has
# OpenBLAS reads these once, when numpy first loads it: set them before that
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import reference  # noqa: E402  (imports numpy)
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
WORKLOADS = ("infer_unified", "infer_baseline", "train_encoder", "train_head")
WARMUP_INPUT = 2 ** 31 - 1  # input index of the untimed first call, unused by the timed ones

# (name, unit, better, bound); bound is the share of the parent's median by
# which a later change may worsen the metric
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_share", "ratio", "higher", 0.01),
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_library():
    """Import latentfuse from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import latentfuse
    if Path(latentfuse.__file__).resolve().parent != SRC / "latentfuse":
        raise ImportError(f"latentfuse imported from {latentfuse.__file__}, not {SRC}")


class Measurement:
    """Timed calls of one workload; every output is checked outside the timing.

    `call_s` holds each completed call's wall seconds and `ref_call_s` the
    same interval in reference-host seconds (see reference.py).
    """

    def __init__(self, workload):
        self.workload = workload
        self.clock = reference.Clock()
        self.call_s: list[float] = []
        self.ref_call_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, first: int, tracer=None, probes=()) -> None:
        wl, i, spent = self.workload, first, 0.0
        while spent < seconds:
            inp = wl.make_input(i)
            if tracer is not None:
                tracer.op = i
            self.clock.mark()
            with (tracing.installed(probes, tracer) if tracer is not None
                  else contextlib.nullcontext()):
                t0 = time.perf_counter()
                try:
                    out, error = wl.run(inp), None
                except Exception:
                    out, error = None, traceback.format_exc()
                elapsed = time.perf_counter() - t0
            factor = self.clock.scale()
            if error is None:
                try:
                    problems = wl.check(inp, out)
                except Exception:
                    problems = [traceback.format_exc()]
                self.call_s.append(elapsed)
                self.ref_call_s.append(elapsed * factor)
            else:
                problems = [error]
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"perfbench: {wl.name} input {i} failed: {problems}", file=sys.stderr)
            spent += elapsed
            i += 1

    def op_ms(self, ref: bool = True) -> list[float]:
        calls = self.ref_call_s if ref else self.call_s
        return [1e3 * s / self.workload.per_call for s in calls]

    def items_per_s(self, ref: bool = True) -> float:
        calls = self.ref_call_s if ref else self.call_s
        return self.workload.items_per_op * self.workload.per_call * len(calls) / sum(calls)


def _setup(workload, repeats: int) -> tuple[list[float], list[float]]:
    """Wall and reference-host seconds of each of `repeats` set-ups."""
    clock, wall, ref = reference.Clock(), [], []
    for _ in range(repeats):
        clock.mark()
        t0 = time.perf_counter()
        workload.setup()
        wall.append(time.perf_counter() - t0)
        ref.append(wall[-1] * clock.scale())
    return wall, ref


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "latentfuse" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'latentfuse'}", file=sys.stderr)
        return 2
    _import_library()
    import hostinfo
    import layers
    import workloads

    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, str(workdir))
    if tracing.wrapped_attrs(layers.probes(set())):
        raise RuntimeError("library functions are wrapped before the run")
    setup_wall, setup_ref = _setup(wl, 1 if args.trace else SETUP_REPEATS)
    warm = Measurement(wl)
    warm.run(1e-9, first=WARMUP_INPUT)  # one call, not reported, fills lazy caches
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op": wl.op_name, "blas_threads": BLAS_THREADS,
              "host": hostinfo.record(ROOT, SRC)}

    plain = Measurement(wl)
    runs = [warm, plain]
    if not args.trace:
        plain.run(args.seconds, first=0)
        ops = plain.op_ms()
        pct, tail, beyond = tracing.tail_percentile(ops)
        values = {
            "setup_s": statistics.median(setup_ref),
            "op_p50_ms": statistics.median(ops),
            "op_tail_ms": tail,
            "items_per_s": plain.items_per_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": sum(m.attempted - m.failed for m in runs) / sum(m.attempted for m in runs),
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
        wall_ops = plain.op_ms(ref=False)
        record.update(ops=len(ops), tail_percentile=pct, tail_beyond=beyond, extra=wl.extra,
                      reference_ms=1e3 * statistics.median(plain.clock.reference_s),
                      wall={"setup_s": statistics.median(setup_wall),
                            "op_p50_ms": statistics.median(wall_ops),
                            "op_tail_ms": tracing.tail_percentile(wall_ops)[1],
                            "items_per_s": plain.items_per_s(ref=False)})
    else:
        plain.run(args.seconds / 2, first=0)
        codes: set[int] = set()
        probes = layers.probes(codes)
        tracer = tracing.Tracer()
        traced = Measurement(wl)
        runs.append(traced)
        traced.run(args.seconds / 2, first=len(plain.call_s), tracer=tracer, probes=probes)
        leftover = tracing.wrapped_attrs(probes)
        if leftover:
            raise RuntimeError(f"wrappers left installed after the traced run: {leftover}")
        base = statistics.median(plain.op_ms())
        overhead = (statistics.median(traced.op_ms()) - base) / base
        ops = len(traced.call_s) * wl.per_call
        table = layers.join(tracer, wl)
        print("\n".join(layers.format_table(table, ops, wl.op_name)))
        values = layers.metrics(tracer, wl, ops, codes, overhead)
        units = {name: unit for name, unit, _ in layers.metric_specs()}
        spans_path = workdir / f"spans-seed{args.seed}.csv"
        tracer.write_spans(str(spans_path))
        record.update(traced_ops=ops, spans=str(spans_path.relative_to(ROOT)),
                      extra=wl.extra)

    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    print("perfbench record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
