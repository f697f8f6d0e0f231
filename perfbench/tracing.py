"""Span recording for the benchmark's traced run.

The traced run replaces chosen library module attributes with wrappers
that open and close a span around each call, and puts the originals back
when it ends; the untraced run never sees a wrapper. Spans nest through a
stack, so a span's self time is its duration minus the time covered by its
direct children. This module knows nothing about the library it traces.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable

_MARK = "__perfbench_span__"


class Tracer:
    """Spans kept in memory, plus per-name self time, total time and calls.

    `op` is the workload operation the next spans belong to; every span of
    one operation carries the same number. `counts` holds counters that
    observers record at the same boundaries as the spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.op = 0
        self.spans: list[tuple[int, str, float, float, int] | None] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[list] = []  # [span index, name, start, child seconds]

    def enter(self, name: str) -> None:
        self.spans.append(None)
        self._open.append([len(self.spans) - 1, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        index, name, start, child = self._open.pop()
        duration = end - start
        parent = self._open[-1][0] if self._open else -1
        self.spans[index] = (self.op, name, start, end, parent)
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._open:
            self._open[-1][3] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def write_spans(self, path: str) -> None:
        """CSV of every closed span: op,span,parent,name,start_us,end_us."""
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_us,end_us\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                op, name, start, end, parent = span
                fh.write(f"{op},{i},{parent},{name},{start * 1e6:.1f},{end * 1e6:.1f}\n")


@dataclass(frozen=True)
class Probe:
    """One module attribute to trace.

    `name` is the span name, or a function of the call's arguments that
    returns it. `observe(tracer, args, result)` runs after the call and
    outside the span, to record counts.
    """

    module: Any
    attr: str
    name: str | Callable[..., str]
    observe: Callable[[Tracer, tuple, Any], None] | None = None


def wrap(fn: Callable, tracer: Tracer, probe: Probe) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = probe.name(*args, **kwargs) if callable(probe.name) else probe.name
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if probe.observe is not None:
            probe.observe(tracer, args, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def is_wrapper(fn: Any) -> bool:
    return getattr(fn, _MARK, False) is True


def wrapped_attrs(probes: Iterable[Probe]) -> list[str]:
    """Probed attributes that currently hold a wrapper; empty when untraced."""
    return [f"{p.module.__name__}.{p.attr}" for p in probes
            if is_wrapper(getattr(p.module, p.attr))]


@contextmanager
def installed(probes: Iterable[Probe], tracer: Tracer):
    """Install a wrapper on every probed attribute; restore them all on exit."""
    saved = []
    try:
        for p in probes:
            original = getattr(p.module, p.attr)
            if is_wrapper(original):
                raise RuntimeError(f"{p.module.__name__}.{p.attr} is already traced")
            saved.append((p.module, p.attr, original))
            setattr(p.module, p.attr, wrap(original, tracer, p))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def tail_percentile(samples: Iterable[float], beyond: int = 10
                    ) -> tuple[float, float, int]:
    """(percentile, value, samples above it) for the highest percentile that
    leaves at least `beyond` samples above it: the (beyond+1)-th largest.

    With fewer than 2 * beyond + 1 samples that would fall below the median,
    so the upper median (never below statistics.median) is returned with the
    count above it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(n - beyond, n // 2 + 1)  # 1-based
    return 100.0 * rank / n, xs[rank - 1], n - rank
