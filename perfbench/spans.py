"""Spans around calls into qrng_audit's public functions, and the self-time
arithmetic of the span tree.

The recorder replaces each traced function, wherever a qrng_audit module
holds a reference to it, with a wrapper that records one span per call:
name, start, end and parent, all under one trace id. Nothing inside the
package changes; the wrappers are removed again when tracing ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

# (module, function, span name). Spans are named after the layer (module)
# they measure; the cli stage functions are named after their subcommand.
TRACED: tuple[tuple[str, str, str], ...] = (
    ("cli", "cmd_pipeline", "cli.pipeline"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_test", "cli.test"),
    ("cli", "cmd_aggregate", "cli.aggregate"),
    ("cli", "cmd_oracle", "cli.oracle"),
    ("simulate", "generate_device_run", "simulate.generate_device_run"),
    ("ingest", "serialize_jobs", "ingest.serialize_jobs"),
    ("ingest", "serialize_calibration", "ingest.serialize_calibration"),
    ("ingest", "parse_jobs", "ingest.parse_jobs"),
    ("ingest", "write_results", "ingest.write_results"),
    ("ingest", "read_results", "ingest.read_results"),
    ("ingest", "parse_calibration", "ingest.parse_calibration"),
    ("autocorr", "run_test", "autocorr.run_test"),
    ("autocorr", "autocorr_statistic", "autocorr.autocorr_statistic"),
    ("autocorr", "p_value", "autocorr.p_value"),
    ("special", "erfc", "special.erfc"),
    ("aggregate", "build_matrix", "aggregate.build_matrix"),
    ("aggregate", "matrix_from_results", "aggregate.matrix_from_results"),
    ("aggregate", "build_report", "aggregate.build_report"),
    ("aggregate", "write_report_csv", "aggregate.write_report_csv"),
    ("aggregate", "write_scatter_csv", "aggregate.write_scatter_csv"),
    ("oracle", "exact_distribution_binomial", "oracle.exact_distribution_binomial"),
    ("oracle", "exact_distribution_enumerate", "oracle.exact_distribution_enumerate"),
    ("oracle", "approximation_error", "oracle.approximation_error"),
)

LAYERS = ("cli", "simulate", "ingest", "autocorr", "special", "aggregate", "oracle")


@dataclass(slots=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Collects spans in memory. Spans opened on a worker thread with no
    open span of its own take the innermost open span of the thread that
    created the recorder as parent (the program's thread pool runs
    ``run_test`` on behalf of ``build_matrix``)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), parent.span_id if parent else None, name,
                    time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[Counter, tuple, object], None] | None = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if observe is not None:
                observe(recorder.counts, args, result)
            return result

        return traced


class Patched:
    """Context manager that swaps every qrng_audit reference to each traced
    function for a recording wrapper, and restores them on exit.

    A traced function that no longer exists is listed in ``missing``; its
    layer metrics are then reported as missing, never as a failure.
    """

    def __init__(self, recorder: Recorder,
                 observers: dict[str, Callable] | None = None,
                 traced: Iterable[tuple[str, str, str]] = TRACED):
        self.recorder = recorder
        self.observers = observers or {}
        self.traced = tuple(traced)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "qrng_audit" or key.startswith("qrng_audit."))]
        for module_name, func_name, span_name in self.traced:
            module = sys.modules.get(f"qrng_audit.{module_name}")
            original = getattr(module, func_name, None) if module else None
            if not callable(original):
                self.missing.append(span_name)
                continue
            wrapper = self.recorder.wrap(span_name, original,
                                         self.observers.get(span_name))
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (children on parallel threads may overlap,
    so the covered part is a union, not a sum)."""
    spans = list(spans)
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    out = {}
    for span in spans:
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(span.span_id, ())]
        covered = covered_length((a, b) for a, b in clipped if b > a)
        out[span.span_id] = span.duration - covered
    return out


def outermost_time(spans: Iterable[Span], name: str) -> float:
    """Total time inside spans called ``name``, counting a span nested in a
    span of the same name once."""
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent_id)
        if parent is not None and parent.name == name:
            continue
        total += span.duration
    return total


def layer_self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    spans = list(spans)
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[layer_of(span.name)] += selfs[span.span_id]
    return dict(out)


def write_spans(path, trace_id: str, spans: Iterable[Span]) -> None:
    """One CSV row per span, times relative to the earliest start."""
    spans = sorted(spans, key=lambda s: s.start)
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        fh.write("trace_id,span_id,parent_id,name,start_s,end_s\n")
        for s in spans:
            parent = "" if s.parent_id is None else s.parent_id
            fh.write(f"{trace_id},{s.span_id},{parent},{s.name},"
                     f"{s.start - origin:.9f},{s.end - origin:.9f}\n")
