"""In-memory span tracing for the benchmark, applied from outside the package.

A span is one timed call: name, start, end, the index of the span that was
open when it began (its parent), the workload operation it belongs to
(a train step, an eval case or a gradcheck suite; None during set-up and
the post-run checks) and a small tuple of attributes such as a conv shape.
Spans stay in a list until the run ends; nothing is written while timing.

Instrumentation replaces functions at their module attributes, so it sees
only calls that look the attribute up at call time (``layers.conv2d(...)``
or a module-global name inside the defining module), and `instrument`
puts every original back when it exits, even on an exception.

This module imports nothing from the package or numpy, so its logic can be
tested on constructed traces.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from dataclasses import dataclass

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """Collects spans for one run. Single-threaded: the open-span stack is
    shared by every wrapper the tracer makes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.op = None            # id of the workload operation in progress
        self._stack: list[int] = []

    def _open(self, name: str, attrs) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, label):
        """`fn` with a span around every call; `label(args, kwargs)` returns
        (span name, attrs) and runs before the clock starts."""
        def traced(*args, **kwargs):
            rec = self._open(*label(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, start/end in seconds from the
        first span; `parent` is the line number (0-based) of the parent."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START] - t0, "end": rec[END] - t0,
                    "parent": rec[PARENT], "workload": self.workload, "op": rec[OP],
                    "attrs": rec[ATTRS],
                }) + "\n")


@dataclass(frozen=True)
class Target:
    """One function to trace: `module.attr`, named by `label(args, kwargs)`."""

    module: object
    attr: str
    label: object


def fixed(name: str):
    """Label function for a span whose name does not depend on the call."""
    return lambda args, kwargs: (name, None)


@contextlib.contextmanager
def instrument(tracer: Tracer, targets: list[Target]):
    """Replace each target with a traced wrapper; restore all on exit.
    Targets missing from their module are skipped and yielded back."""
    saved = []
    missing = []
    try:
        for t in targets:
            if not hasattr(t.module, t.attr):
                missing.append(f"{t.module.__name__}.{t.attr}")
                continue
            orig = getattr(t.module, t.attr)
            saved.append((t.module, t.attr, orig))
            setattr(t.module, t.attr, tracer.wrap(orig, t.label))
        yield missing
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of its interval covered by
    the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((hi - lo) - covered)
    return out
