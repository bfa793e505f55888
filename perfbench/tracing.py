"""In-memory spans around the benchmark's own calls into letterlab.

A span is (name, start_ns, end_ns, parent, op): `parent` is the index of
the enclosing span (-1 at the root) and `op` the operation id active when
the span opened.  Spans stay in a list until the run ends; nothing is
written while a pass is being timed.

The untraced passes use :class:`NullTracer`, whose `call` is a plain
function call, so both kinds of pass run the same workload code.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, op=None):
        return nullcontext()


class Tracer:
    """Tracing on: every `call` and `span` leaves one span record."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self._op)

    @contextmanager
    def span(self, name, op=None):
        outer_op = self._op
        if op is not None:
            self._op = op
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self._op)
            self._op = outer_op


def self_times(spans) -> list[float]:
    """Seconds of each span not covered by its child spans.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start - child[i]) / 1e9 for i, (_, start, end, _, _) in enumerate(spans)]


def span_cost_s() -> float:
    """Seconds one span adds to a pass: Tracer against NullTracer around a no-op.

    Each round opens an operation span with one call inside it, the shape
    of the workloads' passes; the result is the median of five batches.
    """
    rounds = 20_000

    def noop():
        return None

    def batch(tracer):
        start = perf_counter_ns()
        for i in range(rounds):
            with tracer.span("op", i):
                tracer.call("noop", noop)
        return perf_counter_ns() - start

    return statistics.median((batch(Tracer()) - batch(NullTracer())) / (2 * rounds) / 1e9 for _ in range(5))
