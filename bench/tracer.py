"""In-memory spans for the benchmark's traced runs.

A span covers one call from the benchmark into a layer of rschur.  Its name
is `layer.function` (or `bench.<step>` for the benchmark's own work), and it
records start and end on the perf_counter clock and the index of the span
that was open when it began (-1 for a root).  Spans stay in memory while the
run goes on and are written out once, at the end.

NoTrace has the same interface and records nothing, so the untraced runs
that give the end-to-end numbers pay one extra function call per operation.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NoTrace:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()

    def add(self, name, value=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, value=1):
        """Count work at the boundary where it happens."""
        self.counts[name] += value

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self, within: str) -> dict[str, float]:
        """Seconds per layer not covered by a child span, summed over the
        spans named `within` and their descendants."""
        child_time = [0.0] * len(self.spans)
        inside = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            # a parent always comes before its children
            inside[i] = name == within or (parent >= 0 and inside[parent])
            if parent >= 0:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), inner, counted in zip(self.spans, child_time, inside):
            if counted:
                out[name.split(".", 1)[0]] += (end - start) - inner
        return dict(out)

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": self.counts,
        }
