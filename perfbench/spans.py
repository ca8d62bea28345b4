"""An in-memory span recorder and the statistics the report needs.

The recorder wraps calls made *from the benchmark* into the layers'
public functions; the program's own source is never instrumented.
Spans nest by a stack (the cold pipeline runs on one thread), are kept
in memory, and are written out once at the end of a traced run.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

#: Spans kept per run; later ones are counted as dropped.
CAPACITY = 2_000_000


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "attrs")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 attrs: dict | None = None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children: list[Span] = []
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "attrs": self.attrs,
                "children": [c.to_json() for c in self.children]}


class Recorder:
    """Records spans when ``enabled``; otherwise calls straight through."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.roots: list[Span] = []
        self.count = 0
        self.dropped = 0
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span | None:
        if not self.enabled:
            return None
        if self.count >= CAPACITY:
            self.dropped += 1
            return None
        self.count += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, attrs)
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is not None:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def child(self, parent: Span, name: str, start: float,
              seconds: float, **attrs) -> None:
        """Attach an already-measured interval (a stage timing the
        program reported) under ``parent``."""
        if self.count >= CAPACITY:
            self.dropped += 1
            return
        self.count += 1
        span = Span(name, start, parent, attrs)
        span.end = start + seconds
        parent.children.append(span)

    def wrap(self, name: str, fn, on_result=None):
        """A stand-in for ``fn`` that records a span per call
        (``on_result(span, result)`` may annotate it)."""
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if on_result is not None and span is not None:
                on_result(span, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        """Write every root span tree as one JSON object per line."""
        with open(path, "w") as out:
            for root in self.roots:
                out.write(json.dumps(root.to_json()) + "\n")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, 100 cuts)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def loglog_slope(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time) against log(size) over
    the sizes that have at least one positive sample."""
    xs, ys = [], []
    for size, samples in sorted(points.items()):
        value = median([s for s in samples if s > 0])
        if value > 0:
            xs.append(math.log(size))
            ys.append(math.log(value))
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
