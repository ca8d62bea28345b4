"""The trace/metrics collector and its contextvar scoping.

Observability is *off by default* and scoped, not global: a
:class:`Collector` becomes the current sink only inside a
``with collecting(collector):`` block (or the lower-level
:func:`activate`/:func:`deactivate` pair), and the scope travels with
the :mod:`contextvars` context — concurrent tasks and threads each see
their own collector, or none.

The disabled path is designed to cost nothing measurable on hot loops:
instrumented code guards every emission with

.. code-block:: python

    col = obs.current()
    if col is not None:
        col.emit("reduce.step", {...})

``current()`` is a single ``ContextVar.get`` plus an identity check —
no allocation, no attribute chase, no dictionary construction.  Event
payload dictionaries are only built *inside* the guard, so a disabled
collector never causes them to exist.  ``tests/test_obs.py`` holds an
allocation guard asserting this stays true.

Causal spans
------------

Beyond flat events, a collector records **spans** — scoped intervals
that nest, mirroring the derivation trees of the paper's semantics (an
``invoke`` reduction *contains* the compound merges it triggers, a
compound check *contains* its per-clause sub-judgments):

.. code-block:: python

    col = obs.current()
    if col is not None:
        with col.span("check.compound", {"imports": 2}):
            ...                       # nested emits/spans attach here

A span emits a pair of events of its kind — ``phase:"enter"`` and
``phase:"exit"`` — stamped with a collector-unique ``span`` id and the
``parent`` span id, so the recorded trace is a well-formed tree.  The
exit event carries ``dur`` (cumulative wall seconds) and ``self``
(cumulative minus time spent in child spans).  Plain events emitted
while a span is open are stamped with the enclosing ``span`` id.  The
kind *counter* is bumped once per span (on enter), so counter
semantics match the pre-span flat events exactly.

A collector *is* a :class:`~repro.obs.metrics.MetricSet` plus the
event list, span stack and clock: a span exit writes its ``timers``
and ``histograms`` in place, and :meth:`Collector.adopt` folds a
child's numbers with the same ``merge`` a registry uses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.obs.events import TraceEvent, family_of
from repro.obs.metrics import Histogram, MetricSet

_ACTIVE: ContextVar["Collector | None"] = ContextVar(
    "repro_obs_collector", default=None)


def current() -> "Collector | None":
    """The collector in scope, or ``None`` when observability is off.

    This is the hot-path guard; keep it a bare contextvar read.
    """
    return _ACTIVE.get()


def enabled() -> bool:
    """Is a collector currently in scope?"""
    return _ACTIVE.get() is not None


def emit(kind: str, fields: dict[str, object] | None = None) -> None:
    """Emit an event to the current collector, if any.

    Convenience for cold paths.  Hot paths should guard with
    :func:`current` themselves so the ``fields`` dict is never built
    when observability is off.
    """
    col = _ACTIVE.get()
    if col is not None:
        col.emit(kind, fields)


def count(name: str, delta: int = 1) -> None:
    """Bump a counter on the current collector, if any."""
    col = _ACTIVE.get()
    if col is not None:
        col.count(name, delta)


def observe(name: str, seconds: float) -> None:
    """Record a latency sample into the current collector's histogram
    for ``name``, if any."""
    col = _ACTIVE.get()
    if col is not None:
        col.observe(name, seconds)


def gauge(name: str, value: float) -> None:
    """Set a gauge level on the current collector, if any.  Gauge name
    families are registered in :data:`repro.obs.events.GAUGES`."""
    col = _ACTIVE.get()
    if col is not None:
        col.gauge(name, value)


class _NoopSpan:
    """A shared do-nothing span for the disabled path.

    :func:`span` returns this singleton when no collector is in scope,
    so ``with obs.span(...)`` costs one contextvar read and nothing
    else.  Hot paths that want to avoid even building the fields dict
    should guard with :func:`current` and use :meth:`Collector.span`.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def annotate(self, **fields: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


def span(kind: str, fields: dict[str, object] | None = None):
    """Open a span on the current collector; no-op when observability
    is off.  Convenience for cold paths (see :class:`_NoopSpan`)."""
    col = _ACTIVE.get()
    if col is None:
        return _NOOP_SPAN
    return col.span(kind, fields)


class Span:
    """One open causal span.  Created via :meth:`Collector.span`.

    Entering emits the ``phase:"enter"`` event (bumping the kind
    counter); exiting emits ``phase:"exit"`` with ``dur`` and ``self``
    seconds (no counter bump).  :meth:`annotate` adds fields to the
    exit event — useful for results only known when the scope closes.
    If the body raises, the exit event carries ``err`` with the
    exception's ``repr``.
    """

    __slots__ = ("_col", "kind", "fields", "span_id", "parent_id",
                 "_t_enter", "_child_time", "_notes")

    def __init__(self, col: "Collector", kind: str,
                 fields: dict[str, object] | None):
        self._col = col
        self.kind = kind
        self.fields = fields
        self.span_id = -1
        self.parent_id: int | None = None
        self._t_enter = 0.0
        self._child_time = 0.0
        self._notes: dict[str, object] | None = None

    def annotate(self, **fields: object) -> None:
        """Attach extra fields to the (future) exit event."""
        if self._notes is None:
            self._notes = {}
        self._notes.update(fields)

    def __enter__(self) -> "Span":
        col = self._col
        stack = col._spans
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = col._next_span
        col._next_span += 1
        payload: dict[str, object] = dict(self.fields) if self.fields else {}
        payload["span"] = self.span_id
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        payload["phase"] = "enter"
        col._record(self.kind, payload, bump=True)
        stack.append(self)
        self._t_enter = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        col = self._col
        dur = time.perf_counter() - self._t_enter
        stack = col._spans
        # Tolerate a corrupted stack rather than masking the body's
        # exception: only pop if we are the innermost open span.
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1]._child_time += dur
        self_time = dur - self._child_time
        if self_time < 0.0:
            self_time = 0.0
        payload: dict[str, object] = {"span": self.span_id}
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        payload["phase"] = "exit"
        payload["dur"] = dur
        payload["self"] = self_time
        if self._notes:
            for key, value in self._notes.items():
                if key not in ("span", "parent", "phase", "dur", "self"):
                    payload[key] = value
        if exc is not None:
            payload["err"] = repr(exc)
        col._record(self.kind, payload, bump=False)
        col.timers[self.kind] = col.timers.get(self.kind, 0.0) + self_time
        col.timer_calls[self.kind] = col.timer_calls.get(self.kind, 0) + 1
        # Every span exit also feeds the latency histogram for its
        # kind, so percentiles come for free at existing call-sites.
        hist = col.histograms.get(self.kind)
        if hist is None:
            hist = col.histograms[self.kind] = Histogram()
        hist.record(dur)
        return None


class Collector(MetricSet):
    """Accumulates trace events on top of a :class:`MetricSet`.

    One collector represents one observation session (a CLI run, a
    benchmark, a test).  It is not thread-safe by design — scoping via
    :func:`collecting` gives each execution context its own instance.

    ``max_events`` bounds memory on pathological traces: beyond the
    bound, events are dropped (counted in ``dropped``, and per kind in
    ``dropped_kinds`` so reports can say *what* was truncated) while
    counters, timers, and histograms keep accumulating.

    ``record_events=False`` makes a metrics-only collector: spans,
    counters, timers, histograms, and gauges all work, but event
    bodies are never stored (and are *not* counted as dropped — the
    caller opted out).  :meth:`MetricsRegistry.scope
    <repro.obs.metrics.MetricsRegistry.scope>` uses this for
    aggregation without per-event allocation.
    """

    def __init__(self, max_events: int = 1_000_000, *,
                 record_events: bool = True):
        super().__init__()
        self.t0 = time.perf_counter()
        self.events: list[TraceEvent] = []
        self.max_events = max_events
        self.record_events = record_events
        self._seq = 0
        self._spans: list[Span] = []
        self._next_span = 0

    # -- recording ------------------------------------------------------

    def _record(self, kind: str, fields: dict[str, object], bump: bool
                ) -> TraceEvent | None:
        """Append one event, optionally bumping the kind counter.

        When ``max_events`` is hit the event body is dropped, but the
        drop itself is *not* silent: it is tallied in ``dropped`` and
        in the ``trace.dropped`` counter, both surfaced by
        :meth:`metrics`.
        """
        seq = self._seq
        self._seq = seq + 1
        if bump:
            self.counters[kind] = self.counters.get(kind, 0) + 1
        if not self.record_events:
            return None
        if len(self.events) >= self.max_events:
            self._drop(kind)
            return None
        event = TraceEvent(kind, seq, time.perf_counter() - self.t0,
                           fields)
        self.events.append(event)
        return event

    def _drop(self, kind: str) -> None:
        self.dropped += 1
        self.count("trace.dropped")
        self.dropped_kinds[kind] = self.dropped_kinds.get(kind, 0) + 1

    def emit(self, kind: str, fields: dict[str, object] | None = None
             ) -> TraceEvent | None:
        """Record one event; returns it (or ``None`` if dropped).

        While a span is open, the event is stamped with the enclosing
        ``span`` id (unless the caller already set one), attributing it
        to its causal scope.
        """
        if fields is None:
            fields = {}
        if self._spans and "span" not in fields:
            fields["span"] = self._spans[-1].span_id
        return self._record(kind, fields, bump=True)

    def span(self, kind: str, fields: dict[str, object] | None = None
             ) -> Span:
        """Open a causal span of ``kind``; use as a context manager.

        See :class:`Span` for the enter/exit event schema.
        """
        return Span(self, kind, fields)

    def adopt(self, child: "Collector") -> None:
        """Fold a finished child collector into this one.

        The child's events are appended with their span ids remapped
        past this collector's id watermark and their timestamps
        rebased onto this collector's clock, so the merged trace is
        still a well-formed forest: the child's span trees arrive
        intact and *disjoint* from every other adoptee's.  The numeric
        state merges with :meth:`MetricSet.merge`.

        The child must be finished (no open spans) and must not be
        recording concurrently; :class:`repro.obs.metrics.MetricsRegistry`
        serializes adoptions under its lock.
        """
        offset = self._next_span
        self._next_span += child._next_span
        shift = child.t0 - self.t0
        if self.record_events:
            for event in child.events:
                if len(self.events) >= self.max_events:
                    self._drop(event.kind)
                    continue
                fields = dict(event.fields)
                if "span" in fields:
                    fields["span"] = fields["span"] + offset  # type: ignore[operator]
                if "parent" in fields:
                    fields["parent"] = fields["parent"] + offset  # type: ignore[operator]
                self.events.append(
                    TraceEvent(event.kind, self._seq, event.t + shift,
                               fields))
                self._seq += 1
        self.merge(child)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Accumulate wall time (and a call count) under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timers[name] = (self.timers.get(name, 0.0)
                                 + time.perf_counter() - start)
            self.timer_calls[name] = self.timer_calls.get(name, 0) + 1

    # -- reading --------------------------------------------------------

    def kinds(self) -> dict[str, int]:
        """Event kinds seen, with occurrence counts (drops included).

        Only names in a registered event family count as kinds;
        bookkeeping counters (``trace.dropped``) and plain
        :meth:`count` counters are excluded.
        """
        from repro.obs.events import FAMILIES

        out: dict[str, int] = {}
        for name, value in self.counters.items():
            if "." in name and family_of(name) in FAMILIES:
                out[name] = value
        return out

    def families(self) -> set[str]:
        """Event families seen (``reduce``, ``link``, ...)."""
        return {kind.split(".", 1)[0] for kind in self.kinds()}

    def metrics(self) -> dict[str, object]:
        """A JSON-ready ``metrics1`` snapshot of everything but the
        event bodies (see ``docs/METRICS.md`` for the schema)."""
        return self.to_json(events=len(self.events),
                            spans=self._next_span)


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------


def activate(collector: Collector):
    """Install ``collector`` as current; returns a reset token."""
    return _ACTIVE.set(collector)


def deactivate(token) -> None:
    """Undo a matching :func:`activate`."""
    _ACTIVE.reset(token)


@contextmanager
def collecting(collector: Collector | None = None) -> Iterator[Collector]:
    """Scope a collector: events emitted inside the block land in it.

    Nested scopes shadow (the innermost collector wins); on exit the
    previous collector — possibly ``None`` — is restored exactly.
    """
    col = collector if collector is not None else Collector()
    token = _ACTIVE.set(col)
    try:
        yield col
    finally:
        _ACTIVE.reset(token)
