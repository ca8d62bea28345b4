"""Property tests: the serve wire formats survive a *real* process
boundary, and metrics-fragment merging is a lawful fold.

The multi-process server rests on two transport facts:

* every ``serve1`` envelope and ``metrics1`` fragment crosses **two**
  encodings — pickle over the worker pipe, then JSON over the socket —
  and must come out the other side unchanged;
* the parent folds worker fragments into one registry with
  ``merge_snapshot``, and the result must not depend on how the racing
  workers' fragments happened to be grouped or ordered.

Rather than trust ``json.dumps(json.loads(...))`` in-process, a
spawned echo child round-trips every Hypothesis example through an
actual ``multiprocessing`` pipe (pickle leg) and a JSON re-encode
(wire leg) — the same double boundary production traffic crosses.

The merge laws, precisely: merging is **associative** (grouping never
matters) and **order-independent up to each gauge's ``last``** — a
last-value-wins instrument is order-dependent *by definition*, but its
``min``/``max``/``updates`` and every counter, timer, and histogram
must not care who arrived first.  Floating-point sums are compared
with relative tolerance (addition is not associative in IEEE754;
everything integral must match exactly).
"""

from __future__ import annotations

import json
import multiprocessing as mp

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.obs.collector import Collector
from repro.obs.metrics import MetricSet, MetricsRegistry
from repro.serve import protocol
from repro.serve.chaos import FAULTS

_CTX = mp.get_context("spawn")

_SETTINGS = dict(deadline=None, max_examples=30,
                 suppress_health_check=[HealthCheck.too_slow])


def _echo_main(conn) -> None:
    """The child: pickle in (the pipe), JSON round-trip (the wire),
    pickle back out."""
    while True:
        try:
            obj = conn.recv()
        except EOFError:
            return
        if obj is None:
            return
        conn.send(json.loads(json.dumps(obj)))


@pytest.fixture(scope="module")
def echo():
    parent, child = _CTX.Pipe()
    proc = _CTX.Process(target=_echo_main, args=(child,), daemon=True)
    proc.start()
    child.close()

    def roundtrip(obj):
        parent.send(obj)
        return parent.recv()

    yield roundtrip
    parent.send(None)
    proc.join(timeout=30)
    parent.close()


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_names = st.text(alphabet="abcdef.", min_size=1, max_size=10)
_finite = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)

#: A recorded fact: (method, metric name, value).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("count"), _names, st.integers(1, 9)),
        st.tuples(st.just("observe"), _names, _finite),
        st.tuples(st.just("gauge"), _names,
                  st.floats(min_value=-50.0, max_value=50.0,
                            allow_nan=False)),
    ),
    max_size=25)


def _record(target, ops):
    """Apply generated ops to any ``MetricSet`` (collector, registry,
    or bare set); returns the target."""
    for method, name, value in ops:
        getattr(target, method)(name, value)
    return target


def _fragment(ops) -> dict:
    """Apply generated ops to a fresh registry; drain the fragment —
    exactly what a worker process does per request."""
    return _record(MetricsRegistry(), ops).drain()


_fragments = st.lists(_ops, min_size=2, max_size=4).map(
    lambda batches: [_fragment(batch) for batch in batches])

_ids = st.one_of(st.none(), st.integers(-10**6, 10**6),
                 st.text(max_size=12))
_text = st.text(max_size=40)

_envelopes = st.one_of(
    st.builds(lambda i, v, o: protocol.ok_response(i, value=v, output=o),
              _ids, _text, _text),
    st.builds(protocol.bad_request_response, _ids, _text),
    st.builds(lambda i, msg: protocol.error_response(i, ValueError(msg)),
              _ids, _text),
    st.builds(protocol.overloaded_response, _ids),
    st.builds(protocol.shutting_down_response, _ids),
)

_requests = st.fixed_dictionaries({
    "op": st.sampled_from(protocol.PIPELINE_OPS),
    "source": st.text(min_size=1, max_size=60).filter(str.strip),
    "backend": st.sampled_from(protocol.BACKENDS),
    "lenient": st.booleans(),
    "archive": st.booleans(),
    "retries": st.integers(0, 3),
    "deadline_s": st.one_of(
        st.none(), st.floats(min_value=0.001, max_value=1e6,
                             allow_nan=False)),
    "chaos": st.lists(st.sampled_from(FAULTS), max_size=3,
                      unique=True),
    "id": _ids,
})


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _close(a, b, rel=1e-9) -> bool:
    """Structural equality with float tolerance (IEEE754 addition is
    not associative; ints and strings must match exactly)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and \
            all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and \
            all(_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)
    return a == b


def _fold(fragments) -> dict:
    registry = MetricsRegistry()
    for fragment in fragments:
        registry.merge_snapshot(fragment)
    return registry.snapshot()


def _numbers(snapshot: dict) -> dict:
    """The metric state of a snapshot: every section a fold must
    preserve, minus the owner's bookkeeping (events/spans/flushes) and
    the ``metric.flush`` marker a registry scope adds on exit."""
    out = {key: snapshot[key] for key in
           ("dropped", "dropped_by_kind", "counters", "gauges",
            "histograms", "timers")}
    out["counters"] = {name: n for name, n in snapshot["counters"].items()
                       if name != "metric.flush"}
    return out


def _gauge_lasts(snapshot: dict) -> dict:
    return {name: g["last"] for name, g in snapshot["gauges"].items()}


def _without_gauge_last(snapshot: dict) -> dict:
    out = dict(snapshot)
    out["gauges"] = {name: {k: v for k, v in g.items() if k != "last"}
                     for name, g in snapshot["gauges"].items()}
    return out


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestProcessBoundaryRoundTrips:
    @settings(**_SETTINGS)
    @given(ops=_ops)
    def test_metrics_fragment_survives_pickle_and_json(self, echo, ops):
        fragment = _fragment(ops)
        assert echo(fragment) == fragment

    @settings(**_SETTINGS)
    @given(envelope=_envelopes)
    def test_serve1_envelope_survives_pickle_and_json(self, echo,
                                                      envelope):
        assert echo(envelope) == envelope

    @settings(**_SETTINGS)
    @given(fields=_requests)
    def test_validated_request_survives_the_wire(self, echo, fields):
        """validate → wire → validate is a fixed point: the second
        validation reconstructs the exact normalized request (JSON
        turns the chaos tuple into a list; validation turns it back)."""
        req = protocol.validate_request(fields)
        wired = echo(req)
        assert protocol.validate_request(wired) == req


class TestFragmentMergeLaws:
    @settings(**_SETTINGS)
    @given(fragments=_fragments)
    def test_merge_is_associative(self, echo, fragments):
        """Grouping never matters: folding (a·b)·c equals a·(b·c),
        even with every fragment shipped across the boundary first."""
        shipped = [echo(fragment) for fragment in fragments]
        left = _fold([_fold(shipped[:-1]), shipped[-1]])
        right = _fold([shipped[0], _fold(shipped[1:])])
        assert _close(left, right), (left, right)

    @settings(**_SETTINGS)
    @given(fragments=_fragments)
    def test_merge_is_order_independent(self, echo, fragments):
        """Arrival order never matters — up to each gauge's ``last``,
        which is order-dependent by definition (last-value-wins)."""
        shipped = [echo(fragment) for fragment in fragments]
        forward = _without_gauge_last(_fold(shipped))
        backward = _without_gauge_last(_fold(shipped[::-1]))
        rotated = _without_gauge_last(
            _fold(shipped[1:] + shipped[:1]))
        assert _close(forward, backward), (forward, backward)
        assert _close(forward, rotated), (forward, rotated)

    @settings(**_SETTINGS)
    @given(ops=_ops)
    def test_merge_with_empty_is_identity(self, ops):
        fragment = _fragment(ops)
        empty = MetricsRegistry().drain()
        merged = _fold([fragment, empty])
        direct = _fold([fragment])
        assert _close(merged, direct), (merged, direct)


class TestMetricSetLaws:
    """The laws at the core: every fold above is ``MetricSet.merge``."""

    @settings(**_SETTINGS)
    @given(batches=st.lists(_ops, min_size=3, max_size=3))
    def test_merge_is_associative(self, batches):
        def sets():
            return [_record(MetricSet(), ops) for ops in batches]

        a, b, c = sets()
        left = a.merge(b).merge(c).to_json(events=0, spans=0)
        a, b, c = sets()
        right = a.merge(b.merge(c)).to_json(events=0, spans=0)
        assert _close(left, right), (left, right)
        assert _gauge_lasts(left) == _gauge_lasts(right)

    @settings(**_SETTINGS)
    @given(ops=_ops)
    def test_empty_set_is_identity(self, ops):
        alone = _record(MetricSet(), ops).to_json(events=0, spans=0)
        left = MetricSet().merge(_record(MetricSet(), ops))
        right = _record(MetricSet(), ops).merge(MetricSet())
        assert left.to_json(events=0, spans=0) == alone
        assert right.to_json(events=0, spans=0) == alone


class TestOneMergeLaw:
    @settings(**_SETTINGS)
    @given(ops=_ops)
    @example(ops=[("gauge", "g", 1 / 3), ("gauge", "g", 0.1 + 0.2)])
    def test_adopt_absorb_and_fragment_merge_agree(self, echo, ops):
        """One op list, folded the three ways production folds it —
        a collector adopting a child, a registry absorbing a scope,
        and a worker's drained fragment crossing pickle+JSON into the
        parent's ``merge_snapshot`` — yields the same numbers, with
        every gauge's ``last`` bit-exact."""
        adopted = Collector()
        adopted.adopt(_record(Collector(), ops))

        absorbed = MetricsRegistry()
        with absorbed.scope() as col:
            _record(col, ops)

        worker = MetricsRegistry()
        with worker.scope() as col:
            _record(col, ops)
        merged = MetricsRegistry().merge_snapshot(echo(worker.drain()))

        expected = _numbers(adopted.metrics())
        for other in (absorbed, merged):
            assert _close(expected, _numbers(other.snapshot())), \
                (expected, other.snapshot())
            # In memory, not via to_json: the fragment must not have
            # lost a bit on the wire.
            assert {name: g.last for name, g in other.gauges.items()} \
                == {name: g.last for name, g in adopted.gauges.items()}


class TestDrainSemantics:
    def test_drain_resets_and_preserves(self):
        """drain() hands the caller everything and keeps nothing:
        drain + merge-back equals never having drained."""
        registry = MetricsRegistry()
        registry.count("a", 3)
        registry.observe("b", 0.25)
        registry.gauge("c", 7.0)
        fragment = registry.drain()
        emptied = registry.snapshot()
        assert emptied["counters"] == {}
        assert emptied["histograms"] == {}
        assert emptied["gauges"] == {}
        registry.merge_snapshot(fragment)
        assert _close(registry.snapshot(), fragment)
