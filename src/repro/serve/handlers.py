"""Per-request execution for the link server.

:func:`execute_request` is the worker-thread entry point: it rebuilds
the request's entire dynamic context from scratch — contextvars do
**not** propagate into executor threads, so everything scope-based
must be re-entered here, which is exactly what makes requests
isolated:

* a fresh collector under ``registry.scope()``, so N concurrent
  traced requests yield disjoint span trees that flush into one
  coherent registry snapshot (the ``metrics`` op reads it);
* the server's shared :class:`~repro.units.cache.CacheStore` via
  :func:`~repro.units.cache.cache_store_scope` — the one piece of
  state requests *do* share, which is why it is the lock-protected
  one;
* the request's chaos plan (if any, and only when the server allows
  it), armed for this thread only;
* a fresh :class:`~repro.limits.Budget` with the request's wall-clock
  deadline and step caps, so one runaway request exhausts its own
  allowance and nothing else.

Failures follow the batch taxonomy: ``LangError`` (including
``BudgetExceeded``), ``RecursionError``, and ``OSError`` become
structured ``error`` responses (:func:`repro.serve.protocol
.error_response`, exit-code field included); anything else is a
server bug and propagates to the server's last-resort handler.

The stages run through :func:`repro.pipeline.stage`, the runner
``repro batch`` shares: each is a ``stage.*`` span nested under
``serve.request``, and every stage after parse polls the deadline, so
a request stalled by a slow source or chaos fault converts to a
deterministic ``deadline`` exhaustion at the next boundary instead of
running arbitrarily long.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, nullcontext
from typing import TYPE_CHECKING

from repro import limits as _limits
from repro.lang.parser import parse_script
from repro.lang.values import to_write_string
from repro.pipeline import (RECORDED_ERRORS, archive_roundtrip, evaluate,
                            stage)
from repro.serve import chaos as _chaos
from repro.serve import protocol as _protocol
from repro.units import cache as _ucache
from repro.units.check import check_program

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry
    from repro.serve.server import ServeConfig


def request_budget(req: dict[str, object],
                   config: "ServeConfig") -> _limits.Budget:
    """The request's own budget: its deadline (clamped to the server's
    ceiling, defaulted from config) plus optional step caps."""
    deadline = req.get("deadline_s")
    if deadline is None:
        deadline = config.default_deadline_s
    if config.max_deadline_s is not None:
        deadline = min(float(deadline), config.max_deadline_s)
    return _limits.Budget(
        deadline_s=deadline,
        eval_steps=req.get("eval_steps"),
        machine_steps=req.get("machine_steps"),
        max_depth=_limits.REQUEST_MAX_DEPTH)


def execute_request(req: dict[str, object], store: _ucache.CacheStore,
                    registry: "MetricsRegistry",
                    config: "ServeConfig") -> dict[str, object]:
    """Run one validated pipeline request; always returns a response."""
    request_id = req.get("id")
    budget = request_budget(req, config)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    with registry.scope() as col:
        with col.span("serve.request", {"op": req["op"]}) as sp:
            chaos_ctx = nullcontext()
            if req.get("chaos") and config.allow_chaos:
                chaos_ctx = _chaos.chaos_scope(_chaos.ChaosPlan(
                    faults=frozenset(req["chaos"]),
                    slow_s=req["chaos_slow_s"]))
            try:
                with ExitStack() as stack:
                    stack.enter_context(_ucache.cache_store_scope(store))
                    stack.enter_context(chaos_ctx)
                    stack.enter_context(_limits.budget_scope(budget))
                    # Inert everywhere except a marked worker process
                    # (repro.serve.workers), where it kills the worker
                    # mid-request with no response — the pool's
                    # reap/respawn path is the subject under test.
                    if _chaos._armed:
                        _chaos.worker_kill("serve.request")
                    value, output = _dispatch(req, timings)
            except RECORDED_ERRORS as err:
                sp.annotate(status="error",
                            error=type(err).__name__)
                response = _protocol.error_response(request_id, err)
            else:
                sp.annotate(status="ok")
                response = _protocol.ok_response(
                    request_id, value=value, output=output)
            timings["total"] = time.perf_counter() - t_start
            response["op"] = req["op"]
            response["timings"] = {name: round(seconds, 6)
                                   for name, seconds in timings.items()}
            response["spent"] = budget.spent()
            return response


def _dispatch(req: dict[str, object],
              timings: dict[str, float]) -> tuple[str, str]:
    """Parse/check/(link|run) under the already-entered scopes."""
    op = req["op"]
    # Warm requests re-send the same source text, so parse through the
    # content-addressed parse store (keyed on the full text, origin
    # prepended exactly as the archive layer does).
    source = req["source"]
    origin = req["origin"]
    with stage("parse", timings):
        expr = _ucache.cached_parse(
            origin + "\x00" + source,
            lambda: parse_script(source, origin=origin))
    with stage("check", timings):
        check_program(expr, strict_valuable=not req["lenient"])
    if op == "check":
        return "ok", ""
    if op == "link":
        from repro.lang.pretty import show
        from repro.units.linker import link_and_optimize

        with stage("link", timings):
            linked, _stats = link_and_optimize(expr)
        return show(linked), ""
    # op == "run": optional archive round-trip (the dynamic-linking
    # surface the slow-load/poison faults target), then evaluate.
    if req["archive"]:
        with stage("archive", timings):
            archive_roundtrip(expr, origin, req["retries"])
    with stage("eval", timings):
        value, output = evaluate(expr, req["backend"])
    return to_write_string(value), output
