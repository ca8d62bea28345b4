"""The one command pipeline: parse → check → [archive | link] → eval.

``repro run``, ``repro batch``, the link server and ``repro demo``
share these pieces, so the commands cannot drift apart:
:func:`stage` (the stage runner), :func:`evaluate` (the only mapping
from a backend name to an evaluator), :func:`archive_roundtrip` (the
Figure 7 retrieval checks) and the failure taxonomy
(:data:`RECORDED_ERRORS`, :func:`error_payload`) that ``batch1``
records and ``serve1`` error responses carry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro import limits as _limits
from repro import obs
from repro.lang.ast import Expr, Lit
from repro.lang.errors import LangError

#: Exceptions a pipeline run may fail with and still be *recorded*
#: rather than aborting its batch or server.  ``LangError`` covers the
#: repo's whole taxonomy (parse, check, type, link, run-time, archive,
#: and budget errors); ``RecursionError`` is the raw Python failure an
#: ungoverned deep program can still hit; ``OSError`` covers
#: unreadable files.
RECORDED_ERRORS = (LangError, RecursionError, OSError)


def error_payload(err: BaseException) -> dict[str, object]:
    """The ``error`` object of a failure record or response."""
    payload: dict[str, object] = {
        "type": type(err).__name__,
        "message": str(err),
    }
    if isinstance(err, _limits.BudgetExceeded):
        payload["resource"] = err.resource
        payload["limit"] = err.limit
        payload["used"] = err.used
    loc = getattr(err, "loc", None)
    if loc is not None:
        payload["loc"] = str(loc)
    return payload


@contextmanager
def stage(name: str, timings: dict[str, float]) -> Iterator[None]:
    """Run one pipeline stage as a ``stage.<name>`` span.

    A stage after the first (``timings`` already holds an entry) first
    polls the current budget's deadline, so a stalled run fails with a
    ``deadline`` exhaustion at the next boundary.  The stage's wall
    seconds go to ``timings[name]`` only when its body completes, so a
    failure shows how far the run got.
    """
    if timings:
        budget = _limits.current()
        if budget is not None:
            budget.check_deadline()
    t = time.perf_counter()
    with obs.span("stage." + name):
        yield
    timings[name] = time.perf_counter() - t


def evaluate(expr: Expr, backend: str = "interp") -> tuple[object, str]:
    """Evaluate a checked program; returns ``(value, output)``.

    ``backend`` is ``interp``, ``machine`` or ``pycode``; all three
    agree on values, output and error taxonomy.  ``pycode`` compiles
    the program as given: static linking (§4.2.4) is an optional
    optimization with its own surfaces (``repro link``, the ``link``
    op), so every command shares one codegen cache key per program.
    """
    if backend == "pycode":
        from repro import backend as _backend

        return _backend.compile_program(expr).run()
    if backend == "machine":
        from repro.lang.machine import machine_eval

        final, output = machine_eval(expr)
        return (final.value if isinstance(final, Lit) else final), output
    from repro.lang.interp import Interpreter

    interp = Interpreter()
    return interp.eval(expr), interp.port.getvalue()


def archive_roundtrip(expr: Expr, name: str, retries: int = 0, **kwargs):
    """Round-trip a unit-form program through a ``UnitArchive``.

    Retrieval runs under :func:`~repro.dynlink.loader.load_with_retry`
    (``kwargs`` passes its ``sleep``/``rng``).  Returns the retrieved
    unit, or ``None`` when the (invoked) program is not a unit form.
    """
    from repro.dynlink.archive import UnitArchive
    from repro.dynlink.loader import load_with_retry
    from repro.units.ast import InvokeExpr, UnitExpr

    unit = expr.expr if isinstance(expr, InvokeExpr) else expr
    if not isinstance(unit, UnitExpr):
        return None
    archive = UnitArchive()
    archive.put_unit(name, unit)
    return load_with_retry(
        lambda: archive.retrieve_untyped(name, unit.imports, unit.exports),
        retries=retries, **kwargs)
