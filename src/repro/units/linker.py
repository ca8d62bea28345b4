"""Whole-program static linking: flattening known compounds.

A ``compound`` whose constituents are syntactically known units can be
merged at compile time (Figure 11's reduction applied statically) —
"since a compound unit is equivalent to a simple unit that merges its
constituent units, intra-unit optimization techniques naturally extend
to inter-unit optimizations when a compound expression has known
constituent units" (Section 4.2.4).

:func:`flatten` rewrites every such compound bottom-up into the merged
atomic unit; compounds over *dynamic* constituents (variables, or unit
expressions chosen at run time) are left alone, preserving behaviour.
:func:`link_and_optimize` composes flattening with the Section 4.2.4
optimizer, yielding the static-linker pipeline:

    parse -> check -> flatten -> optimize -> run/compile
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.lang.ast import (
    App,
    Expr,
    If,
    Lambda,
    Let,
    Letrec,
    Lit,
    Seq,
    SetBang,
    Var,
    all_same,
    same_rhs,
)
from repro.lang.subst import assigned_names
from repro.obs import current as _obs_current
from repro.units import cache as _cache
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr
from repro.units.optimize import optimize_expr, optimize_unit
from repro.units.reduce import merge_compound


@dataclass
class LinkStats:
    """What flattening accomplished."""

    merged: int = 0
    left_dynamic: int = 0
    #: Event-replay log for the flatten memo (one marker per compound
    #: decision, in emission order); ``None`` when the caches are off.
    log: list | None = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        return (f"{self.merged} compound(s) statically linked, "
                f"{self.left_dynamic} left for run time")


def flatten(expr: Expr, stats: LinkStats | None = None) -> Expr:
    """Merge every compound with syntactically known constituents.

    "Known" includes variables bound (by an enclosing ``let`` or
    ``letrec``) directly to a unit expression and never assigned: a
    clause position referencing such a variable resolves to the unit
    literal before merging.  This is safe because (a) each link of a
    unit creates a fresh instance anyway, so duplicating the *syntax*
    duplicates nothing observable, and (b) the resolved unit's free
    variables remain in scope at the use site (the binding's scope
    encloses it).
    """
    stats = stats if stats is not None else LinkStats()
    if stats.log is None and _cache.unit_caches_active():
        stats.log = []
    return _flatten(expr, stats, {}, assigned_names(expr))


def _flatten(expr: Expr, stats: LinkStats,
             units_in_scope: dict[str, UnitExpr],
             assigned: frozenset[str]) -> Expr:
    """Flatten ``expr``; a node none of whose children changed is
    returned itself, so its memoized digest and free variables live on
    through optimization and codegen keying."""
    def go(e: Expr, scope=None) -> Expr:
        return _flatten(e, stats,
                        scope if scope is not None else units_in_scope,
                        assigned)

    def scope_minus(names) -> dict[str, UnitExpr]:
        # Binders rarely shadow a unit binding: share the scope dict
        # unchanged unless a name actually collides, so deep programs
        # do not copy the scope at every binder.
        if not units_in_scope or not any(n in units_in_scope
                                         for n in names):
            return units_in_scope
        return {k: v for k, v in units_in_scope.items() if k not in names}

    if isinstance(expr, (Lit, Var)):
        return expr
    if isinstance(expr, Lambda):
        body = go(expr.body, scope_minus(expr.params))
        return expr if body is expr.body \
            else Lambda(expr.params, body, expr.loc)
    if isinstance(expr, App):
        fn = go(expr.fn)
        args = tuple(go(a) for a in expr.args)
        return expr if fn is expr.fn and all_same(args, expr.args) \
            else App(fn, args, expr.loc)
    if isinstance(expr, If):
        test, then, orelse = go(expr.test), go(expr.then), go(expr.orelse)
        if test is expr.test and then is expr.then \
                and orelse is expr.orelse:
            return expr
        return If(test, then, orelse, expr.loc)
    if isinstance(expr, (Let, Letrec)):
        bound = {n for n, _ in expr.bindings}
        if isinstance(expr, Let):
            rhs_scope = scope_minus(bound)
            new_bindings = tuple((n, go(e, rhs_scope))
                                 for n, e in expr.bindings)
        else:
            # letrec right-hand sides see the letrec's own unit
            # bindings; build the extended scope in two passes.
            pre = tuple((n, _flatten(e, stats, scope_minus(bound), assigned))
                        for n, e in expr.bindings)
            inner0 = dict(scope_minus(bound))
            for n, e in pre:
                if isinstance(e, UnitExpr) and n not in assigned:
                    inner0[n] = e
            new_bindings = tuple((n, _flatten(e, stats, inner0, assigned))
                                 for n, e in pre)
        inner = dict(scope_minus(bound))
        for n, e in new_bindings:
            if isinstance(e, UnitExpr) and n not in assigned:
                inner[n] = e
        body = go(expr.body, inner)
        if body is expr.body and same_rhs(new_bindings, expr.bindings):
            return expr
        return type(expr)(new_bindings, body, expr.loc)
    if isinstance(expr, SetBang):
        value = go(expr.expr)
        return expr if value is expr.expr \
            else SetBang(expr.name, value, expr.loc)
    if isinstance(expr, Seq):
        exprs = tuple(go(e) for e in expr.exprs)
        return expr if all_same(exprs, expr.exprs) else Seq(exprs, expr.loc)
    if isinstance(expr, UnitExpr):
        inner = scope_minus(set(expr.imports) | set(expr.defined))
        defns = tuple((n, go(e, inner)) for n, e in expr.defns)
        init = go(expr.init, inner)
        if init is expr.init and same_rhs(defns, expr.defns):
            return expr
        return UnitExpr(expr.imports, expr.exports, defns, init, expr.loc)
    if isinstance(expr, CompoundExpr):
        return _flatten_compound(expr, stats, units_in_scope, assigned, go)
    if isinstance(expr, InvokeExpr):
        unit = go(expr.expr)
        links = tuple((n, go(e)) for n, e in expr.links)
        if unit is expr.expr and same_rhs(links, expr.links):
            return expr
        return InvokeExpr(unit, links, expr.loc)
    raise TypeError(f"flatten: unknown expression {expr!r}")


def _flatten_compound(expr: CompoundExpr, stats: LinkStats,
                      units_in_scope: dict[str, UnitExpr],
                      assigned: frozenset[str], go) -> Expr:
    """Flatten one compound, through the whole-subtree flatten memo:
    a compound whose digest and flattening context are unchanged
    returns its stored result without re-walking the subtree; stat
    deltas and span kinds replay so the memo stays observationally
    invisible."""
    memo_key = (_cache.flatten_key(expr, units_in_scope, assigned)
                if stats.log is not None else None)
    if memo_key is None:
        return _merge_or_rebuild(expr, stats, units_in_scope, go)
    from repro import limits as _limits

    budget = _limits.current()
    if budget is not None:
        budget.check_deadline(expr.loc)
    base_merged, base_dynamic = stats.merged, stats.left_dynamic
    log_start = len(stats.log)

    def compute() -> tuple:
        out = _merge_or_rebuild(expr, stats, units_in_scope, go)
        return (out, stats.merged - base_merged,
                stats.left_dynamic - base_dynamic,
                tuple(stats.log[log_start:]))

    result, d_merged, d_dynamic, replay = _cache.lookup(
        "flatten", lambda: memo_key, compute)
    if len(stats.log) == log_start:
        # A hit (a computed flatten always logs its own decision):
        # replay what the skipped walk would have recorded.
        stats.merged += d_merged
        stats.left_dynamic += d_dynamic
        stats.log.extend(replay)
        _cache.replay_link_events(replay)
    return result


def _merge_or_rebuild(expr: CompoundExpr, stats: LinkStats,
                      units_in_scope: dict[str, UnitExpr], go) -> Expr:
    """Merge a compound whose resolved constituents are both unit
    literals; otherwise rebuild it, left for run-time linking."""
    def resolve(e: Expr) -> Expr:
        flat = go(e)
        if isinstance(flat, Var) and flat.name in units_in_scope:
            return units_in_scope[flat.name]
        return flat

    first = resolve(expr.first.expr)
    second = resolve(expr.second.expr)
    rebuilt = expr if first is expr.first.expr \
        and second is expr.second.expr else CompoundExpr(
            expr.imports, expr.exports,
            LinkClause(first, expr.first.withs, expr.first.provides),
            LinkClause(second, expr.second.withs, expr.second.provides),
            expr.loc)
    col = _obs_current()
    if isinstance(first, UnitExpr) and isinstance(second, UnitExpr):
        stats.merged += 1
        if col is None:
            out = merge_compound(rebuilt, first, second)
        else:
            # Span: the reduce.compound merge it triggers nests inside.
            with col.span("link.static", {"merged": True}):
                out = merge_compound(rebuilt, first, second)
        if stats.log is not None:
            stats.log.append(("m", len(first.defns) + len(second.defns)))
        return out
    stats.left_dynamic += 1
    if col is not None:
        col.emit("link.static", {"merged": False})
    if stats.log is not None:
        stats.log.append(("d",))
    return rebuilt


def link_and_optimize(
        expr: Expr,
        timings: dict[str, float] | None = None) -> tuple[Expr, LinkStats]:
    """The static-linker pipeline: flatten, then optimize.

    Returns the transformed program and the linking statistics.
    Behaviour is preserved (differential tests): only
    syntactically-known compounds are merged, and the optimizer only
    touches valuable definitions.

    ``timings``, when given, receives wall seconds for the two
    sub-stages under the keys ``"flatten"`` and ``"optimize"`` — the
    bench harness uses this to break the link stage down without
    requiring a trace collector.
    """
    import time as _time

    stats = LinkStats()
    col = _obs_current()

    def timed(name: str):
        return col.timed(name) if col is not None else nullcontext()

    t0 = _time.perf_counter()
    with timed("link.flatten"):
        flat = flatten(expr, stats)
    t1 = _time.perf_counter()
    with timed("link.optimize"):
        optimized = optimize_expr(flat)
        if isinstance(optimized, UnitExpr):
            optimized = optimize_unit(optimized)
    t2 = _time.perf_counter()
    if timings is not None:
        timings["flatten"] = t1 - t0
        timings["optimize"] = t2 - t1
    return optimized, stats
