"""Core abstract syntax for the Scheme-like host language.

These are the "other core forms" of Figure 9: variables, procedures,
application, conditionals, lexical blocks (``let`` / ``letrec``),
assignment, and expression sequencing.  The unit-specific forms
(``unit`` / ``compound`` / ``invoke``) are defined in
:mod:`repro.units.ast`; they subclass :class:`Expr` because the paper
makes them core expression forms.

All nodes are immutable dataclasses.  ``loc`` carries the source
location and never participates in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.errors import SrcLoc


@dataclass(frozen=True)
class Expr:
    """Base class of every core-language expression."""


@dataclass(frozen=True)
class Lit(Expr):
    """A self-evaluating literal: int, float, str, bool, or void (None)."""

    value: object
    loc: SrcLoc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference."""

    name: str
    loc: SrcLoc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Lambda(Expr):
    """A procedure: ``(lambda (x ...) body)``."""

    params: tuple[str, ...]
    body: Expr
    loc: SrcLoc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class App(Expr):
    """Application: ``(fn arg ...)``."""

    fn: Expr
    args: tuple[Expr, ...]
    loc: SrcLoc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class If(Expr):
    """Conditional: ``(if test then else)``."""

    test: Expr
    then: Expr
    orelse: Expr
    loc: SrcLoc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Let(Expr):
    """Parallel lexical binding: ``(let ((x e) ...) body)``."""

    bindings: tuple[tuple[str, Expr], ...]
    body: Expr
    loc: SrcLoc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Letrec(Expr):
    """The mutually recursive block the core must provide (Section 4.1).

    ``(letrec ((x e) ...) body)`` — every ``x`` is in scope in every
    ``e`` and in the body.  The unit reduction rules (Figure 11) target
    this form: invoking a unit rewrites to a ``letrec`` of the unit's
    definitions around its initialization expression.
    """

    bindings: tuple[tuple[str, Expr], ...]
    body: Expr
    loc: SrcLoc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SetBang(Expr):
    """Assignment: ``(set! x e)``."""

    name: str
    expr: Expr
    loc: SrcLoc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Seq(Expr):
    """Expression sequencing, the ``;`` form of Figure 9: ``(begin e ...)``.

    The value of the sequence is the value of the last expression.
    """

    exprs: tuple[Expr, ...]
    loc: SrcLoc | None = field(default=None, compare=False)


VOID = Lit(None)
"""The canonical void literal, the value of effect-only expressions."""


def seq_of(*exprs: Expr) -> Expr:
    """Build a :class:`Seq`, collapsing the one-expression case."""
    if len(exprs) == 1:
        return exprs[0]
    return Seq(tuple(exprs))


def all_same(new: tuple, old: tuple) -> bool:
    """Did a rewrite give back every node of ``old`` itself?

    Rewrites (flattening, constant folding) return a node unchanged
    when all its children came back unchanged, so memo fields on the
    node survive.
    """
    return all(a is b for a, b in zip(new, old))


def same_rhs(new: tuple, old: tuple) -> bool:
    """:func:`all_same` for ``(name, expr)`` binding pairs."""
    return all(a[1] is b[1] for a, b in zip(new, old))


def children(expr: Expr) -> tuple[Expr, ...]:
    """Return the direct subexpressions of a core expression.

    Unit forms override this through :func:`repro.units.ast.unit_children`;
    this function handles only the core forms and raises ``TypeError``
    on anything else so that callers cannot silently skip node kinds.
    """
    if isinstance(expr, (Lit, Var)):
        return ()
    if isinstance(expr, Lambda):
        return (expr.body,)
    if isinstance(expr, App):
        return (expr.fn, *expr.args)
    if isinstance(expr, If):
        return (expr.test, expr.then, expr.orelse)
    if isinstance(expr, (Let, Letrec)):
        return tuple(e for _, e in expr.bindings) + (expr.body,)
    if isinstance(expr, SetBang):
        return (expr.expr,)
    if isinstance(expr, Seq):
        return expr.exprs
    raise TypeError(f"not a core expression: {expr!r}")
