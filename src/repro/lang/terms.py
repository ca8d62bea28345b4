"""Hash-consing and content addressing for term syntax.

The rewriting semantics re-walks whole terms constantly: ``invoke``
substitutes values for imports, ``compound`` alpha-renames two units
apart (Section 4.1.5), and the Figure 12 compiler recomputes free
variables at every nesting level.  Since every AST node is an
*immutable* frozen dataclass, the same structural facts never change
once computed — this module provides the shared machinery that lets
the rest of the pipeline exploit that:

* :func:`term_key` — a stable content digest of a term's *structure*
  (source locations excluded, exactly like dataclass equality), the
  key of every content-addressed cache in :mod:`repro.units.cache`;
* :func:`intern` — hash-consing: structurally identical terms collapse
  to one shared node, so per-node memo fields (free-variable sets,
  digests) are computed once per structure rather than once per copy;
* the **caching switch** — ``set_caching``/:func:`caching_enabled`
  and the ``REPRO_NO_TERM_CACHE`` environment variable, the
  ``--no-term-cache`` escape hatch that forces the unmemoized path for
  differential testing.

Memo fields are written with ``object.__setattr__`` onto the frozen
nodes themselves (``_fv`` for free variables, ``_tk`` for the digest).
They never appear in ``==``/``repr`` (dataclasses compare declared
fields only) and they are valid for the node's whole lifetime because
nodes are immutable — there is no invalidation problem to solve.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Iterator

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
)
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr

#: Version tag of the digest format, the BLAKE2b personalization of
#: every node hash.  Bump it whenever a payload below changes shape:
#: old digests (including on-disk cache entries, which live under a
#: directory named after this tag) become unreachable instead of wrong.
SCHEMA = "tk2"

#: The global term-caching switch.  On by default; ``--no-term-cache``
#: (or the environment variable) turns off memo reads *and* writes, so
#: the old recompute-everything path runs for differential testing.
_enabled = os.environ.get("REPRO_NO_TERM_CACHE", "") in ("", "0")


def caching_enabled() -> bool:
    """Is the term-performance layer (memos, interning) active?"""
    return _enabled


def set_caching(on: bool) -> bool:
    """Set the caching switch; returns the previous value."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    return prev


@contextmanager
def caching(on: bool) -> Iterator[None]:
    """Scope the caching switch (tests and the differential sweep)."""
    prev = set_caching(on)
    try:
        yield
    finally:
        set_caching(prev)


class Unkeyable(TypeError):
    """The term embeds run-time data and has no stable content digest.

    The machine carries primitive data (pairs, boxes, hash tables)
    inside :class:`~repro.lang.ast.Lit` nodes; such terms are program
    *states*, not program *syntax*, and content-addressed caches must
    not key on them.  Callers use :func:`try_term_key` to skip caching
    instead of crashing.
    """


_ATOM_TAGS = {int: "i", float: "f", str: "s", bool: "b"}
_PERSON = SCHEMA.encode("ascii")


def hash_payload(payload: str) -> str:
    """The ``SCHEMA``-personalized 32-char hex digest of one payload."""
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16,
                           person=_PERSON).hexdigest()


def encode_names(names) -> str:
    """A name list as one unambiguous string: the count, then each
    name length-prefixed (``2|1:a1:b`` is never ``1|2:ab``)."""
    return f"{len(names)}|" + "".join(f"{len(n)}:{n}" for n in names)


def term_key(expr: Expr) -> str:
    """A stable structural digest of ``expr`` (hex, 32 chars).

    Two terms have the same key iff they are structurally equal in the
    dataclass sense — source locations are excluded (``loc`` carries
    ``compare=False``), so a parsed copy of a printed term keys the
    same as the original.  Raises :class:`Unkeyable` for terms holding
    non-literal run-time data.

    One BLAKE2b call per node hashes that node's payload: a one-letter
    tag, its names (:func:`encode_names`), and its children's keys,
    which are fixed-width and memoized on the children — so digesting
    a term after digesting its parts costs O(1) per part.
    """
    cached = expr.__dict__.get("_tk")
    if cached is not None:
        return cached
    payload = _PAYLOADS.get(type(expr))
    if payload is None:
        raise TypeError(f"term_key: unknown expression {expr!r}")
    key = hash_payload(payload(expr))
    if _enabled:
        object.__setattr__(expr, "_tk", key)
    return key


def try_term_key(expr: Expr) -> str | None:
    """:func:`term_key`, or ``None`` when the term is unkeyable."""
    try:
        return term_key(expr)
    except Unkeyable:
        return None


def _lit(expr: Lit) -> str:
    value = expr.value
    if value is None:
        return "Ln"
    tag = _ATOM_TAGS.get(type(value))
    if tag is None:
        raise Unkeyable(
            f"term embeds run-time data and cannot be content-"
            f"addressed: {type(value).__name__}")
    return "L" + tag + repr(value)


def _bindings(pairs) -> str:
    return f"{len(pairs)}|" + "".join(
        f"{len(name)}:{name}{term_key(rhs)}" for name, rhs in pairs)


def _compound(expr: CompoundExpr) -> str:
    return "".join((
        "C", encode_names(expr.imports), encode_names(expr.exports),
        *(term_key(clause.expr) + encode_names(clause.withs)
          + encode_names(clause.provides)
          for clause in (expr.first, expr.second))))


#: Node type -> payload builder.  Children contribute their 32-char
#: keys, so only names need delimiting.
_PAYLOADS = {
    Lit: _lit,
    Var: lambda e: "V" + e.name,
    Lambda: lambda e: "\\" + encode_names(e.params) + term_key(e.body),
    App: lambda e: "A" + term_key(e.fn) + "".join(map(term_key, e.args)),
    If: lambda e: ("I" + term_key(e.test) + term_key(e.then)
                   + term_key(e.orelse)),
    Let: lambda e: "T" + _bindings(e.bindings) + term_key(e.body),
    Letrec: lambda e: "R" + _bindings(e.bindings) + term_key(e.body),
    SetBang: lambda e: f"!{len(e.name)}:{e.name}" + term_key(e.expr),
    Seq: lambda e: "Q" + "".join(map(term_key, e.exprs)),
    UnitExpr: lambda e: ("U" + encode_names(e.imports)
                         + encode_names(e.exports) + _bindings(e.defns)
                         + term_key(e.init)),
    CompoundExpr: _compound,
    InvokeExpr: lambda e: "K" + term_key(e.expr) + _bindings(e.links),
}


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

#: Interned canonical nodes, keyed by digest.  Bounded: a long-running
#: process (the REPL, a bench sweep) must not leak every term it ever
#: saw, so the table is dropped wholesale when it outgrows the bound —
#: interning is an optimization, never a correctness requirement.
_INTERN_LIMIT = 8192
_interned: dict[str, Expr] = {}


def intern(expr: Expr) -> Expr:
    """Return the canonical node for ``expr``'s structure.

    The first term of a given structure becomes canonical; later
    structurally equal terms return the canonical node, sharing its
    memoized free-variable set and digest.  Unkeyable terms (and all
    terms when caching is off) pass through unchanged.
    """
    if not _enabled:
        return expr
    key = try_term_key(expr)
    if key is None:
        return expr
    found = _interned.get(key)
    if found is not None:
        return found
    if len(_interned) >= _INTERN_LIMIT:
        _interned.clear()
    _interned[key] = expr
    return expr


def interned_count() -> int:
    """How many canonical nodes the intern table currently holds."""
    return len(_interned)


def clear_intern_table() -> None:
    """Drop all canonical nodes (tests and bench isolation)."""
    _interned.clear()
