"""Seeded unit programs, written as source text, with closed-form answers.

A program is a link DAG of *nodes*: node ``i`` is one atomic unit that
imports the boxes of its dependencies (always earlier nodes), defines
its own box ``v<i>`` and a private counting loop ``w``, and at
initialization stores

    val(i) = (c_i * m_i + sum(val(d) for d in deps(i))) mod P

into its box.  A final *main* unit imports the last node and returns
its box's contents, so the program's value is ``val(n - 1)``, computed
here from the spec without touching the pipeline under test.

Every node depends on its predecessor (a backbone, so every node is
reachable from main); the DAG family adds more edges:

* ``chain``   — the backbone only;
* ``diamond`` — also ``i - 2`` (every pair of neighbours re-joins);
* ``fanin``   — also node 0, a shared library used by every node.

The units are linked as a *balanced* tree of binary ``compound`` forms
over the nodes in topological order, so nesting depth grows with
``log n`` and the text grows linearly with ``n`` (a left-nested link
graph grows quadratically and trips the reader's nesting cap near 128
units).  Each compound imports exactly the names its leaves use from
earlier leaves and exports exactly the names later leaves use.

Typed programs (``unit/t`` / ``compound/t`` / ``invoke/t``) share the
same DAG and arithmetic, with every box typed ``(box int)``; their
type is ``int``.

Two expected-error programs exist for the server workloads: a link
clause naming a variable nobody provides (a ``CheckError``), and a
long loop run under an ``eval_steps`` cap (a ``BudgetExceeded``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The modulus keeping every value small.
P = 1_000_003

SHAPES = ("chain", "diamond", "fanin")



@dataclass(frozen=True)
class Spec:
    """One program: per-node constants, loop counts and dependencies."""

    shape: str
    consts: tuple[int, ...]
    loops: tuple[int, ...]
    deps: tuple[tuple[int, ...], ...]
    typed: bool = False

    @property
    def size(self) -> int:
        return len(self.consts)


def make_spec(rng: random.Random, size: int, shape: str, uid: int,
              typed: bool = False) -> Spec:
    """A fresh program of ``size`` nodes.

    ``uid`` is written into every constant (``c_i`` encodes ``uid``
    and ``i``), so no unit body is shared between two programs with
    different uids, nor between two nodes of one program.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    if size < 2:
        raise ValueError("a program needs at least 2 nodes")
    salt = rng.randrange(1, 1 << 19)
    consts = tuple(((uid << 12) + i) * (1 << 20) + salt
                   for i in range(size))
    loops = tuple(rng.randrange(4, 13) for _ in range(size))
    deps: list[tuple[int, ...]] = [()]
    for i in range(1, size):
        extra = {"chain": None,
                 "diamond": i - 2 if i >= 2 else None,
                 "fanin": 0 if i >= 2 else None}[shape]
        deps.append((i - 1,) if extra is None else (extra, i - 1))
    return Spec(shape, consts, loops, tuple(deps), typed)


def expected_value(spec: Spec) -> int:
    """The program's value, in closed form from the spec."""
    vals: list[int] = []
    for c, m, deps in zip(spec.consts, spec.loops, spec.deps):
        vals.append((c * m + sum(vals[d] for d in deps)) % P)
    return vals[-1]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _v(i: int) -> str:
    return f"v{i}"


def _decl(name: str, typed: bool) -> str:
    return f"(val {name} (box int))" if typed else name


def _clause(keyword: str, names: list[str], typed: bool) -> str:
    return "(" + " ".join([keyword] + [_decl(n, typed) for n in names]) + ")"


def _node_unit(spec: Spec, i: int, exports: list[str]) -> str:
    t = spec.typed
    imports = [_v(d) for d in sorted(spec.deps[i])]
    # Binary sums: the typed ``+`` takes exactly two arguments.
    total = f"(w {spec.loops[i]} 0)"
    for name in imports:
        total = f"(+ {total} (unbox {name}))"
    if t:
        loop = ("(define w (-> int int int) (lambda ((n int) (acc int)) "
                f"(if (= n 0) acc (w (- n 1) (+ acc {spec.consts[i]})))))")
        box = f"(define {_v(i)} (box int) (box 0))"
        head = "unit/t"
    else:
        loop = ("(define w (lambda (n acc) "
                f"(if (= n 0) acc (w (- n 1) (+ acc {spec.consts[i]})))))")
        box = f"(define {_v(i)} (box 0))"
        head = "unit"
    return (f"({head} {_clause('import', imports, t)} "
            f"{_clause('export', exports, t)}\n"
            f"  {box}\n  {loop}\n"
            f"  (set-box! {_v(i)} (modulo {total} {P})))")


def _main_unit(spec: Spec) -> str:
    last = _v(spec.size - 1)
    head = "unit/t" if spec.typed else "unit"
    return (f"({head} {_clause('import', [last], spec.typed)} (export)\n"
            f"  (unbox {last}))")


def render(spec: Spec, invoke: bool = True) -> str:
    """The program's source text (deterministic in the spec).

    With ``invoke=False`` the text is the linked library alone: the
    compound over the nodes (no main unit), importing nothing and
    exporting the last node's box — what a ``link`` request sends.
    """
    n = spec.size
    # Leaf n is main; it uses the last node.
    uses = [tuple(spec.deps[i]) for i in range(n)] + [(n - 1,)]
    # last_use[j] = the largest leaf that uses node j's box.
    last_use = [-1] * n
    for leaf, used in enumerate(uses):
        for j in used:
            last_use[j] = max(last_use[j], leaf)
    t = spec.typed

    def used_from(lo: int, hi: int, before: int) -> list[str]:
        names = {j for leaf in range(lo, hi) for j in uses[leaf]
                 if j < before}
        return [_v(j) for j in sorted(names)]

    def needed_after(lo: int, hi: int, after: int) -> list[str]:
        return [_v(j) for j in range(lo, min(hi, n)) if last_use[j] >= after]

    def build(lo: int, hi: int, indent: int) -> str:
        pad = "  " * indent
        if hi - lo == 1:
            text = (_main_unit(spec) if lo == n
                    else _node_unit(spec, lo, needed_after(lo, hi, hi)))
            return pad + text.replace("\n", "\n" + pad)
        mid = (lo + hi) // 2
        head = "compound/t" if t else "compound"
        imports = used_from(lo, hi, lo)
        exports = needed_after(lo, hi, hi)
        left_with = used_from(lo, mid, lo)
        left_prov = needed_after(lo, mid, mid)
        right_with = used_from(mid, hi, mid)
        right_prov = needed_after(mid, hi, hi)
        return (f"{pad}({head} {_clause('import', imports, t)} "
                f"{_clause('export', exports, t)}\n"
                f"{pad} (link\n"
                f"{pad}  ({build(lo, mid, indent + 1).lstrip()}\n"
                f"{pad}   {_clause('with', left_with, t)} "
                f"{_clause('provides', left_prov, t)})\n"
                f"{pad}  ({build(mid, hi, indent + 1).lstrip()}\n"
                f"{pad}   {_clause('with', right_with, t)} "
                f"{_clause('provides', right_prov, t)})))")

    if not invoke:
        return build(0, n, 0) + "\n"
    head = "invoke/t" if t else "invoke"
    return f"({head}\n{build(0, n + 1, 1)})\n"


def render_flat(spec: Spec) -> str:
    """The same program as one atomic unit (untyped): every node's
    definitions side by side, the private loops renamed ``w<i>``, and
    the initializations in node order."""
    if spec.typed:
        raise ValueError("render_flat writes untyped programs only")
    defns, inits = [], []
    for i in range(spec.size):
        total = f"(w{i} {spec.loops[i]} 0)"
        for d in sorted(spec.deps[i]):
            total = f"(+ {total} (unbox {_v(d)}))"
        defns.append(f"  (define {_v(i)} (box 0))\n"
                     f"  (define w{i} (lambda (n acc) (if (= n 0) acc "
                     f"(w{i} (- n 1) (+ acc {spec.consts[i]})))))")
        inits.append(f"(set-box! {_v(i)} (modulo {total} {P}))")
    inits.append(f"(unbox {_v(spec.size - 1)})")
    return ("(invoke (unit (import) (export)\n" + "\n".join(defns)
            + "\n  (begin " + "\n    ".join(inits) + ")))\n")


# ---------------------------------------------------------------------------
# Expected-error programs
# ---------------------------------------------------------------------------

#: ``(error type, resource or None)`` for each error program kind.
ERROR_KINDS = {
    "link-mismatch": ("CheckError", None),
    "step-cap": ("BudgetExceeded", "eval_steps"),
}

#: The ``eval_steps`` cap sent with a ``step-cap`` program.
STEP_CAP = 2_000


def error_program(kind: str, uid: int) -> str:
    """A program whose run must fail with ``ERROR_KINDS[kind]``."""
    if kind == "link-mismatch":
        # The second constituent's with clause names ``missing``, which
        # is neither imported nor provided by the first constituent.
        return ("(invoke\n (compound (import) (export)\n  (link\n"
                f"   ((unit (import) (export a{uid}) (define a{uid} {uid}) "
                "(void))\n"
                f"    (with) (provides a{uid}))\n"
                "   ((unit (import missing) (export) missing)\n"
                "    (with missing) (provides)))))\n")
    if kind == "step-cap":
        # Far more than STEP_CAP steps: the cap must trip.
        return ("(invoke (unit (import) (export)\n"
                "  (define spin (lambda (n) (if (= n 0) 0 "
                "(spin (- n 1)))))\n"
                f"  (spin {100 * STEP_CAP + uid})))\n")
    raise ValueError(f"unknown error kind {kind!r}")
