"""Tests for the whole-program static linker (flatten + optimize)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lang.ast import (
    App,
    If,
    Lambda,
    Let,
    Letrec,
    Lit,
    Seq,
    SetBang,
    Var,
)
from repro.lang.interp import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.lang.terms import term_key
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr
from repro.units.cache import unit_cache_scope
from repro.units.linker import LinkStats, flatten, link_and_optimize
from repro.units.optimize import fold_constants, optimize_expr

from tests.test_corpus import CASES


def contains_compound(expr) -> bool:
    from repro.units.ast import unit_children

    if isinstance(expr, CompoundExpr):
        return True
    try:
        kids = unit_children(expr)
    except TypeError:
        return False
    return any(contains_compound(k) for k in kids)


NESTED = """
    (invoke
      (compound (import) (export)
        (link ((compound (import) (export a b)
                 (link ((unit (import) (export a) (define a 10) (void))
                        (with) (provides a))
                       ((unit (import a) (export b)
                          (define b (lambda () (+ a 1))) (void))
                        (with a) (provides b))))
               (with) (provides a b))
              ((unit (import a b) (export) (+ a (b)))
               (with a b) (provides)))))
"""


class TestFlatten:
    def test_known_compounds_merged(self):
        stats = LinkStats()
        flat = flatten(parse_program(NESTED), stats)
        assert stats.merged == 2
        assert stats.left_dynamic == 0
        assert not contains_compound(flat)
        assert isinstance(flat, InvokeExpr)
        assert isinstance(flat.expr, UnitExpr)

    def test_behaviour_preserved(self):
        direct, _ = run_program(NESTED)
        flat = flatten(parse_program(NESTED))
        assert Interpreter().eval(flat) == direct == 21

    def test_let_bound_unit_literal_resolved(self):
        # A variable bound directly to a unit literal is "known": the
        # linker resolves it at the clause position and merges.
        program = parse_program("""
            (let ((mystery (unit (import) (export v) (define v 1) (void))))
              (invoke
                (compound (import) (export)
                  (link (mystery (with) (provides v))
                        ((unit (import v) (export) v)
                         (with v) (provides))))))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 1
        assert stats.left_dynamic == 0
        assert not contains_compound(flat)
        assert Interpreter().eval(flat) == 1

    def test_truly_dynamic_compound_left_alone(self):
        # The constituent is chosen at run time: nothing to merge.
        program = parse_program("""
            (let ((mystery (if (< 1 2)
                               (unit (import) (export v) (define v 1) (void))
                               (unit (import) (export v) (define v 2) (void)))))
              (invoke
                (compound (import) (export)
                  (link (mystery (with) (provides v))
                        ((unit (import v) (export) v)
                         (with v) (provides))))))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 0
        assert stats.left_dynamic == 1
        assert contains_compound(flat)
        assert Interpreter().eval(flat) == 1

    def test_assigned_binding_not_resolved(self):
        # The binding is mutated before linking; resolution would be
        # wrong, so the compound stays dynamic.
        program = parse_program("""
            (let ((mystery (unit (import) (export v) (define v 1) (void))))
              (begin
                (set! mystery (unit (import) (export v)
                                (define v 9) (void)))
                (invoke
                  (compound (import) (export)
                    (link (mystery (with) (provides v))
                          ((unit (import v) (export) v)
                           (with v) (provides)))))))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 0
        assert Interpreter().eval(flat) == 9

    def test_lambda_parameter_not_resolved(self):
        program = parse_program("""
            ((lambda (u)
               (invoke
                 (compound (import) (export)
                   (link (u (with) (provides v))
                         ((unit (import v) (export) v)
                          (with v) (provides))))))
             (unit (import) (export v) (define v 5) (void)))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 0
        assert Interpreter().eval(flat) == 5

    def test_mixed_static_and_dynamic(self):
        program = parse_program("""
            (let ((dyn (unit (import) (export x) (define x 2) (void))))
              (+ (invoke (compound (import) (export)
                           (link ((unit (import) (export y)
                                    (define y 3) (void))
                                  (with) (provides y))
                                 ((unit (import y) (export) y)
                                  (with y) (provides)))))
                 (invoke (compound (import) (export)
                           (link (dyn (with) (provides x))
                                 ((unit (import x) (export) x)
                                  (with x) (provides)))))))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 2  # the let-bound literal also resolves
        assert stats.left_dynamic == 0
        assert Interpreter().eval(flat) == 5

    def test_stats_render(self):
        stats = LinkStats(merged=3, left_dynamic=1)
        assert "3 compound(s)" in str(stats)


class TestLinkAndOptimize:
    def test_pipeline_strips_cross_unit_dead_code(self):
        program = parse_program("""
            (invoke
              (compound (import) (export)
                (link ((unit (import) (export used dead)
                         (define used (lambda () (+ 20 1)))
                         (define dead (lambda () 0))
                         (void))
                       (with) (provides used dead))
                      ((unit (import used) (export) (* 2 (used)))
                       (with used) (provides)))))
        """)
        linked, stats = link_and_optimize(program)
        assert stats.merged == 1
        assert isinstance(linked, InvokeExpr)
        unit = linked.expr
        assert isinstance(unit, UnitExpr)
        assert "dead" not in unit.defined
        assert Interpreter().eval(linked) == 42

    def test_pipeline_folds_across_boundaries(self):
        program = parse_program("""
            (invoke
              (compound (import) (export)
                (link ((unit (import) (export k) (define k (* 6 7)) (void))
                       (with) (provides k))
                      ((unit (import k) (export) k)
                       (with k) (provides)))))
        """)
        linked, _ = link_and_optimize(program)
        assert Interpreter().eval(linked) == 42

    PROGRAMS = [
        NESTED,
        "(invoke (unit (import) (export) (+ 1 2)))",
        """(let ((u (unit (import n) (export) (* n n))))
             (+ (invoke u (n 2)) (invoke u (n 3))))""",
        """(invoke (compound (import) (export)
             (link ((unit (import pong) (export ping)
                      (define ping (lambda (n)
                        (if (zero? n) 0 (pong (- n 1))))) (void))
                    (with pong) (provides ping))
                   ((unit (import ping) (export pong)
                      (define pong (lambda (n)
                        (if (zero? n) 1 (ping (- n 1)))))
                      (ping 9))
                    (with ping) (provides pong)))))""",
    ]

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_pipeline_preserves_behaviour(self, source):
        direct, _ = run_program(source)
        linked, _ = link_and_optimize(parse_program(source))
        assert Interpreter().eval(linked) == direct

    def test_phonebook_through_the_linker(self):
        from repro.phonebook.program import build_ipb, run_ipb
        from repro.unitc.erase import erase

        direct_result, direct_output = run_ipb()
        program = InvokeExpr(erase(build_ipb()), ())
        linked, stats = link_and_optimize(program)
        assert stats.merged >= 3  # PhoneBook + the graph's fold steps
        interp = Interpreter()
        assert interp.eval(linked) == direct_result
        assert interp.port.getvalue() == direct_output


# ---------------------------------------------------------------------------
# The sharing contract: rewrites return unchanged nodes themselves, so
# digests and free-variable sets memoized during checking survive into
# link, optimize and codegen keying.
# ---------------------------------------------------------------------------

_names = st.sampled_from(["f", "g", "x", "y"])
_leaves = st.one_of(_names.map(Var), st.integers(0, 3).map(Lit),
                    st.sampled_from(["", "s"]).map(Lit))


def _rewrite_free(kids):
    """Compound-free terms whose every node folding leaves alone:
    applications of non-primitive heads, non-literal ``if`` tests, and
    units whose definitions are all exported lambdas."""
    pairs = st.lists(st.tuples(_names, kids), max_size=2,
                     unique_by=lambda p: p[0]).map(tuple)
    params = st.lists(_names, max_size=2, unique=True).map(tuple)
    heads = st.sampled_from(["f", "g"]).map(Var)

    @st.composite
    def units(draw):
        defns = draw(st.lists(
            st.tuples(st.sampled_from(["d1", "d2"]),
                      st.builds(Lambda, params, kids)),
            max_size=2, unique_by=lambda d: d[0]).map(tuple))
        return UnitExpr(draw(params), tuple(n for n, _ in defns), defns,
                        draw(kids))

    unit_like = st.one_of(units(), _names.map(Var))
    return st.one_of(
        st.builds(Lambda, params, kids),
        st.builds(App, heads, st.lists(kids, max_size=2).map(tuple)),
        st.builds(If, _names.map(Var), kids, kids),
        st.builds(Let, pairs, kids),
        st.builds(Letrec, pairs, kids),
        st.builds(SetBang, _names, kids),
        st.builds(Seq, st.lists(kids, min_size=1, max_size=3).map(tuple)),
        units(),
        st.builds(InvokeExpr, unit_like, pairs),
    )


REWRITE_FREE = st.recursive(_leaves, _rewrite_free, max_leaves=10)


class TestSharingContract:
    @settings(max_examples=200, deadline=None)
    @given(REWRITE_FREE)
    def test_rewrite_free_terms_come_back_identically(self, term):
        assert flatten(term) is term
        assert fold_constants(term, frozenset()) is term

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_corpus_rewrites_keep_unchanged_programs(self, case):
        program = parse_program(case.source)
        flat = flatten(program)
        if not contains_compound(program):
            assert flat is program
        folded = optimize_expr(flat)
        if folded == flat:
            assert folded is flat

    def test_unit_digest_survives_link_and_optimize(self):
        program = parse_program("""
            (invoke (unit (import) (export f)
                      (define f (lambda (n) (g n)))
                      (define g (lambda (n) n))
                      (f 1)))""")
        key = term_key(program.expr)
        with unit_cache_scope():
            linked, _stats = link_and_optimize(program)
        assert linked is program
        assert linked.expr.__dict__["_tk"] == key

    def test_merged_program_keeps_its_unchanged_parts(self):
        program = parse_program("""
            (invoke (compound (import) (export)
              (link ((unit (import) (export f)
                       (define f (lambda (n) (* n 2))) (void))
                     (with) (provides f))
                    ((unit (import f) (export)
                       (define g (lambda (n) (f n))) (g 21))
                     (with f) (provides)))))""")
        f_rhs = program.expr.first.expr.defns[0][1]
        key = term_key(f_rhs)
        linked, stats = link_and_optimize(program)
        assert stats.merged == 1
        merged = dict(linked.expr.defns)
        assert merged["f"] is f_rhs
        assert merged["f"].__dict__["_tk"] == key
