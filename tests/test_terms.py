"""Content digests, hash-consing, the caching switch, and fresh names.

The performance layer must be *invisible*: structurally equal terms
get equal digests regardless of formatting or source location, memo
fields never leak into equality, the ``--no-term-cache`` switch turns
every memo path off, and ``fresh_like`` keeps generated names bounded
no matter how many rename generations a term survives.
"""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lang import terms
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
from repro.lang.parser import parse_program
from repro.lang.subst import (
    assigned_names,
    fresh_like,
    free_vars,
    substitute,
)
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr

UNIT_SRC = ("(unit (import a) (export f)"
            " (define f (lambda (x) (+ x a))) (void))")


class TestTermKey:
    def test_structurally_equal_terms_share_a_key(self):
        k1 = terms.term_key(parse_program(UNIT_SRC))
        k2 = terms.term_key(parse_program(UNIT_SRC))
        assert k1 == k2
        assert len(k1) == 32

    def test_key_ignores_locations_and_formatting(self):
        reformatted = UNIT_SRC.replace(" (define", "\n   (define")
        k1 = terms.term_key(parse_program(UNIT_SRC, origin="a.scm"))
        k2 = terms.term_key(parse_program(reformatted, origin="b.scm"))
        assert k1 == k2

    def test_key_separates_structures(self):
        variants = [
            UNIT_SRC,
            UNIT_SRC.replace("(+ x a)", "(- x a)"),
            UNIT_SRC.replace("(import a)", "(import b)"),
            UNIT_SRC.replace("(export f)", "(export)")
            .replace(" f ", " g "),
        ]
        keys = {terms.term_key(parse_program(src)) for src in variants}
        assert len(keys) == len(variants)

    def test_literal_types_are_discriminated(self):
        keys = {terms.term_key(Lit(value))
                for value in (1, 1.0, "1", True, None)}
        assert len(keys) == 5

    def test_runtime_payloads_are_unkeyable(self):
        state = App(Var("f"), (Lit(object()),))
        with pytest.raises(terms.Unkeyable):
            terms.term_key(state)
        assert terms.try_term_key(state) is None

    def test_key_is_memoized_on_the_node(self):
        expr = parse_program(UNIT_SRC)
        key = terms.term_key(expr)
        assert expr.__dict__.get("_tk") == key

    def test_no_memo_writes_when_disabled(self):
        with terms.caching(False):
            expr = parse_program(UNIT_SRC)
            terms.term_key(expr)
            free_vars(expr)
            assert "_tk" not in expr.__dict__
            assert "_fv" not in expr.__dict__

    def test_memo_fields_do_not_affect_equality(self):
        plain = parse_program(UNIT_SRC)
        keyed = parse_program(UNIT_SRC)
        terms.term_key(keyed)
        free_vars(keyed)
        assert plain == keyed


X = Var("x")
Y = Var("y")


def _unit(imports, exports):
    return UnitExpr(imports, exports, (), X)


def _compound(imports, exports):
    clause = LinkClause(X, (), ())
    return CompoundExpr(imports, exports, clause, clause)


#: Structurally different terms a naive serialization could confuse.
NEAR_MISSES = [
    ("params split", Lambda(("a", "b"), X), Lambda(("ab",), X)),
    ("digits in names", Lambda(("a1",), X), Lambda(("a", "1"), X)),
    ("length-like names", Lambda(("1:a",), X), Lambda(("1", "a"), X)),
    ("count-like names", Lambda(("1|1:a",), X), Lambda(("a",), X)),
    ("bar in names", Lambda(("a|b",), X), Lambda(("a", "b"), X)),
    ("colon var", Var("1:a"), Var("a")),
    ("let vs letrec", Let((("a", X),), Y), Letrec((("a", X),), Y)),
    ("binding split", Let((("a", X), ("b", X)), Y),
     Let((("ab", X),), Seq((X, Y)))),
    ("import/export split", _unit(("a", "b"), ()), _unit(("a",), ("b",))),
    ("compound split", _compound(("a",), ("b",)), _compound((), ("a", "b"))),
    ("clause names", CompoundExpr((), (), LinkClause(X, ("a",), ()),
                                  LinkClause(X, (), ())),
     CompoundExpr((), (), LinkClause(X, (), ("a",)),
                  LinkClause(X, (), ()))),
    ("app arity", App(X, (Y, Y)), App(App(X, (Y,)), (Y,))),
    ("app vs seq", App(X, (Y,)), Seq((X, Y))),
    ("literal types", Lit(1), Lit("1")),
    ("literal vs var", Lit("x"), X),
    ("set! names", SetBang("a1", X), SetBang("a", Lit(1))),
    ("invoke links", InvokeExpr(X, (("a", Y),)),
     InvokeExpr(X, (("a", Y), ("b", Y)))),
]


class TestKeyInjectivity:
    @pytest.mark.parametrize("name,a,b", NEAR_MISSES,
                             ids=[m[0] for m in NEAR_MISSES])
    def test_near_misses_get_distinct_keys(self, name, a, b):
        assert a != b
        assert terms.term_key(a) != terms.term_key(b)

    def test_schema_is_tk2(self):
        from repro.units.cache import DISK_LAYOUT

        assert terms.SCHEMA == "tk2"
        assert DISK_LAYOUT == "v2-tk2"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_keys_agree_with_equality(self, data):
        a = data.draw(TERMS)
        b = data.draw(TERMS)
        twin = copy.deepcopy(a)  # before any key is memoized on ``a``
        assert (terms.term_key(a) == terms.term_key(b)) == (a == b)
        assert terms.term_key(twin) == terms.term_key(a)


# Literals are drawn from types Python never equates with each other
# (``Lit(1) == Lit(True) == Lit(1.0)`` under dataclass equality, while
# their keys rightly differ).
_NAMES = st.sampled_from(["a", "b", "ab", "a1", "1", "1:a", "a|b", ":"])
_NAME_TUPLES = st.lists(_NAMES, max_size=3).map(tuple)
_LEAVES = st.one_of(
    _NAMES.map(Var),
    st.one_of(st.integers(-2, 2), st.sampled_from(["", "a", "1"]),
              st.none()).map(Lit))


def _extend(kids):
    pairs = st.lists(st.tuples(_NAMES, kids), max_size=2).map(tuple)
    clause = st.builds(LinkClause, kids, _NAME_TUPLES, _NAME_TUPLES)
    return st.one_of(
        st.builds(Lambda, _NAME_TUPLES, kids),
        st.builds(App, kids, st.lists(kids, max_size=3).map(tuple)),
        st.builds(If, kids, kids, kids),
        st.builds(Let, pairs, kids),
        st.builds(Letrec, pairs, kids),
        st.builds(SetBang, _NAMES, kids),
        st.builds(Seq, st.lists(kids, min_size=1, max_size=3).map(tuple)),
        st.builds(UnitExpr, _NAME_TUPLES, _NAME_TUPLES, pairs, kids),
        st.builds(CompoundExpr, _NAME_TUPLES, _NAME_TUPLES, clause, clause),
        st.builds(InvokeExpr, kids, pairs),
    )


TERMS = st.recursive(_LEAVES, _extend, max_leaves=8)


class TestAssignedNames:
    def test_collects_set_targets_in_unit_bodies(self):
        expr = parse_program(
            "(let ((a 1)) (begin (set! a 2)"
            " (unit (import b) (export) (set! b 3))))")
        assert assigned_names(expr) == {"a", "b"}

    def test_memoized_only_when_caching(self):
        expr = parse_program("(lambda (x) (set! x 1))")
        with terms.caching(False):
            assert assigned_names(expr) == {"x"}
            assert "_an" not in expr.__dict__
        assert assigned_names(expr) == {"x"}
        assert expr.__dict__["_an"] == {"x"}


class TestIntern:
    def setup_method(self):
        terms.clear_intern_table()

    def test_structural_copies_collapse_to_one_node(self):
        first = terms.intern(parse_program(UNIT_SRC))
        second = terms.intern(parse_program(UNIT_SRC))
        assert second is first
        assert terms.interned_count() == 1

    def test_interning_passes_through_when_disabled(self):
        with terms.caching(False):
            expr = parse_program(UNIT_SRC)
            assert terms.intern(expr) is expr
            assert terms.interned_count() == 0

    def test_unkeyable_terms_pass_through(self):
        state = App(Var("f"), (Lit(object()),))
        assert terms.intern(state) is state


class TestCachingSwitch:
    def test_set_returns_previous(self):
        prev = terms.set_caching(False)
        try:
            assert not terms.caching_enabled()
        finally:
            terms.set_caching(prev)

    def test_context_manager_restores(self):
        before = terms.caching_enabled()
        with terms.caching(not before):
            assert terms.caching_enabled() is not before
        assert terms.caching_enabled() is before


class TestSubstShortCircuit:
    def test_untouched_subtree_is_returned_identically(self):
        expr = parse_program("(lambda (x) (+ x 1))")
        assert substitute(expr, {"zzz": Lit(1)}) is expr

    def test_disabled_path_agrees(self):
        expr = parse_program("(lambda (x) (+ x y))")
        mapping = {"y": Lit(7)}
        cached = substitute(expr, mapping)
        with terms.caching(False):
            uncached = substitute(parse_program("(lambda (x) (+ x y))"),
                                  mapping)
        assert cached == uncached


class TestFreshLike:
    def test_generated_names_do_not_accumulate_suffixes(self):
        name = "x"
        for _ in range(64):
            name = fresh_like(name, set())
        assert name.startswith("x%")
        assert name.count("%") == 1

    def test_user_names_containing_percent_keep_their_stem(self):
        out = fresh_like("x%y", {"x%y"})
        assert out.startswith("x%y%")

    def test_machine_suffix_chains_are_fully_stripped(self):
        out = fresh_like("v%12%5", set())
        assert out.startswith("v%")
        assert out.count("%") == 1

    def test_avoid_set_is_respected(self):
        avoid = {f"w%{i}" for i in range(200)}
        out = fresh_like("w", avoid)
        assert out not in avoid

    def test_deeply_nested_merges_keep_names_bounded(self):
        # Link many copies of one library unit: every merge renames the
        # library's definitions apart, so each definition name survives
        # dozens of rename generations.  Lengths must stay flat.
        from repro.linking.graph import LinkGraph
        from repro.lang.pretty import show
        from repro.units.ast import InvokeExpr
        from repro.units.linker import flatten

        source = ("(unit (import) (export)"
                  " (define helper (lambda (x) (+ x 1)))"
                  " (helper 1))")
        graph = LinkGraph(exports=())
        for k in range(24):
            graph.add_box(f"c{k}", source)
        flat = flatten(InvokeExpr(graph.to_compound_expr(), ()))
        longest = max(
            (token for token in show(flat).replace("(", " ")
             .replace(")", " ").split() if token.startswith("helper")),
            key=len)
        assert len(longest) <= len("helper") + 12
