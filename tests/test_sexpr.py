"""Tests for the s-expression reader and printer."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.lang.errors import LexError
from repro.lang.sexpr import (
    MAX_NESTING_DEPTH,
    SList,
    Symbol,
    format_sexpr,
    read_all_sexprs,
    read_sexpr,
    slist,
    sym,
    write_sexpr,
)
from repro.limits import Budget, BudgetExceeded, budget_scope


class TestReadAtoms:
    def test_integer(self):
        assert read_sexpr("42") == 42

    def test_negative_integer(self):
        assert read_sexpr("-17") == -17

    def test_float(self):
        assert read_sexpr("3.25") == 3.25

    def test_symbol(self):
        assert read_sexpr("hello") == sym("hello")

    def test_symbol_with_punctuation(self):
        assert read_sexpr("set-box!") == sym("set-box!")

    def test_symbol_with_arrow(self):
        assert read_sexpr("->") == sym("->")

    def test_true(self):
        assert read_sexpr("#t") is True

    def test_false(self):
        assert read_sexpr("#f") is False

    def test_string(self):
        assert read_sexpr('"hello world"') == "hello world"

    def test_string_escapes(self):
        assert read_sexpr(r'"a\nb\tc\"d\\e"') == 'a\nb\tc"d\\e'

    def test_unknown_hash(self):
        with pytest.raises(LexError):
            read_sexpr("#q")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            read_sexpr('"abc')


class TestNumberGrammar:
    """Numbers are ASCII: ``[+-]?[0-9]+`` ints, decimal floats with a
    ``.`` or an exponent, and Racket's non-finite floats."""

    @pytest.mark.parametrize("text,value", [
        ("0", 0), ("+7", 7), ("-007", -7), ("1.", 1.0), (".5", 0.5),
        ("-2.5e3", -2500.0), ("1E-2", 0.01), ("+.5e+1", 5.0), ("3e2", 300.0),
    ])
    def test_finite(self, text, value):
        datum = read_sexpr(text)
        assert datum == value and type(datum) is type(value)

    def test_non_finite(self):
        assert read_sexpr("+inf.0") == math.inf
        assert read_sexpr("-inf.0") == -math.inf
        assert math.isnan(read_sexpr("+nan.0"))

    @pytest.mark.parametrize("text", [
        "inf", "-inf", "nan", "+nan", "infinity", "Infinity", "NaN",
        "inf.0", "-nan.0", "1_000", "1_0.5", "\u0661\u0662", "1e", "e5",
        ".", "+", "-", "...", ".e5", "1.5.2", "0x10", "1/2",
    ])
    def test_other_atoms_are_symbols(self, text):
        assert read_sexpr(text) == sym(text)

    def test_inf_can_be_bound(self):
        from repro.lang.interp import Interpreter
        from repro.lang.parser import parse_program

        assert Interpreter().eval(parse_program("(let ((inf 1)) inf)")) == 1

    def test_non_finite_floats_print_in_reader_syntax(self):
        assert write_sexpr(slist(math.inf, -math.inf, math.nan)) \
            == "(+inf.0 -inf.0 +nan.0)"


class TestReadLists:
    def test_empty(self):
        assert read_sexpr("()") == slist()

    def test_flat(self):
        assert read_sexpr("(a 1 2)") == slist(sym("a"), 1, 2)

    def test_nested(self):
        assert read_sexpr("(a (b c) d)") == slist(
            sym("a"), slist(sym("b"), sym("c")), sym("d"))

    def test_brackets(self):
        assert read_sexpr("[a b]") == slist(sym("a"), sym("b"))

    def test_mismatched_brackets(self):
        with pytest.raises(LexError):
            read_sexpr("(a b]")

    def test_unterminated(self):
        with pytest.raises(LexError):
            read_sexpr("(a b")

    def test_stray_close(self):
        with pytest.raises(LexError):
            read_sexpr(")")

    def test_comments_skipped(self):
        assert read_sexpr("(a ; comment\n b)") == slist(sym("a"), sym("b"))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(LexError):
            read_sexpr("(a) (b)")

    def test_read_all(self):
        assert read_all_sexprs("(a) (b) 3") == [
            slist(sym("a")), slist(sym("b")), 3]

    def test_read_all_empty(self):
        assert read_all_sexprs("  ; nothing\n") == []


class TestDepthGuard:
    def test_reasonable_nesting_accepted(self):
        text = "(" * 100 + "x" + ")" * 100
        datum = read_sexpr(text)
        for _ in range(100):
            assert isinstance(datum, SList)
            datum = datum[0]
        assert datum == sym("x")

    def test_hostile_nesting_rejected_cleanly(self):
        text = "(" * 100_000 + "x" + ")" * 100_000
        with pytest.raises(LexError, match="nesting deeper"):
            read_sexpr(text)

    def test_depth_resets_between_siblings(self):
        # Sequential (not nested) lists never accumulate depth.
        text = "(" + " ".join("(a)" for _ in range(1000)) + ")"
        datum = read_sexpr(text)
        assert len(datum) == 1000


#: Malformed input: the exact message and the ``line:col`` it names.
MALFORMED = [
    ("", "unexpected end of input", 1, 1),
    ("  ; only a comment\n ", "unexpected end of input", 2, 2),
    ("(a b", "unterminated list", 1, 1),
    ("(a\n  (b c", "unterminated list", 2, 3),
    ('(a "bc', "unterminated string literal", 1, 4),
    ('(a\n "b\nc', "unterminated string literal", 2, 2),
    ("(a b]", "mismatched close paren: expected ')'", 1, 5),
    ("[a\n (b)\n )", "mismatched close paren: expected ']'", 3, 2),
    (")", "unexpected ')'", 1, 1),
    ("\n  ]", "unexpected ']'", 2, 3),
    ("#q", "unknown '#' syntax", 1, 1),
    ("(a #)", "unknown '#' syntax", 1, 4),
    ("#tx", "bad token after #t", 1, 1),
    ("(#f#t)", "bad token after #f", 1, 2),
    ('"a\\qb"', "unknown string escape '\\q'", 1, 1),
    ('(x "a\\', "unterminated escape in string literal", 1, 4),
    ('"a\\q', "unknown string escape '\\q'", 1, 1),
    ("(a) (b)", "unexpected text after datum", 1, 5),
    ("a ; c\n \"unterminated", "unexpected text after datum", 2, 2),
    ("(" * 251 + ")" * 251,
     f"nesting deeper than {MAX_NESTING_DEPTH} levels", 1, 251),
    ("(\n" * 260, f"nesting deeper than {MAX_NESTING_DEPTH} levels", 251, 1),
]


class TestMalformed:
    @pytest.mark.parametrize("text,message,line,col", MALFORMED)
    def test_message_and_location(self, text, message, line, col):
        with pytest.raises(LexError) as info:
            read_sexpr(text, "t")
        assert (info.value.message, info.value.loc.line,
                info.value.loc.col) == (message, line, col)
        assert info.value.loc.origin == "t"

    def test_read_all_reports_a_stray_close(self):
        with pytest.raises(LexError) as info:
            read_all_sexprs("(a)\n  )")
        assert (info.value.message, info.value.loc.line,
                info.value.loc.col) == ("unexpected ')'", 2, 3)

    @pytest.mark.parametrize("cap,deepest", [(100, 100), (251, 251)])
    def test_budget_governs_depth(self, cap, deepest):
        text = "(" * 251 + ")" * 251
        budget = Budget(max_depth=cap)
        with budget_scope(budget):
            if cap < 251:
                with pytest.raises(BudgetExceeded) as info:
                    read_sexpr(text)
                assert (info.value.resource, info.value.used) \
                    == ("depth", cap + 1)
                assert info.value.loc.col == cap + 1
            else:
                read_sexpr(text)
        assert budget.max_depth_seen == deepest


class TestLocations:
    def test_symbol_location(self):
        datum = read_sexpr("(a\n  b)")
        b = datum.items[1]
        assert b.loc.line == 2
        assert b.loc.col == 3

    def test_locations_ignored_by_equality(self):
        assert read_sexpr("(a b)") == read_sexpr("  (a   b)")


class TestWrite:
    def test_roundtrip_simple(self):
        text = "(lambda (x) (+ x 1))"
        assert write_sexpr(read_sexpr(text)) == text

    def test_bool(self):
        assert write_sexpr(True) == "#t"
        assert write_sexpr(False) == "#f"

    def test_string_escaping(self):
        assert read_sexpr(write_sexpr('a"b\\c\nd')) == 'a"b\\c\nd'

    def test_format_breaks_long_lists(self):
        datum = slist(sym("define"), *(sym(f"name{i}") for i in range(30)))
        text = format_sexpr(datum, width=40)
        assert "\n" in text
        assert read_sexpr(text) == datum


_atoms = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"),
        whitelist_characters=" -_!?"), max_size=12),
    st.sampled_from([sym(s) for s in
                     ("a", "b", "foo", "set!", "+", "->", "lambda%x")]),
)

_data = st.recursive(
    _atoms,
    lambda children: st.lists(children, max_size=5).map(
        lambda items: SList(tuple(items))),
    max_leaves=20,
)


@given(_data)
def test_write_read_roundtrip(datum):
    """Reading back printed data yields an equal datum."""
    assert read_sexpr(write_sexpr(datum)) == datum


@given(_data)
def test_format_read_roundtrip(datum):
    """The multi-line formatter is also read-back-equal."""
    assert read_sexpr(format_sexpr(datum, width=20)) == datum


@given(st.recursive(st.one_of(_atoms, st.floats()), lambda children:
                    st.lists(children, max_size=5).map(
                        lambda items: SList(tuple(items))), max_leaves=20))
def test_printing_is_a_fixpoint_with_nan(datum):
    """NaN is not equal to itself, so compare printed text instead."""
    text = write_sexpr(datum)
    assert write_sexpr(read_sexpr(text)) == text
    assert write_sexpr(read_sexpr(format_sexpr(datum, width=20))) == text


#: Atmosphere between tokens: at least one separator, drawn from every
#: kind the reader skips.
_gaps = st.lists(st.sampled_from([" ", "\t", "\r", "\n", "; note\n", ";\n"]),
                 min_size=1, max_size=3).map("".join)


@st.composite
def _laid_out(draw, depth=0):
    """Random datum source with random layout, as ``(pieces, marks)``:
    ``marks[i]`` is the piece index where the i-th symbol or list (in
    pre-order) starts.  Strings hold raw newlines so lines advance
    inside tokens too."""
    kinds = ["symbol", "number", "string", "bool"] + ["list"] * (depth < 4)
    kind = draw(st.sampled_from(kinds))
    if kind == "symbol":
        return [draw(st.sampled_from(["a", "foo", "set!", "->", "inf",
                                      "\u03bb", "x#1"]))], [0]
    if kind == "number":
        return [draw(st.sampled_from(["0", "-12", "3.5", "+inf.0"]))], []
    if kind == "string":
        return ['"' + draw(st.sampled_from(["", "a b", "x\ny", "\\n"])) + '"'], []
    if kind == "bool":
        return [draw(st.sampled_from(["#t", "#f"]))], []
    opener, closer = draw(st.sampled_from(["()", "[]"]))
    pieces, marks = [opener], [0]
    for _ in range(draw(st.integers(0, 4))):
        pieces.append(draw(_gaps))
        child, child_marks = draw(_laid_out(depth + 1))
        marks += [len(pieces) + m for m in child_marks]
        pieces += child
    pieces.append(draw(_gaps) + closer)
    return pieces, marks


def _preorder_locs(datum):
    if isinstance(datum, Symbol):
        return [datum.loc]
    if isinstance(datum, SList):
        return [datum.loc] + [loc for item in datum.items
                              for loc in _preorder_locs(item)]
    return []


@given(_gaps, _laid_out(), _gaps)
def test_locations_match_a_brute_force_count(before, laid_out, after):
    pieces, marks = laid_out
    pieces = [before] + pieces + [after]
    offsets = [0]
    for piece in pieces:
        offsets.append(offsets[-1] + len(piece))
    text = "".join(pieces)
    expected = []
    for mark in marks:
        offset = offsets[mark + 1]
        line = text.count("\n", 0, offset) + 1
        col = offset - (text.rfind("\n", 0, offset) + 1) + 1
        expected.append((line, col))
    locs = _preorder_locs(read_sexpr(text, "f"))
    assert [(loc.line, loc.col) for loc in locs] == expected
    assert all(loc.origin == "f" for loc in locs)
