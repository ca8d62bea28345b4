"""An s-expression reader and printer with source locations.

The surface syntax of the whole reproduction is s-expressions, as in
MzScheme (the paper's host language).  The reader produces a small datum
language:

* ``Symbol`` — an interned identifier,
* ``int`` / ``float`` — numbers, ASCII only (``+inf.0``, ``-inf.0``
  and ``+nan.0`` are the non-finite floats),
* ``str`` — string literals,
* ``bool`` — ``#t`` / ``#f``,
* ``SList`` — a parenthesized sequence of data.

``SList`` and ``Symbol`` carry source locations so later phases can
report positions.  ``write_sexpr`` prints a datum back to reader syntax;
reading the result yields an equal datum (a property the test suite
checks with hypothesis).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro import limits as _limits
from repro.lang.errors import LexError, SrcLoc

#: The datum type produced by the reader.
Datum = Union["Symbol", "SList", int, float, str, bool]


@dataclass(frozen=True)
class Symbol:
    """An identifier datum.

    Symbols compare equal by name only; the source location is carried
    for error reporting but ignored by ``__eq__`` and ``__hash__``.
    """

    name: str
    loc: SrcLoc | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Symbol({self.name!r})"


@dataclass(frozen=True)
class SList:
    """A parenthesized list datum.

    Like :class:`Symbol`, equality ignores the source location.
    """

    items: tuple[Datum, ...]
    loc: SrcLoc | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Datum]:
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __str__(self) -> str:
        return write_sexpr(self)

    def __repr__(self) -> str:
        return f"SList({self.items!r})"


def slist(*items: Datum) -> SList:
    """Build an :class:`SList` from the given items (convenience)."""
    return SList(tuple(items))


def sym(name: str) -> Symbol:
    """Build a :class:`Symbol` with no source location (convenience)."""
    return Symbol(name)


_DELIMS = r' \t\r\n()\[\]";'

#: Whitespace and ``;`` line comments between tokens.
_ATMOSPHERE = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*")
#: A string literal's body up to its close quote or first bad escape.
_STRING_BODY = re.compile(r'[^"\\]*(?:\\[ntr"\\][^"\\]*)*')
_NEWLINE = re.compile("\n")

#: Atmosphere, then at most one token; ``lastindex`` names its kind.
#: No token before the end of the text means a malformed string or
#: ``#`` form, which :func:`_bad_token` diagnoses.  The token group is
#: optional, so a match never backtracks into the atmosphere, and each
#: string-body segment ends at a character it excludes, so plain greedy
#: quantifiers backtrack at most linearly.
_TOKEN = re.compile(rf"""{_ATMOSPHERE.pattern}(?:
      ([^{_DELIMS}\#][^{_DELIMS}]*)                 # 1 atom
    | ([(\[])                                       # 2 open
    | ([)\]])                                       # 3 close
    | ("{_STRING_BODY.pattern}")                    # 4 string
    | \#([tf])(?![^{_DELIMS}])                      # 5 boolean
    )?""", re.VERBOSE)

#: ``[+-]?[0-9]+`` is an int; a decimal float (group 1) needs a ``.``
#: or an exponent.  Apart from the non-finite floats below, every
#: other atom is a symbol.
_NUMBER = re.compile(r"[+-]?[0-9]+|([+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)"
                     r"(?:[eE][+-]?[0-9]+)?|[+-]?[0-9]+[eE][+-]?[0-9]+)")
_NON_FINITE = {"+inf.0": math.inf, "-inf.0": -math.inf, "+nan.0": math.nan}
_PRINTED_NON_FINITE = {"inf": "+inf.0", "-inf": "-inf.0", "nan": "+nan.0"}
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

#: Maximum nesting depth the reader accepts.  Deeper input is almost
#: certainly hostile or malformed; rejecting it with a LexError keeps
#: the recursive parsers that walk the data within Python's stack.
MAX_NESTING_DEPTH = 250


def read_number(token: str) -> int | float | None:
    """The number an atom spells, or ``None`` for a symbol.

    The one number grammar: the reader uses it for atoms and the
    runtime's ``string->number`` for strings.
    """
    match = _NUMBER.fullmatch(token)
    if match is None:
        return _NON_FINITE.get(token)
    if match.lastindex is None:
        try:
            return int(token)
        except ValueError:  # past Python's int-string digit limit
            pass
    return float(token)


def _line_starts(text: str) -> list[int]:
    """The offset at which each line of ``text`` starts."""
    starts = [0]
    starts += [m.end() for m in _NEWLINE.finditer(text)]
    return starts


def _loc(starts: list[int], at: int, origin: str) -> SrcLoc:
    """The line and column of offset ``at``, given its line starts."""
    line = bisect_right(starts, at)
    return SrcLoc(line, at - starts[line - 1] + 1, origin)


def _bad_token(text: str, pos: int, loc: SrcLoc) -> LexError:
    """Diagnose the malformed string or ``#`` form at ``pos``."""
    if text[pos] == "#":
        ch = text[pos + 1:pos + 2]
        if ch in ("t", "f"):
            return LexError(f"bad token after #{ch}", loc)
        return LexError("unknown '#' syntax", loc)
    end = _STRING_BODY.match(text, pos + 1).end()
    if end == len(text):
        return LexError("unterminated string literal", loc)
    esc = text[end + 1:end + 2]
    if not esc:
        return LexError("unterminated escape in string literal", loc)
    return LexError(f"unknown string escape '\\{esc}'", loc)


def _scan(text: str, origin: str) -> Iterator[tuple[Datum, int]]:
    """Yield each top-level datum of ``text`` with its end offset.

    One regex match per token; open lists live on an explicit stack,
    and line/column come from a table of line starts.
    """
    budget = _limits.current()
    starts = _line_starts(text)
    numbers: dict[str, int | float | None] = {}
    stack: list[tuple[list[Datum], SrcLoc, str]] = []
    items: list[Datum] = []
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastindex
        pos = m.end()
        if kind == 1:
            token = m[1]
            datum = numbers.get(token, numbers)  # ``numbers``: a miss
            if datum is numbers:
                datum = numbers[token] = read_number(token)
            if datum is None:
                datum = Symbol(token, _loc(starts, m.start(1), origin))
        elif kind == 2:
            loc = _loc(starts, m.start(2), origin)
            items = []
            stack.append((items, loc, ")" if m[2] == "(" else "]"))
            depth = len(stack)
            # An active budget with a max_depth cap governs reader
            # nesting (check_depth raises BudgetExceeded past the cap);
            # otherwise the structural limit applies.
            if not (budget is not None and budget.check_depth(depth, loc)) \
                    and depth > MAX_NESTING_DEPTH:
                raise LexError(
                    f"nesting deeper than {MAX_NESTING_DEPTH} levels", loc)
            continue
        elif kind == 3:
            close = m[3]
            if not stack:
                raise LexError(f"unexpected '{close}'",
                               _loc(starts, m.start(3), origin))
            done, loc, closer = stack.pop()
            if close != closer:
                raise LexError(
                    f"mismatched close paren: expected '{closer}'",
                    _loc(starts, m.start(3), origin))
            datum = SList(tuple(done), loc)
            if stack:
                items = stack[-1][0]
        elif kind == 4:
            datum = m[4][1:-1]
            if "\\" in datum:
                datum = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], datum)
        elif kind == 5:
            datum = m[5] == "t"
        elif pos < len(text):
            raise _bad_token(text, pos, _loc(starts, pos, origin))
        elif stack:
            raise LexError("unterminated list", stack[-1][1])
        else:
            return
        if stack:
            items.append(datum)
        else:
            yield datum, pos


def read_sexpr(text: str, origin: str = "<string>") -> Datum:
    """Read a single datum from ``text``.

    Raises :class:`LexError` if the text is empty, malformed, or has
    trailing non-whitespace after the first datum.
    """
    for datum, end in _scan(text, origin):
        end = _ATMOSPHERE.match(text, end).end()
        if end < len(text):
            raise LexError("unexpected text after datum",
                           _loc(_line_starts(text), end, origin))
        return datum
    raise LexError("unexpected end of input",
                   _loc(_line_starts(text), len(text), origin))


def read_all_sexprs(text: str, origin: str = "<string>") -> list[Datum]:
    """Read every datum in ``text`` and return them as a list."""
    return [datum for datum, _ in _scan(text, origin)]


def _escape_string(value: str) -> str:
    out: list[str] = ['"']
    for ch in value:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def write_number(n: int | float) -> str:
    """A number in reader syntax: the non-finite floats print as
    ``+inf.0``, ``-inf.0`` and ``+nan.0``."""
    text = repr(n)
    if isinstance(n, float):
        return _PRINTED_NON_FINITE.get(text, text)
    return text


def write_sexpr(datum: Datum) -> str:
    """Print a datum in reader syntax (single line)."""
    if isinstance(datum, bool):
        return "#t" if datum else "#f"
    if isinstance(datum, (int, float)):
        return write_number(datum)
    if isinstance(datum, str):
        return _escape_string(datum)
    if isinstance(datum, Symbol):
        return datum.name
    if isinstance(datum, SList):
        return "(" + " ".join(write_sexpr(item) for item in datum.items) + ")"
    raise TypeError(f"not a datum: {datum!r}")


def format_sexpr(datum: Datum, width: int = 78, indent: int = 0) -> str:
    """Pretty-print a datum, breaking lists that exceed ``width`` columns.

    The output reads back to an equal datum; it is used to render unit
    sources in the examples and the archive.
    """
    flat = write_sexpr(datum)
    if indent + len(flat) <= width or not isinstance(datum, SList):
        return flat
    if len(datum.items) == 0:
        return "()"
    head = format_sexpr(datum.items[0], width, indent + 1)
    lines = [f"({head}"]
    pad = " " * (indent + 2)
    for item in datum.items[1:]:
        lines.append(pad + format_sexpr(item, width, indent + 2))
    lines[-1] += ")"
    return "\n".join(lines)


def datum_to_python(datum: Datum):
    """Convert a datum to plain Python data (lists, strings, numbers).

    Symbols become strings tagged by a leading quote marker is *not*
    used; instead symbols map to their names.  This lossy view is only
    used by the archive's JSON fallback and by diagnostics.
    """
    if isinstance(datum, Symbol):
        return datum.name
    if isinstance(datum, SList):
        return [datum_to_python(item) for item in datum.items]
    return datum


def sexpr_equal(left: Datum, right: Datum) -> bool:
    """Structural equality of data, ignoring source locations."""
    return left == right
