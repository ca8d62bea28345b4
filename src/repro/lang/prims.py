"""The primitive environment of the core language.

Primitives cover what the paper's examples assume of the core: numbers,
strings, booleans, pairs, first-class reference cells (boxes), string
hash tables (``makeStringHashTable`` in Figure 1), an ``error``
procedure, and ``display`` output.

Output is captured through an :class:`OutputPort` so the test suite and
the benchmark harness can observe what a program printed.
"""

from __future__ import annotations

from typing import Callable

from repro.lang.errors import RunTimeError
from repro.lang.sexpr import read_number, write_number
from repro.lang.values import (
    EMPTY,
    Cell,
    Env,
    HashTable,
    Pair,
    Primitive,
    VariantValue,
    list_to_pairs,
    pairs_to_list,
    to_display_string,
    to_write_string,
)


class OutputPort:
    """Collects program output as a list of written chunks."""

    def __init__(self) -> None:
        self.chunks: list[str] = []

    def write(self, text: str) -> None:
        """Append a chunk of output."""
        self.chunks.append(text)

    def getvalue(self) -> str:
        """All output written so far, concatenated."""
        return "".join(self.chunks)

    def lines(self) -> list[str]:
        """Output split into lines (without trailing newline)."""
        text = self.getvalue()
        if text.endswith("\n"):
            text = text[:-1]
        return text.split("\n") if text else []


def _check_number(value: object, who: str) -> float | int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RunTimeError(f"{who}: expected a number, got {to_write_string(value)}")
    return value


def _check_string(value: object, who: str) -> str:
    if not isinstance(value, str):
        raise RunTimeError(f"{who}: expected a string, got {to_write_string(value)}")
    return value


def _check_int(value: object, who: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RunTimeError(f"{who}: expected an integer, got {to_write_string(value)}")
    return value


def _num_fold(who: str, op: Callable, unit: float | int):
    def fold(*args: object):
        result: float | int = unit
        for arg in args:
            result = op(result, _check_number(arg, who))
        return result

    return fold


def _sub(*args: object):
    if not args:
        raise RunTimeError("-: expects at least 1 argument")
    first = _check_number(args[0], "-")
    if len(args) == 1:
        return -first
    result = first
    for arg in args[1:]:
        result -= _check_number(arg, "-")
    return result


def _div(*args: object):
    if not args:
        raise RunTimeError("/: expects at least 1 argument")
    result = _check_number(args[0], "/")
    rest = args[1:] if len(args) > 1 else (result,)
    if len(args) == 1:
        result = 1
    for arg in rest:
        divisor = _check_number(arg, "/")
        if divisor == 0:
            raise RunTimeError("/: division by zero")
        result = result / divisor
    return result


def _compare(who: str, op: Callable[[object, object], bool]):
    def cmp(*args: object) -> bool:
        if len(args) < 2:
            raise RunTimeError(f"{who}: expects at least 2 arguments")
        prev = _check_number(args[0], who)
        for arg in args[1:]:
            cur = _check_number(arg, who)
            if not op(prev, cur):
                return False
            prev = cur
        return True

    return cmp


def _equal(a: object, b: object) -> bool:
    """Deep structural equality (the ``equal?`` primitive)."""
    if isinstance(a, Pair) and isinstance(b, Pair):
        return _equal(a.car, b.car) and _equal(a.cdr, b.cdr)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return a is b


def _make_error_prim() -> Primitive:
    def error(*args: object):
        message = " ".join(to_display_string(a) for a in args)
        raise RunTimeError(f"error: {message}")

    return Primitive("error", error, None)


def make_global_env(port: OutputPort | None = None) -> Env:
    """Build a fresh global environment containing every primitive.

    ``port`` receives anything the program displays; when omitted a
    fresh port is created (retrieve it via the ``__port__`` binding...
    callers normally pass their own port).
    """
    if port is None:
        port = OutputPort()

    prims: dict[str, Primitive] = {}

    def define(name: str, fn: Callable[..., object], arity: int | None = None):
        prims[name] = Primitive(name, fn, arity)

    # --- arithmetic ---------------------------------------------------
    define("+", _num_fold("+", lambda a, b: a + b, 0), None)
    define("*", _num_fold("*", lambda a, b: a * b, 1), None)
    define("-", _sub, None)
    define("/", _div, None)
    define("modulo", _modulo, 2)
    define("quotient", _quotient, 2)
    define("min", lambda *a: min(_check_number(x, "min") for x in a), None)
    define("max", lambda *a: max(_check_number(x, "max") for x in a), None)
    define("abs", lambda a: abs(_check_number(a, "abs")), 1)
    define("add1", lambda a: _check_number(a, "add1") + 1, 1)
    define("sub1", lambda a: _check_number(a, "sub1") - 1, 1)
    define("=", _compare("=", lambda a, b: a == b), None)
    define("<", _compare("<", lambda a, b: a < b), None)
    define(">", _compare(">", lambda a, b: a > b), None)
    define("<=", _compare("<=", lambda a, b: a <= b), None)
    define(">=", _compare(">=", lambda a, b: a >= b), None)
    define("zero?", lambda a: _check_number(a, "zero?") == 0, 1)
    define("number?", lambda a: not isinstance(a, bool) and isinstance(a, (int, float)), 1)

    # --- booleans and equality ----------------------------------------
    define("not", lambda a: a is False, 1)
    define("boolean?", lambda a: isinstance(a, bool), 1)
    define("eq?", lambda a, b: a is b or (type(a) is type(b) and not isinstance(a, (Pair, HashTable)) and a == b and isinstance(a, (int, str, bool))), 2)
    define("equal?", _equal, 2)

    # --- strings --------------------------------------------------------
    define("string?", lambda a: isinstance(a, str), 1)
    define("string-append", lambda *a: "".join(_check_string(x, "string-append") for x in a), None)
    define("string-length", lambda a: len(_check_string(a, "string-length")), 1)
    define("string=?", lambda a, b: _check_string(a, "string=?") == _check_string(b, "string=?"), 2)
    define("substring", lambda s, i, j: _check_string(s, "substring")[_check_int(i, "substring"):_check_int(j, "substring")], 3)
    define("number->string", lambda a: write_number(_check_number(a, "number->string")), 1)
    define("string->number", _string_to_number, 1)

    # --- pairs and lists -------------------------------------------------
    define("cons", lambda a, b: Pair(a, b), 2)
    define("car", _car, 1)
    define("cdr", _cdr, 1)
    define("pair?", lambda a: isinstance(a, Pair), 1)
    define("null?", lambda a: a is EMPTY, 1)
    define("list", lambda *a: list_to_pairs(list(a)), None)
    define("length", lambda a: len(pairs_to_list(a)), 1)
    define("reverse", lambda a: list_to_pairs(list(reversed(pairs_to_list(a)))), 1)
    define("append", _append, None)

    # --- cells (boxes) ----------------------------------------------------
    define("box", lambda a: Cell(a), 1)
    define("unbox", _unbox, 1)
    define("set-box!", _set_box, 2)
    define("box?", lambda a: isinstance(a, Cell), 1)

    # --- string hash tables (Figure 1's makeStringHashTable) -------------
    define("makeStringHashTable", lambda: HashTable(), 0)
    define("hash-put!", _hash_put, 3)
    define("hash-get", _hash_get, 2)
    define("hash-get/default", lambda h, k, d: _hash(h).get(_check_string(k, "hash-get"), d), 3)
    define("hash-remove!", lambda h, k: _hash(h).remove(_check_string(k, "hash-remove!")), 2)
    define("hash-has?", lambda h, k: _hash(h).has(_check_string(k, "hash-has?")), 2)
    define("hash-count", lambda h: len(_hash(h)), 1)
    define("hash-keys", lambda h: list_to_pairs(list(_hash(h).keys())), 1)

    # --- constructed-type variants (Section 4.2 erasure support) ---------
    define("make-variant", lambda tag, idx, payload: VariantValue(
        _check_string(tag, "make-variant"),
        _check_int(idx, "make-variant"), payload), 3)
    define("variant-payload", _variant_payload, 3)
    define("variant-first?", _variant_first, 2)
    define("list-ref", _list_ref, 2)

    # --- output and misc ---------------------------------------------------
    define("display", lambda a: port.write(to_display_string(a)), 1)
    define("write", lambda a: port.write(to_write_string(a)), 1)
    define("newline", lambda: port.write("\n"), 0)
    define("void", lambda *a: None, None)
    define("void?", lambda a: a is None, 1)
    prims["error"] = _make_error_prim()

    env = Env()
    for name, prim in prims.items():
        env.define(name, prim)
    return env


def _string_to_number(s: object):
    number = read_number(_check_string(s, "string->number"))
    return False if number is None else number


def _modulo(a: object, b: object):
    divisor = _check_int(b, "modulo")
    if divisor == 0:
        raise RunTimeError("modulo: division by zero")
    return _check_int(a, "modulo") % divisor


def _quotient(a: object, b: object):
    divisor = _check_int(b, "quotient")
    if divisor == 0:
        raise RunTimeError("quotient: division by zero")
    return _check_int(a, "quotient") // divisor


def _car(a: object):
    if not isinstance(a, Pair):
        raise RunTimeError(f"car: expected a pair, got {to_write_string(a)}")
    return a.car


def _cdr(a: object):
    if not isinstance(a, Pair):
        raise RunTimeError(f"cdr: expected a pair, got {to_write_string(a)}")
    return a.cdr


def _append(*args: object):
    items: list[object] = []
    for arg in args:
        items.extend(pairs_to_list(arg))
    return list_to_pairs(items)


def _unbox(a: object):
    if not isinstance(a, Cell):
        raise RunTimeError("unbox: expected a box")
    return a.get()


def _set_box(a: object, v: object):
    if not isinstance(a, Cell):
        raise RunTimeError("set-box!: expected a box")
    a.set(v)
    return None


def _hash(h: object) -> HashTable:
    if not isinstance(h, HashTable):
        raise RunTimeError("expected a hash table")
    return h


def _hash_put(h: object, k: object, v: object):
    _hash(h).put(_check_string(k, "hash-put!"), v)
    return None


def _variant_payload(tag: object, idx: object, value: object):
    from repro.lang.errors import VariantError
    from repro.lang.values import VariantValue

    tag_name = _check_string(tag, "variant-payload")
    index = _check_int(idx, "variant-payload")
    if not isinstance(value, VariantValue) or value.type_name != tag_name:
        raise VariantError(
            f"deconstructor for '{tag_name}': not an instance of the type")
    if value.variant != index:
        raise VariantError(
            f"deconstructor for '{tag_name}': applied to the wrong variant")
    return value.payload


def _variant_first(tag: object, value: object):
    from repro.lang.errors import VariantError
    from repro.lang.values import VariantValue

    tag_name = _check_string(tag, "variant-first?")
    if not isinstance(value, VariantValue) or value.type_name != tag_name:
        raise VariantError(
            f"predicate for '{tag_name}': not an instance of the type")
    return value.variant == 0


def _list_ref(lst: object, idx: object):
    items = pairs_to_list(lst)
    index = _check_int(idx, "list-ref")
    if index < 0 or index >= len(items):
        raise RunTimeError(f"list-ref: index {index} out of range")
    return items[index]


def _hash_get(h: object, k: object):
    table = _hash(h)
    key = _check_string(k, "hash-get")
    if not table.has(key):
        raise RunTimeError(f"hash-get: no entry for key {key!r}")
    return table.get(key)
