"""Tests of the benchmark's program generator.

    PYTHONPATH=src python -m pytest perfbench -q

The generator's answers come from its closed form; these tests check
that form against the real pipeline on small seeds, and that the text
is a pure function of the seed.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402

from repro import backend  # noqa: E402
from repro.lang.interp import Interpreter  # noqa: E402
from repro.lang.parser import parse_script  # noqa: E402
from repro.lang.pretty import show  # noqa: E402
from repro.limits import Budget, BudgetExceeded, budget_scope  # noqa: E402
from repro.units.cache import unit_cache_scope  # noqa: E402
from repro.units.check import check_program  # noqa: E402
from repro.units.linker import link_and_optimize  # noqa: E402
from repro.unitc.run import run_typed  # noqa: E402
from repro.lang.errors import CheckError  # noqa: E402

SMALL = [(seed, size, shape) for seed in (1, 2, 3) for size in (2, 3, 7)
         for shape in gen.SHAPES]


def _spec(seed, size, shape, typed=False):
    return gen.make_spec(random.Random(seed), size, shape, seed, typed)


def test_same_seed_same_bytes():
    def texts(seed):
        rng = random.Random(seed)
        uids = itertools.count(1)
        out = []
        for size, shape, typed in itertools.product(
                (2, 5, 9), gen.SHAPES, (False, True)):
            spec = gen.make_spec(rng, size, shape, next(uids), typed)
            out.append(gen.render(spec))
            if not typed:
                out.append(gen.render_flat(spec))
                out.append(gen.render(spec, invoke=False))
        return out

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


@pytest.mark.parametrize("seed,size,shape", SMALL)
def test_untyped_value_matches_pipeline(seed, size, shape):
    spec = _spec(seed, size, shape)
    want = gen.expected_value(spec)
    with unit_cache_scope():
        expr = parse_script(gen.render(spec))
        check_program(expr)
        linked, _ = link_and_optimize(expr)
        assert backend.compile_program(linked).run() == (want, "")
        assert Interpreter().eval(expr) == want
        flat = parse_script(gen.render_flat(spec))
        check_program(flat)
        assert Interpreter().eval(flat) == want


@pytest.mark.parametrize("seed,size,shape", SMALL)
def test_typed_value_matches_pipeline(seed, size, shape):
    spec = _spec(seed, size, shape, typed=True)
    value, ty, output = run_typed(gen.render(spec))
    assert (value, str(ty), output) == (gen.expected_value(spec), "int", "")


@pytest.mark.parametrize("shape", gen.SHAPES)
def test_library_links_to_one_unit(shape):
    spec = _spec(4, 6, shape)
    expr = parse_script(gen.render(spec, invoke=False))
    check_program(expr)
    linked, _ = link_and_optimize(expr)
    text = show(linked)
    assert text.startswith(f"(unit (import) (export v{spec.size - 1}) ")
    assert "compound" not in text


def test_error_programs_fail_as_declared():
    expr = parse_script(gen.error_program("link-mismatch", 3))
    with pytest.raises(CheckError, match="with-variable 'missing'"):
        check_program(expr)
    expr = parse_script(gen.error_program("step-cap", 3))
    check_program(expr)
    with budget_scope(Budget(eval_steps=gen.STEP_CAP)):
        with pytest.raises(BudgetExceeded) as info:
            backend.compile_program(expr).run()
    assert info.value.resource == "eval_steps"


def test_text_grows_linearly_and_nests_logarithmically():
    sizes = (16, 32, 64, 128)
    lengths, depths = [], []
    for size in sizes:
        text = gen.render(_spec(1, size, "fanin"))
        lengths.append(len(text))
        depth = deepest = 0
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            deepest = max(deepest, depth)
        depths.append(deepest)
    # Doubling the units at most slightly more than doubles the text.
    for small, big in zip(lengths, lengths[1:]):
        assert big < 2.2 * small
    # Each doubling adds one compound level (a few parentheses).
    assert depths[-1] - depths[0] <= 3 * 4
    assert depths[-1] < 60
