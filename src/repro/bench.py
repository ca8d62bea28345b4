"""The benchmark trajectory: cached vs ``--no-term-cache`` pipelines.

``repro bench`` times the stages the commands share — Figure 10
checking, static linking as ``repro link`` runs it, and evaluation as
``repro run`` runs it (:func:`repro.pipeline.evaluate` on the checked
program) — plus the Figure 12 compilation, over parameterized
workloads, in three configurations:

* **uncached** — the term-performance layer off (what
  ``--no-term-cache`` runs): no memoized free variables, no
  substitution short-circuits, no hash-consing, no content caches;
* **cached (cold)** — the default configuration with *empty* caches,
  what the first invocation on a program pays;
* **cached (warm)** — the same, after a priming pass populated the
  content-addressed caches, what reruns and structurally shared
  programs pay.

Workloads:

* ``chain-N`` — N linked units, each importing its predecessor (the
  ``bench_scalability.py`` shape): all units distinct, so the win is
  the memo layer (free-variable sets, substitution short-circuits) and
  hash-consed generated code, not content reuse;
* ``sharing-N`` — N copies of one 24-definition library unit linked
  into a program (the paper's footnote-8 code-sharing scenario): the
  content-addressed compile/check caches collapse the copies, so even
  a cold run compiles the library once;
* ``phonebook`` — ``examples/phonebook.scm``, the paper's running
  example, as a realistic small program.

Every case starts from source text (``chain``/``sharing`` programs are
built as ASTs and printed with ``show`` once, untimed), and each run
reads it afresh: the ``parse`` stage times the reader and parser, under
the link server's ``max_depth`` budget because the larger chains nest
deeper than the ungoverned reader's cap.  The ``digest`` stage times
the ``tk2`` :func:`~repro.lang.terms.term_key` of a second fresh parse
of the program, so the pipeline's own keying is left as it was.
``total`` is ``check + link + eval``; ``parse``, ``digest`` and
``compile`` (the Figure 12 transform ``repro compile`` prints) are
reported outside it.

Each case reports best-of-``repeats`` wall seconds per configuration,
per-stage breakdowns (with ``link.flatten``/``link.optimize``
sub-timings), per-stage p50/p90/p99 latency over all repeats (via the
telemetry :class:`~repro.obs.metrics.Histogram`, so bench and live metrics
estimate quantiles the same way), and the speedups ``uncached /
cached`` and ``uncached / warm``.  Results go to
``BENCH_results.json``; a ``metrics1`` snapshot (``--snapshot``)
records the ``cache.*`` hit/miss activity and per-kind latency
histograms in the format ``repro trace diff`` and ``repro metrics``
read.  docs/PERFORMANCE.md explains how to read both.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Callable

from repro.lang import terms as _terms
from repro.lang.ast import Expr
from repro.lang.parser import parse_script
from repro.lang.pretty import show
from repro.limits import (REQUEST_MAX_DEPTH, Budget, budget_scope,
                          python_recursion_headroom)
from repro.linking.graph import LinkGraph
from repro.pipeline import evaluate
from repro.units.ast import InvokeExpr
from repro.units.cache import unit_cache_scope
from repro.units.check import check_program
from repro.units.compile import compile_expr
from repro.units.linker import link_and_optimize

STAGES = ("parse", "digest", "check", "link", "link.flatten",
          "link.optimize", "compile", "eval")


# ---------------------------------------------------------------------------
# Workload builders.  Each returns a *fresh* AST per call: memo fields
# live on nodes, so reusing one AST would leak warmth into cold runs.
# ---------------------------------------------------------------------------


def chain_program(n: int) -> Expr:
    """N linked units, v_k = v_{k-1} + 1, plus a driver (all distinct)."""
    graph = LinkGraph(exports=())
    graph.add_box(
        "u0",
        "(unit (import) (export v0) (define v0 (lambda () 1)) (void))")
    for k in range(1, n):
        graph.add_box(f"u{k}", f"""
            (unit (import v{k - 1}) (export v{k})
              (define v{k} (lambda () (+ (v{k - 1}) 1)))
              (void))
        """)
    graph.add_box("driver",
                  f"(unit (import v{n - 1}) (export) (v{n - 1}))")
    return InvokeExpr(graph.to_compound_expr(), ())


def _library_source(defns: int) -> str:
    parts = ["(define g0 (lambda (x) (+ x 1)))"]
    for i in range(1, defns):
        parts.append(f"(define g{i} (lambda (x) (g{i - 1} (+ x 1))))")
    body = "\n  ".join(parts)
    return f"(unit (import) (export)\n  {body}\n  (g{defns - 1} 0))"


def sharing_program(n: int, defns: int = 24) -> Expr:
    """N copies of one library unit linked into a program.

    Every copy is structurally identical, so the content-addressed
    caches check and compile the library once and reuse it n-1 times —
    cold, within a single run.
    """
    source = _library_source(defns)
    graph = LinkGraph(exports=())
    for k in range(n):
        graph.add_box(f"c{k}", source)
    graph.add_box("driver", "(unit (import) (export) 42)")
    return InvokeExpr(graph.to_compound_expr(), ())


def _phonebook_path() -> Path:
    return Path(__file__).resolve().parents[2] / "examples" / "phonebook.scm"


def _parse(source: str) -> tuple[Expr, float]:
    """A fresh AST for ``source`` and the seconds reading it took."""
    with budget_scope(Budget(max_depth=REQUEST_MAX_DEPTH)):
        t0 = time.perf_counter()
        program = parse_script(source, origin="<bench>")
        return program, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


def _pipeline(program: Expr) -> dict[str, float]:
    """Run check -> link -> eval, then compile; returns stage seconds.

    ``check`` then ``link`` is the ``repro link`` path (the link stage
    reports its ``flatten``/``optimize`` sub-timings as
    ``link.flatten``/``link.optimize``); ``eval`` is the ``repro run``
    path, :func:`repro.pipeline.evaluate` of the checked program.
    ``total`` is their sum.  ``compile`` times the Figure 12 transform
    of the program (the ``repro compile`` path) outside ``total``.
    """
    link_timings: dict[str, float] = {}
    t0 = time.perf_counter()
    check_program(program, strict_valuable=False)
    t1 = time.perf_counter()
    link_and_optimize(program, timings=link_timings)
    t2 = time.perf_counter()
    evaluate(program)
    t3 = time.perf_counter()
    compile_expr(program)
    t4 = time.perf_counter()
    return {"check": t1 - t0, "link": t2 - t1,
            "link.flatten": link_timings.get("flatten", 0.0),
            "link.optimize": link_timings.get("optimize", 0.0),
            "eval": t3 - t2, "compile": t4 - t3, "total": t3 - t0}


def _digest(source: str) -> float:
    """Seconds to digest a fresh parse of ``source`` (cold, no memo)."""
    program, _parse_s = _parse(source)
    t0 = time.perf_counter()
    _terms.term_key(program)
    return time.perf_counter() - t0


def _run(source: str) -> dict[str, float]:
    """Parse ``source``, then :func:`_pipeline`; ``parse`` and
    ``digest`` are not part of ``total``."""
    program, parse_s = _parse(source)
    stages = _pipeline(program)
    stages["parse"] = parse_s
    stages["digest"] = _digest(source)
    return stages


def _best(runs: list[dict[str, float]]) -> dict[str, float]:
    """The run with the smallest total (stages kept coherent)."""
    return min(runs, key=lambda r: r["total"])


def _stage_percentiles(runs: list[dict[str, float]]
                       ) -> dict[str, dict[str, float]]:
    """Per-stage latency percentiles over *all* repeats of one config.

    Best-of reporting answers "how fast can it go"; the percentiles
    answer "how fast is it usually" — the tail matters once the same
    pipeline serves traffic.  Samples go through the telemetry
    :class:`~repro.obs.metrics.Histogram` so bench and the live
    metrics layer estimate quantiles identically.
    """
    from repro.obs.metrics import Histogram

    out: dict[str, dict[str, float]] = {}
    for stage in STAGES + ("total",):
        hist = Histogram()
        for run in runs:
            hist.record(run.get(stage, 0.0))
        out[stage] = {
            "count": hist.count,
            "p50": round(hist.percentile(0.5), 6),
            "p90": round(hist.percentile(0.9), 6),
            "p99": round(hist.percentile(0.99), 6),
            "max": round(hist.max, 6),
        }
    return out


def _time_case(name: str, source: str, repeats: int) -> dict[str, object]:
    uncached_runs = []
    prev = _terms.set_caching(False)
    try:
        for _ in range(repeats):
            uncached_runs.append(_run(source))
    finally:
        _terms.set_caching(prev)

    cold_runs = []
    for _ in range(repeats):
        _terms.clear_intern_table()
        with unit_cache_scope():
            cold_runs.append(_run(source))

    warm_runs = []
    with unit_cache_scope():
        _run(source)  # priming pass
        for _ in range(repeats):
            warm_runs.append(_run(source))

    uncached, cold, warm = (_best(uncached_runs), _best(cold_runs),
                            _best(warm_runs))
    return {
        "case": name,
        "repeats": repeats,
        "uncached_s": round(uncached["total"], 6),
        "cached_s": round(cold["total"], 6),
        "warm_s": round(warm["total"], 6),
        "speedup": round(uncached["total"] / cold["total"], 3),
        "warm_speedup": round(uncached["total"] / warm["total"], 3),
        "stages": {
            "uncached": {k: round(uncached[k], 6) for k in STAGES},
            "cached": {k: round(cold[k], 6) for k in STAGES},
            "warm": {k: round(warm[k], 6) for k in STAGES},
        },
        "percentiles": {
            "uncached": _stage_percentiles(uncached_runs),
            "cached": _stage_percentiles(cold_runs),
            "warm": _stage_percentiles(warm_runs),
        },
    }


def _backend_compare(source: str, repeats: int) -> dict[str, float]:
    """Interp vs the pycode backend, on the same checked program.

    Codegen is timed twice inside one fresh cache scope — the cold
    call generates and compiles, the warm call is a content-addressed
    hit on the program's digest.  Eval is best-of-``repeats`` of
    :func:`repro.pipeline.evaluate` for both backends, the ``repro
    run`` path, so the pycode column includes its warm codegen hit.
    """
    from repro import backend as _backend

    times: dict[str, float] = {}
    with unit_cache_scope():
        program, _parse_s = _parse(source)
        check_program(program, strict_valuable=False)

        t = time.perf_counter()
        _backend.compile_program(program)
        times["pycode_codegen_s"] = time.perf_counter() - t
        t = time.perf_counter()
        _backend.compile_program(program)
        times["pycode_codegen_warm_s"] = time.perf_counter() - t

        # One untimed run each: the backend's first Runtime pays the
        # process-wide prelude compilation, the interpreter its lazy
        # imports — one-time costs, not eval speed.
        best = dict.fromkeys(("interp", "pycode"), float("inf"))
        for name in best:
            evaluate(program, name)
        for _ in range(max(repeats, 1)):
            for name in best:
                t = time.perf_counter()
                evaluate(program, name)
                best[name] = min(best[name], time.perf_counter() - t)
    times["interp_eval_s"] = best["interp"]
    times["pycode_eval_s"] = best["pycode"]
    times["eval_speedup"] = (best["interp"] / best["pycode"]
                             if best["pycode"] else 0.0)
    return {k: round(v, 6) for k, v in times.items()}


def _cache_counters(source: str):
    """One primed, traced pipeline pass; returns the collector.

    Untimed — its only job is recording the ``cache.*`` hit/miss
    activity a warm run produces, for the metrics snapshot.  Parsing
    happens outside the collector, so the snapshot covers the same
    stages as before ``parse`` was timed.
    """
    from repro import obs

    collector = obs.Collector()
    with unit_cache_scope():
        _run(source)
        program, _parse_s = _parse(source)
        with obs.collecting(collector):
            _pipeline(program)
    return collector


def run_bench(quick: bool = False, out: str = "BENCH_results.json",
              snapshot: str | None = None,
              backend: str = "pycode") -> int:
    """The ``repro bench`` driver.  Returns a process exit status.

    With ``backend="pycode"`` (the default) every case also carries a
    ``backends`` comparison column: interpreter vs Python-closure
    backend eval on the same checked program, plus cold/warm codegen
    cost.  ``backend="interp"`` skips the column.
    """
    # The 256-unit chains legitimately recurse deeper than CPython's
    # default stack allowance; take scoped headroom instead of mutating
    # the process-wide limit for whoever runs after us.
    with python_recursion_headroom(40000):
        return _run_bench(quick, out, snapshot, backend)


def _run_bench(quick: bool, out: str, snapshot: str | None,
               backend: str = "pycode") -> int:
    if quick:
        builds: list[tuple[str, Callable[[], Expr]]] = [
            ("chain-032", lambda: chain_program(32)),
            ("sharing-016", lambda: sharing_program(16)),
        ]
        repeats = 1
    else:
        builds = [
            ("chain-064", lambda: chain_program(64)),
            ("chain-128", lambda: chain_program(128)),
            ("chain-256", lambda: chain_program(256)),
            ("sharing-032", lambda: sharing_program(32)),
            ("sharing-064", lambda: sharing_program(64)),
        ]
        repeats = 3
    cases = [(name, show(build())) for name, build in builds]
    if _phonebook_path().exists():
        cases.append(("phonebook", _phonebook_path().read_text()))

    results = []
    for name, source in cases:
        print(f"bench: {name} ({repeats} repeat(s)) ...", flush=True)
        results.append(_time_case(name, source, repeats))
        r = results[-1]
        print(f"  uncached {r['uncached_s']:.3f}s   "
              f"cached {r['cached_s']:.3f}s ({r['speedup']}x)   "
              f"warm {r['warm_s']:.3f}s ({r['warm_speedup']}x)   "
              f"parse {r['stages']['cached']['parse'] * 1e3:.2f}ms   "
              f"digest {r['stages']['cached']['digest'] * 1e3:.2f}ms")
        warm_p = r["percentiles"]["warm"]
        print("  warm p50/p99 ms: " + "   ".join(
            f"{stage} {warm_p[stage]['p50'] * 1e3:.2f}/"
            f"{warm_p[stage]['p99'] * 1e3:.2f}"
            for stage in ("check", "link", "compile", "eval")))
        if backend == "pycode":
            r["backends"] = _backend_compare(source, repeats)
            b = r["backends"]
            print(f"  eval: interp {b['interp_eval_s'] * 1e3:.2f}ms   "
                  f"pycode {b['pycode_eval_s'] * 1e3:.2f}ms "
                  f"({b['eval_speedup']}x)   "
                  f"codegen {b['pycode_codegen_s'] * 1e3:.2f}ms cold / "
                  f"{b['pycode_codegen_warm_s'] * 1e3:.2f}ms warm")

    collector = _cache_counters(cases[0][1])
    counters = {kind: count
                for kind, count in sorted(collector.counters.items())}

    payload = {
        "schema": "bench1",
        "quick": quick,
        "repeats": repeats,
        "cpus": os.cpu_count(),
        "cases": results,
        "warm_counters": counters,
    }
    Path(out).write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
    print(f"bench: results -> {out}")
    if snapshot:
        from repro import obs

        Path(snapshot).parent.mkdir(parents=True, exist_ok=True)
        obs.write_metrics(collector, snapshot)
        print(f"bench: counters snapshot -> {snapshot}")
    hits = sum(count for kind, count in counters.items()
               if kind == "cache.hit")
    if hits == 0:
        print("bench: error: warm pass recorded no cache hits",
              file=sys.stderr)
        return 1
    return 0
