"""The ``cold-run`` workload: a stream of distinct programs through the
``repro run --backend pycode`` pipeline, each in a fresh cache scope.

One long-lived process, one caller, closed loop.  Programs come in
*rounds* of fixed composition (the size ladder below, one typed
program per rung), only their content varying with the seed, so every
run measures the same mix.  Each untyped program goes through exactly
the calls ``repro run --backend pycode`` makes; each typed one through
``repro.unitc.run.run_typed``, as ``repro run-typed`` does.
"""

from __future__ import annotations

import gc
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans
import yardstick

# The ladder: 8x between the smallest and the largest rung.  Programs
# per rung in one round (one of them typed); the counts put the median
# inside the 16-unit cluster and the 90th percentile inside the
# 64-unit cluster, so neither percentile sits on a cluster boundary.
LADDER = {8: 6, 16: 4, 32: 3, 64: 3}

#: Per-unit latency limit for ``slo_ok_ratio`` (ms per node).
SLO_MS_PER_NODE = 12.0

#: ``repro run`` launches timed for ``setup_s`` (median reported).
SETUP_LAUNCHES = 3


def make_round(rng: random.Random, uids) -> list[gen.Spec]:
    """One round of fresh programs, in a seeded order."""
    programs = []
    for size, count in LADDER.items():
        start = rng.randrange(len(gen.SHAPES))
        for k in range(count):
            shape = gen.SHAPES[(start + k) % len(gen.SHAPES)]
            programs.append(gen.make_spec(rng, size, shape, next(uids),
                                          typed=(k == 0)))
    rng.shuffle(programs)
    return programs


class Pipeline:
    """The calls ``repro run`` makes, optionally recorded as spans."""

    def __init__(self, rec: spans.Recorder, interp_too: bool = False):
        from repro import backend
        from repro.lang.interp import Interpreter
        from repro.lang.parser import parse_script
        from repro.lang.terms import term_key
        from repro.units.cache import unit_cache_scope
        from repro.units.check import check_program
        from repro.units.linker import link_and_optimize
        from repro.unitc.run import run_typed

        self.rec = rec
        self.interp_too = interp_too
        self._backend = backend
        self._interp = Interpreter
        self._parse = parse_script
        self._term_key = term_key
        self._scope = unit_cache_scope
        self._check = check_program
        self._link = link_and_optimize
        self._run_typed = run_typed

    def untyped(self, text: str):
        """parse → check → link → compile → run, in a fresh scope.
        Returns ``(value, output, interp value or None)``."""
        rec = self.rec
        with self._scope():
            expr = rec.call("parse", self._parse, text, origin="<cold-run>")
            if rec.enabled:
                rec.call("digest", self._term_key, expr)
            rec.call("check", self._check, expr)
            timings: dict[str, float] = {}
            span = rec.open("link")
            try:
                linked, _stats = self._link(expr, timings=timings)
            finally:
                rec.close(span)
            if span is not None:
                rec.child(span, "link.flatten", span.start,
                          timings["flatten"])
                rec.child(span, "link.optimize",
                          span.start + timings["flatten"],
                          timings["optimize"])
            program = rec.call("codegen", self._backend.compile_program,
                               linked)
            value, output = rec.call("pycode.run", program.run)
            interp_value = None
            if self.interp_too:
                interp_value = self._interp().eval(linked)
        return value, output, interp_value

    def typed(self, text: str):
        """``run_typed`` in a fresh scope: ``(value, type, output)``."""
        with self._scope():
            return self.rec.call("run_typed", self._run_typed, text,
                                 origin="<cold-run>")


def install_wrappers(rec: spans.Recorder):
    """Wrap the inner layer functions the pipeline reaches through
    module globals; returns an undo callable."""
    import repro.backend as backend_mod
    import repro.unitc.run as run_mod
    from repro.lang.interp import Interpreter

    def note_bytes(span, source):
        span.attrs["src_bytes"] = len(source)

    patches = [
        (backend_mod, "generate_source",
         rec.wrap("codegen.gen", backend_mod.generate_source, note_bytes)),
        (run_mod, "parse_typed_program",
         rec.wrap("typecheck.parse", run_mod.parse_typed_program)),
        (run_mod, "check_typed_program",
         rec.wrap("typecheck.check", run_mod.check_typed_program)),
        (run_mod, "erase", rec.wrap("typecheck.erase", run_mod.erase)),
        (Interpreter, "eval", rec.wrap("interp.eval", Interpreter.eval)),
    ]
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in patches]
    for owner, name, fn in patches:
        setattr(owner, name, fn)

    def undo():
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return undo


def check_outcome(spec: gen.Spec, result) -> bool:
    """Compare a pipeline result with the generator's closed form."""
    expected = gen.expected_value(spec)
    if spec.typed:
        value, ty, output = result
        return value == expected and str(ty) == "int" and output == ""
    value, output, interp_value = result
    return (value == expected and output == ""
            and interp_value in (None, expected))


def run_one(pipe: Pipeline, spec: gen.Spec, text: str):
    return pipe.typed(text) if spec.typed else pipe.untyped(text)


def measure_setup(root: Path, work: Path, rng: random.Random,
                  uids, env: dict) -> float:
    """Median time of a fresh ``python -m repro run --backend pycode``
    process, from launch to its (checked) exit, each launch corrected
    to reference speed by the yardstick passes around it."""
    yard = yardstick.Yardstick()
    times = []
    for k in range(SETUP_LAUNCHES):
        spec = gen.make_spec(rng, 8, gen.SHAPES[k % 3], next(uids))
        path = work / f"setup{k}.scm"
        path.write_text(gen.render(spec))
        yard.burst()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--backend", "pycode",
             str(path)], cwd=root, env=env, capture_output=True,
            text=True, timeout=60)
        times.append((t0, time.perf_counter() - t0))
        want = f"=> {gen.expected_value(spec)}"
        if proc.returncode != 0 or proc.stdout.strip() != want:
            raise RuntimeError(
                f"repro run failed: rc={proc.returncode} "
                f"out={proc.stdout!r} err={proc.stderr[-500:]!r}")
    yard.burst()
    return spans.median([secs * yard.scale_near(t0, t0 + secs)
                         for t0, secs in times])


def cold_run(root: Path, work: Path, seed: int, seconds: float,
             trace: bool, env: dict) -> dict:
    """Run the workload; returns ``{"attempted", "failed", "metrics"}``."""
    import itertools

    rng = random.Random(seed)
    uids = itertools.count(1)
    setup_s = measure_setup(root, work, rng, uids, env)
    yard = yardstick.Yardstick()

    rec = spans.Recorder(enabled=trace)
    pipe = Pipeline(rec, interp_too=trace)
    # One untimed program of each kind finishes the process's lazy
    # imports before the clock starts.
    warm = Pipeline(spans.Recorder(enabled=False))
    for typed in (False, True):
        spec = gen.make_spec(rng, 4, "chain", next(uids), typed=typed)
        if not check_outcome(spec, run_one(warm, spec, gen.render(spec))):
            raise RuntimeError("warm-up program gave a wrong answer")

    undo = install_wrappers(rec) if trace else (lambda: None)
    records = []  # (spec, bytes, seconds, ok)
    passes = []   # the yardstick pass run right after each program
    busy = 0.0    # seconds inside the pipeline
    gc.collect()
    try:
        while busy < seconds:
            for spec in make_round(rng, uids):
                text = gen.render(spec)
                t0 = time.perf_counter()
                root_span = rec.open("program", size=spec.size,
                                     typed=spec.typed)
                try:
                    result = run_one(pipe, spec, text)
                except Exception as err:  # a wrong outcome, not a crash
                    result = err
                finally:
                    rec.close(root_span)
                elapsed = time.perf_counter() - t0
                busy += elapsed
                ok = (not isinstance(result, Exception)
                      and check_outcome(spec, result))
                records.append((spec, len(text), elapsed, ok))
                passes.append(yard.once())
    finally:
        undo()
    # Each program's time at reference speed (see yardstick.py).
    scales = yardstick.local_scales(passes)

    attempted = len(records)
    failed = sum(1 for r in records if not r[3])
    lat_ms = [r[2] * 1e3 * f for r, f in zip(records, scales)]
    within = sum(1 for (spec, _b, _s, ok), ms in zip(records, lat_ms)
                 if ok and ms <= SLO_MS_PER_NODE * spec.size)
    # Closed loop, one caller: the loop is its own saturation point.
    rate = (attempted - failed) / (sum(lat_ms) / 1e3)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (spans.percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (spans.percentile(lat_ms, 90), "ms"),
        "programs_per_s": (rate, "1/s"),
        "max_rps": (rate, "1/s"),
        "slo_ok_ratio": (within / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    if trace:
        metrics.update(layer_metrics(rec, records, scales))
        metrics.update(yardstick.at_reference_speed(
            cache_metrics(rng, uids), yard.scale))
        metrics["trace.overhead_ratio"] = (trace_overhead(rng, uids),
                                           "ratio")
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        metrics["yardstick.ms"] = (yard.ms, "ms")
        rec.write(work / "spans.jsonl")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Traced-run analysis
# ---------------------------------------------------------------------------

#: Span name -> the layer its time is attributed to.
LAYER_OF = {
    "parse": "parse", "digest": "digest", "check": "check",
    "typecheck.parse": "typecheck", "typecheck.check": "typecheck",
    "typecheck.erase": "typecheck", "run_typed": "typecheck",
    "link": "link", "link.flatten": "link.flatten",
    "link.optimize": "link.optimize",
    "codegen": "codegen", "codegen.gen": "codegen",
    "pycode.run": "pycode.run", "interp.eval": "interp",
}


def layer_metrics(rec: spans.Recorder, records,
                  scales: list[float]) -> dict:
    """Per-layer self times (each program's at reference speed, by its
    own scale), throughput and ladder exponents."""
    per_layer: dict[str, list[float]] = {}     # layer -> per-program s
    by_size: dict[str, dict[int, list[float]]] = {}
    src_bytes: list[int] = []
    wall = unattributed = 0.0
    parse_bytes = 0
    for root, (spec, nbytes, _elapsed, _ok), scale in zip(
            rec.roots, records, scales):
        wall += root.duration
        unattributed += root.self_time
        totals: dict[str, float] = {}
        for span in root.walk():
            if span is root:
                continue
            layer = LAYER_OF[span.name]
            if layer == "interp" and spec.typed:
                layer = "interp.typed"
            totals[layer] = totals.get(layer, 0.0) + span.self_time * scale
            if span.name == "codegen.gen":
                src_bytes.append(span.attrs.get("src_bytes", 0))
        if not spec.typed:
            parse_bytes += nbytes
        for layer, seconds in totals.items():
            per_layer.setdefault(layer, []).append(seconds)
            by_size.setdefault(layer, {}).setdefault(
                spec.size, []).append(seconds)

    def ms(layer):
        return (spans.mean(per_layer.get(layer, [])) * 1e3, "ms")

    def exponent(layer):
        return (spans.loglog_slope(by_size.get(layer, {})), "slope")

    parse_s = sum(per_layer.get("parse", []))
    return {
        "parse.ms": ms("parse"),
        "parse.kb_per_s": (parse_bytes / 1e3 / parse_s if parse_s else 0.0,
                           "kB/s"),
        "parse.exponent": exponent("parse"),
        "digest.ms": ms("digest"), "digest.exponent": exponent("digest"),
        "check.ms": ms("check"), "check.exponent": exponent("check"),
        "typecheck.ms": ms("typecheck"),
        "typecheck.exponent": exponent("typecheck"),
        "link.flatten.ms": ms("link.flatten"),
        "link.optimize.ms": ms("link.optimize"),
        "link.flatten.exponent": exponent("link.flatten"),
        "codegen.ms": ms("codegen"), "codegen.exponent": exponent("codegen"),
        "codegen.src_bytes": (spans.mean(src_bytes), "bytes"),
        "pycode.run_ms": ms("pycode.run"),
        "interp.eval_ms": ms("interp"),
        "archive.ms": (0.0, "ms"),
        "serve.overhead_ms_p50": (0.0, "ms"),
        "serve.overhead_ms_p90": (0.0, "ms"),
        "serve.refused": (0, "count"),
        "workers.overhead_ms_p50": (0.0, "ms"),
        "workers.metrics_op_ms": (0.0, "ms"),
        "workers.deaths": (0, "count"),
        "trace.dropped": (rec.dropped, "count"),
        "loadgen.late_ms_p90": (0.0, "ms"),
        "loadgen.sent": (len(records), "count"),
        "loadgen.ok": (sum(1 for r in records if r[3]), "count"),
        "loadgen.failed": (sum(1 for r in records if not r[3]), "count"),
        "latency.samples": (len(records), "count"),
        "unattributed.share": (unattributed / wall if wall else 0.0,
                               "ratio"),
    }


CACHE_TIERS = ("compile", "check", "link", "dynlink", "pycode", "flatten")


def tier_counts(snapshot: dict) -> dict[str, tuple[int, int]]:
    """``tier -> (hits, misses)`` from a ``metrics1`` snapshot."""
    hist = snapshot.get("histograms", {})
    out = {}
    for tier in CACHE_TIERS:
        hits = hist.get(f"cache.hit.{tier}", {}).get("count", 0)
        misses = hist.get(f"cache.miss.{tier}", {}).get("count", 0)
        out[tier] = (hits, misses)
    return out


def hit_ratio_metrics(counts: dict[str, tuple[int, int]],
                      evictions: int) -> dict:
    out = {}
    for tier, (hits, misses) in counts.items():
        total = hits + misses
        out[f"cache.{tier}.hit_ratio"] = (hits / total if total else 0.0,
                                          "ratio")
    out["cache.evictions"] = (evictions, "count")
    return out


def cache_metrics(rng: random.Random, uids) -> dict:
    """Tier hit ratios over one round run under the program's own
    metrics registry, and the net saving of caching: one round of
    untyped programs with ``terms.set_caching(False)`` minus the same
    programs with caching (positive = caching pays)."""
    from repro import obs
    from repro.lang import terms

    plain = Pipeline(spans.Recorder(enabled=False))
    programs = make_round(rng, uids)
    registry = obs.MetricsRegistry()
    with registry.scope():
        for spec in programs:
            run_one(plain, spec, gen.render(spec))
    snap = registry.snapshot()
    out = hit_ratio_metrics(tier_counts(snap),
                            snap.get("counters", {}).get("cache.evict", 0))

    texts = [gen.render(s) for s in programs if not s.typed]

    def timed(caching: bool) -> float:
        prev = terms.set_caching(caching)
        try:
            t0 = time.perf_counter()
            for text in texts:
                plain.untyped(text)
            return time.perf_counter() - t0
        finally:
            terms.set_caching(prev)

    # Alternate the two arms so drift hits both alike.
    off = on = 0.0
    for _ in range(2):
        off += timed(False)
        on += timed(True)
    out["cache.net_saving_ms"] = ((off - on) / (2 * len(texts)) * 1e3, "ms")
    return out


def trace_overhead(rng: random.Random, uids) -> float:
    """Traced/untraced time ratio minus one, on identical cold work
    (the same texts, re-parsed each time): the median over adjacent
    pairs of runs, the arm that goes first alternating, so the host's
    drift cancels within each pair."""
    specs = [gen.make_spec(rng, 16, shape, next(uids))
             for shape in gen.SHAPES]
    specs.append(gen.make_spec(rng, 16, "chain", next(uids), typed=True))
    plain = Pipeline(spans.Recorder(enabled=False), interp_too=True)
    rec = spans.Recorder(enabled=True)
    traced = Pipeline(rec, interp_too=True)

    def timed(spec, text, with_trace: bool) -> float:
        undo = install_wrappers(rec) if with_trace else (lambda: None)
        try:
            t0 = time.perf_counter()
            run_one(traced if with_trace else plain, spec, text)
            return time.perf_counter() - t0
        finally:
            undo()

    ratios = []
    for rep in range(4):
        for spec in specs:
            text = gen.render(spec)
            first = rep % 2 == 0
            a = timed(spec, text, first)
            b = timed(spec, text, not first)
            on, off = (a, b) if first else (b, a)
            ratios.append(on / off)
    return spans.median(ratios) - 1.0
