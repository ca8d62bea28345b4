"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the ``end_to_end`` ones named in
``BENCHMARK.json``, with ``--trace 1`` the ``per_layer`` ones (and the
recorded spans are written under ``.bench_work/traces/``).  Every
outcome is checked against the generator's closed-form answer; a run
with any mismatch reports ``"correct": false``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-run", "warm-serve-procs")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def subprocess_env() -> dict:
    """The environment for ``python -m repro`` children: the
    checkout's ``src`` first, and no inherited cache settings."""
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_NO_TERM_CACHE"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[key]]

    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_NO_TERM_CACHE", None)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = subprocess_env()
    try:
        if args.workload == "cold-run":
            import coldrun

            result = coldrun.cold_run(ROOT, work, args.seed, args.seconds,
                                      bool(args.trace), env)
        else:
            import serveload

            result = serveload.run_workload(ROOT, work, args.seed,
                                            args.seconds, bool(args.trace),
                                            env)
        if args.trace:
            traces = ROOT / ".bench_work" / "traces"
            traces.mkdir(exist_ok=True)
            spans_file = work / "spans.jsonl"
            if spans_file.exists():
                shutil.move(str(spans_file), traces /
                            f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result["metrics"]
    missing = [name for name in wanted if name not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured[name][0],
                           "unit": measured[name][1]} for name in wanted},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
