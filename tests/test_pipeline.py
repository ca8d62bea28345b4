"""The shared command pipeline (``repro.pipeline``).

``repro run``, ``repro batch``, the link server and ``repro demo`` all
evaluate through :func:`~repro.pipeline.evaluate` and time their stages
with :func:`~repro.pipeline.stage`.  These tests pin what that sharing
buys: one codegen cache key per program whichever command runs it,
``stage.*`` spans from the server as well as the batch driver, and one
deadline behaviour at stage boundaries.
"""

import shutil
from pathlib import Path

import pytest

from repro import obs
from repro.batch import run_item
from repro.cli import main
from repro.limits import Budget, BudgetExceeded, budget_scope
from repro.obs import MetricsRegistry, read_jsonl
from repro.pipeline import archive_roundtrip, evaluate, stage
from repro.serve.handlers import execute_request
from repro.serve.protocol import validate_request
from repro.serve.server import ServeConfig
from repro.units.cache import DISK_LAYOUT, CacheStore

ROOT = Path(__file__).resolve().parents[1]
PHONEBOOK = ROOT / "examples" / "phonebook.scm"

GREET = """
(invoke (unit (import) (export greet)
  (define greet (lambda (n) (* n 7)))
  (greet 6)))
"""


def _pycode_lookups(events):
    return [e.kind for e in events
            if e.kind in ("cache.hit", "cache.miss")
            and e.fields.get("cache") == "pycode"]


def _traced_execute(req, store=None):
    """Run one request under a registry that adopts its span tree."""
    parent = obs.Collector()
    registry = MetricsRegistry(parent=parent)
    response = execute_request(validate_request(req),
                               store if store is not None else CacheStore(),
                               registry, ServeConfig())
    return response, parent.events


def _children(events, parent_kind):
    """Kinds of the spans opened directly under the one ``parent_kind``
    span."""
    enters = [e for e in events if e.fields.get("phase") == "enter"]
    (root,) = [e for e in enters if e.kind == parent_kind]
    return [e.kind for e in enters
            if e.fields.get("parent") == root.fields["span"]]


class TestOnePycodeKey:
    def test_run_batch_and_serve_share_one_entry(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        progs = tmp_path / "progs"
        progs.mkdir()
        program = progs / "phonebook.scm"
        shutil.copy(PHONEBOOK, program)
        entries = cache / DISK_LAYOUT / "pycode"

        assert main(["--cache-dir", str(cache), "run", "--backend",
                     "pycode", str(program)]) == 0
        assert len(list(entries.iterdir())) == 1

        trace = tmp_path / "batch.jsonl"
        assert main(["--cache-dir", str(cache), "--trace", str(trace),
                     "batch", "--backend", "pycode", str(progs),
                     "--out", str(tmp_path / "records.jsonl")]) == 0
        assert _pycode_lookups(read_jsonl(trace)) == ["cache.hit"]

        response, events = _traced_execute(
            {"op": "run", "source": program.read_text(),
             "backend": "pycode"}, store=CacheStore(cache))
        assert response["status"] == "ok", response
        assert _pycode_lookups(events) == ["cache.hit"]

        assert len(list(entries.iterdir())) == 1
        capsys.readouterr()


class TestServeStages:
    def test_run_stages_nest_under_the_request(self):
        response, events = _traced_execute({"op": "run", "source": GREET})
        assert response["status"] == "ok", response
        assert _children(events, "serve.request") == [
            "stage.parse", "stage.check", "stage.eval"]
        assert set(response["timings"]) == {"parse", "check", "eval",
                                            "total"}

    def test_link_op_has_a_link_stage(self):
        response, events = _traced_execute({"op": "link", "source": GREET})
        assert response["status"] == "ok", response
        assert _children(events, "serve.request") == [
            "stage.parse", "stage.check", "stage.link"]
        assert "stage.link" in obs.KINDS
        assert set(response["timings"]) == {"parse", "check", "link",
                                            "total"}

    def test_archive_stage_when_asked(self):
        response, events = _traced_execute(
            {"op": "run", "source": GREET, "archive": True})
        assert response["status"] == "ok", response
        assert _children(events, "serve.request") == [
            "stage.parse", "stage.check", "stage.archive", "stage.eval"]


class TestDeadlineAtCheckBoundary:
    def test_batch_and_serve_fail_alike(self, tmp_path):
        """A deadline that passes during parse trips at the check
        boundary, before check runs, identically in both drivers."""
        path = tmp_path / "greet.scm"
        path.write_text(GREET)
        deadline = 1e-9
        record = run_item(path, Budget(deadline_s=deadline))
        response, _events = _traced_execute(
            {"op": "run", "source": GREET, "deadline_s": deadline})

        assert record["status"] == response["status"] == "error"
        served = dict(response["error"])
        assert served.pop("code") == 3
        batched = dict(record["error"])
        for payload in (batched, served):
            assert payload.pop("used") >= deadline
            assert payload.pop("message").startswith(
                "budget exhausted: deadline limit")
        assert batched == served == {
            "type": "BudgetExceeded", "resource": "deadline",
            "limit": deadline}
        assert set(record["timings"]) == {"parse", "total"}
        assert set(response["timings"]) == {"parse", "total"}


class TestStage:
    def test_times_completed_stages_only(self):
        timings = {}
        with stage("parse", timings):
            pass
        with pytest.raises(ZeroDivisionError):
            with stage("check", timings):
                1 / 0
        assert set(timings) == {"parse"}

    def test_first_stage_does_not_poll(self):
        budget = Budget(deadline_s=1e-9)
        with budget_scope(budget):
            timings = {}
            with stage("parse", timings):
                pass
            with pytest.raises(BudgetExceeded):
                with stage("check", timings):
                    pass
        assert set(timings) == {"parse"}


class TestEvaluate:
    @pytest.mark.parametrize("backend", ["interp", "machine", "pycode"])
    def test_backends_agree(self, backend):
        from repro.lang.parser import parse_script
        from repro.lang.values import to_write_string

        value, output = evaluate(parse_script(GREET), backend)
        assert (to_write_string(value), output) == ("42", "")

    def test_archive_roundtrip_skips_non_units(self):
        from repro.lang.parser import parse_script

        assert archive_roundtrip(parse_script("(+ 1 2)"), "p") is None
        unit = archive_roundtrip(parse_script(GREET), "greet")
        assert unit.exports == ("greet",)
