"""Registry lint: the source tree and ``obs.events.KINDS`` agree.

Every event kind the library emits (via ``emit(...)`` or ``span(...)``
with a literal kind string, or ``stage(...)`` with a literal stage
name) must be registered in
:data:`repro.obs.events.KINDS`, and every registered kind must actually
be emitted somewhere — a stale registry is as misleading as a missing
one.  Kinds that are only produced with computed names go on the
whitelist below with a justification.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs.events import FAMILIES, GAUGES, KINDS, SPAN_KEYS, family_of

SRC = Path(__file__).resolve().parents[1] / "src"

#: Registered kinds that never appear as an emit/span literal in src/
#: (e.g. kinds built from computed strings).  Add entries with a
#: comment saying where the kind is actually produced.
WHITELIST: frozenset[str] = frozenset({
    # Built via the TraceEvent constructor in repro.cli._run_observed
    # (the truncation trailer appended when writing a --trace file),
    # not through emit()/span().
    "metric.dropped",
})

# A literal kind string as the first argument of an emit(...) or
# span(...) call — matches module-level helpers (_obs_span, obs.emit),
# Collector methods (col.emit, col.span), but not build_spans(events).
_CALL = re.compile(r"""(?:emit|span)\(\s*["']([a-z_]+\.[a-z_]+)["']""")

# A literal stage name as the first argument of a
# repro.pipeline.stage(...) call, which opens the span "stage.<name>".
_STAGE_CALL = re.compile(r"""\bstage\(\s*["']([a-z_]+)["']""")

# A gauge name literal (plain or f-string prefix) as the first argument
# of a gauge(...) call.  Computed instance suffixes ("cache.occupancy."
# + self.name, f"budget.headroom.{resource}") leave the registered
# family.property prefix in the literal part, which is what we lint.
_GAUGE_CALL = re.compile(r"""\bgauge\(\s*f?["']([a-z_][a-z_.]*)""")


def _emitted_kinds() -> dict[str, set[str]]:
    """kind -> set of src-relative files where it is emitted."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        kinds = _CALL.findall(text) + [
            "stage." + name for name in _STAGE_CALL.findall(text)]
        for kind in kinds:
            found.setdefault(kind, set()).add(
                str(path.relative_to(SRC)))
    return found


def _gauge_literals() -> dict[str, set[str]]:
    """gauge-name literal prefix -> files where it is set."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "collector.py" or path.name == "metrics.py":
            # The gauge() definitions themselves (generic `name`
            # plumbing), not instrumentation sites.
            continue
        for name in _GAUGE_CALL.findall(path.read_text(encoding="utf-8")):
            found.setdefault(name.rstrip("."),
                             set()).add(str(path.relative_to(SRC)))
    return found


class TestRegistryLint:
    def test_every_emitted_kind_is_registered(self):
        unregistered = {
            kind: files for kind, files in _emitted_kinds().items()
            if kind not in KINDS}
        assert not unregistered, (
            f"kinds emitted but missing from obs.events.KINDS: "
            f"{unregistered}")

    def test_every_registered_kind_is_emitted(self):
        emitted = set(_emitted_kinds()) | WHITELIST
        stale = sorted(set(KINDS) - emitted)
        assert not stale, (
            f"kinds registered in obs.events.KINDS but never emitted "
            f"in src/ (emit/span literal) nor whitelisted: {stale}")

    def test_whitelist_is_not_stale(self):
        # A whitelisted kind that *is* emitted literally should come
        # off the whitelist; one that is unregistered is a typo.
        emitted = set(_emitted_kinds())
        assert not (WHITELIST & emitted), \
            f"whitelisted kinds now emitted directly: " \
            f"{sorted(WHITELIST & emitted)}"
        assert WHITELIST <= set(KINDS), \
            f"whitelisted kinds not registered: " \
            f"{sorted(WHITELIST - set(KINDS))}"

    def test_registered_kinds_are_well_formed(self):
        for kind in KINDS:
            assert family_of(kind) in FAMILIES, kind
            action = kind.split(".", 1)[1]
            assert action and action not in SPAN_KEYS, kind


class TestGaugeLint:
    def test_every_set_gauge_is_registered(self):
        # Call-site literals may carry an instance suffix; they pass if
        # any registered family.property is a (dotted) prefix.
        unregistered = {
            name: files for name, files in _gauge_literals().items()
            if not any(name == fam or name.startswith(fam + ".")
                       for fam in GAUGES)}
        assert not unregistered, (
            f"gauges set but missing from obs.events.GAUGES: "
            f"{unregistered}")

    def test_every_registered_gauge_is_set(self):
        literals = set(_gauge_literals())
        stale = sorted(
            fam for fam in GAUGES
            if not any(name == fam or name.startswith(fam + ".")
                       for name in literals))
        assert not stale, (
            f"gauge families registered in obs.events.GAUGES but never "
            f"set in src/: {stale}")

    def test_registered_gauges_are_well_formed(self):
        for name in GAUGES:
            parts = name.split(".")
            assert len(parts) == 2 and all(parts), name
