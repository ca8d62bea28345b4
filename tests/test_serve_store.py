"""The shared ``CacheStore``: concurrency, eviction, invalidation.

The link server's tentpole refactor promotes the per-invocation unit
caches to one long-lived, lock-protected store shared by every worker
thread.  These tests stress exactly the properties the server leans
on:

* concurrent hits/misses/evictions/invalidations over one
  ``thread_safe`` store never produce a torn read — every lookup
  returns either a miss or the one structurally correct value for its
  key — and every lookup emits exactly one ``cache.hit``/``cache.miss``
  event (the cache-invariant the differential sweeps rely on);
* TTL expiry evicts by age at lookup time, with a ``cache.evict``
  event carrying ``reason: "ttl"``;
* ``invalidate(digest)`` removes the digest's memory entries, its
  link-tier merges (found via the dependency index, since merge keys
  are opaque), and its disk files;
* disk writes are atomic (no ``.tmp`` residue, concurrent writers
  never produce a torn entry) and corrupt entries are unlinked and
  reported as misses;
* the shared tier contract of ``cache.lookup`` — one hit-or-miss event
  per lookup, a raising compute stores nothing, corrupt disk entries
  read as misses and are unlinked, ``invalidate`` removes a digest's
  file — holds for every row of ``cache.TIERS``;
* eviction under churn is observationally invisible: a store so small
  it constantly evicts produces the same values/outputs as no cache
  at all (the ``tests/test_cache_differential.py`` pattern).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.lang import terms
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.pretty import show
from repro.lang.values import to_write_string
from repro.limits import BudgetExceeded
from repro.units import cache as ucache
from repro.units.cache import CacheStore, TermCache, cache_store_scope
from repro.units.check import check_program
from repro.units.linker import link_and_optimize


def _unit_source(i: int) -> str:
    return (f"(unit (import) (export v{i}) "
            f"(define v{i} (lambda (x) (+ x {i}))) v{i})")


def _programs(n: int):
    return [parse_program(_unit_source(i)) for i in range(n)]


class TestConcurrentStore:
    def test_stress_no_torn_reads_and_invariant_events(self, tmp_path):
        """Hits, misses, LRU evictions, and invalidations race across
        8 threads; every result is structurally correct and every
        lookup emits exactly one hit-or-miss event."""
        programs = _programs(12)
        keys = [terms.term_key(p) for p in programs]
        expected = {keys[i]: show(programs[i]) for i in range(len(keys))}
        # scale=0.004 -> compile LRU of 4 entries: constant eviction.
        store = CacheStore(tmp_path, thread_safe=True, scale=0.004)
        workers, iters = 8, 120
        errors: list[str] = []

        def work(worker: int) -> None:
            with cache_store_scope(store), obs.collecting() as col:
                for step in range(iters):
                    i = (worker + step) % len(programs)
                    out = ucache.cached_compile(programs[i],
                                                lambda i=i: programs[i])
                    if show(out) != expected[keys[i]]:
                        errors.append(f"torn read for key {keys[i]}")
                    if step % 17 == worker % 17:
                        store.invalidate(keys[i])
                looked_up = sum(
                    1 for e in col.events
                    if e.kind in ("cache.hit", "cache.miss")
                    and e.fields.get("cache") == "compile")
                if looked_up != iters:
                    errors.append(
                        f"worker {worker}: {looked_up} hit/miss events "
                        f"for {iters} lookups")

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(work, range(workers)):
                pass
        assert not errors, errors[:5]
        # The LRU bound held under the race.
        assert len(store.compile) <= store.compile.maxsize
        # No temp-file residue from the atomic writes.
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_scope_isolation(self):
        """Two threads in different store scopes never see each
        other's entries (contextvar scoping, not globals)."""
        a, b = CacheStore(), CacheStore()
        program = _programs(1)[0]
        barrier = threading.Barrier(2)
        lens = {}

        def use(name: str, store: CacheStore, populate: bool) -> None:
            with cache_store_scope(store):
                barrier.wait()
                if populate:
                    ucache.cached_compile(program, lambda: program)
                barrier.wait()
                lens[name] = len(ucache.current_store().compile)

        threads = [threading.Thread(target=use, args=("a", a, True)),
                   threading.Thread(target=use, args=("b", b, False))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert lens == {"a": 1, "b": 0}


class TestTtlEviction:
    def test_entries_expire_by_age(self):
        clock = [0.0]
        cache = TermCache("t", maxsize=8, ttl_s=10.0,
                          clock=lambda: clock[0])
        cache.put("k", "v")
        assert cache.get("k") == "v"
        clock[0] = 10.5
        with obs.collecting() as col:
            assert cache.get("k") is ucache._MISS
        assert len(cache) == 0
        evicts = [e for e in col.events if e.kind == "cache.evict"]
        assert [e.fields.get("reason") for e in evicts] == ["ttl"]

    def test_store_wires_ttl_through(self):
        clock = [0.0]
        store = CacheStore(ttl_s=5.0, clock=lambda: clock[0])
        program = _programs(1)[0]
        with cache_store_scope(store):
            ucache.cached_compile(program, lambda: program)
            clock[0] = 6.0
            with obs.collecting() as col:
                ucache.cached_compile(program, lambda: program)
        kinds = [e.kind for e in col.events]
        assert "cache.evict" in kinds and "cache.miss" in kinds


class TestInvalidation:
    def test_invalidate_memory_disk_and_link_deps(self, tmp_path):
        from repro.units.ast import CompoundExpr

        source = """
        (invoke (compound (import) (export out)
          (link ((unit (import) (export mk)
                   (define mk (lambda (x) (* x 2))) mk)
                 (with) (provides mk))
                ((unit (import mk) (export out)
                   (define out (lambda () (mk 21))) (out))
                 (with mk) (provides out)))))
        """
        program = parse_program(source)
        store = CacheStore(tmp_path)
        with cache_store_scope(store):
            check_program(program)
            linked, _ = link_and_optimize(program)
        assert len(store.link) >= 1
        compound = program.expr
        assert isinstance(compound, CompoundExpr)
        first_key = terms.term_key(compound.first.expr)
        removed = store.invalidate(first_key)
        assert removed >= 1
        # The merge keyed on the constituent's digest is gone even
        # though its own key never embeds that digest.
        assert all(not deps or first_key not in deps
                   for deps in store._link_deps.values())
        disk = tmp_path / ucache.DISK_LAYOUT
        assert not list(disk.glob(f"*/{first_key}.*"))

    def test_invalidate_plain_digest_entries(self, tmp_path):
        program = _programs(1)[0]
        key = terms.term_key(program)
        store = CacheStore(tmp_path)
        with cache_store_scope(store):
            ucache.cached_compile(program, lambda: program)
            store.check.put((key, True), True)
        assert len(store.compile) == 1 and len(store.check) == 1
        assert store.invalidate(key) >= 3  # memory x2 + disk file
        assert len(store.compile) == 0 and len(store.check) == 0
        with cache_store_scope(store), obs.collecting() as col:
            ucache.cached_compile(program, lambda: program)
        kinds = [e.kind for e in col.events
                 if e.fields.get("cache") == "compile"]
        assert kinds == ["cache.miss"]


DISK_TIERS = [t.name for t in ucache.TIERS.values() if t.suffix]

#: Per disk tier: damaged entries its decoder must reject (a
#: truncated term, a parseable non-unit, a module without ``_main``).
CORRUPT = [("compile", "((((not a program"), ("link", "((("),
           ("link", "(+ 1 2)"), ("pycode", "def broken("),
           ("pycode", "x = 1\n")]


def _computed(name: str):
    """A result ``compute`` may return for tier ``name``."""
    if name == "pycode":
        return "def _main(rt):\n    return 42\n"
    return _programs(1)[0]


class TestTierContract:
    """The shared contract of :func:`repro.units.cache.lookup`, held
    once over every row of the tier table."""

    @pytest.mark.parametrize("name", list(ucache.TIERS))
    def test_one_event_per_lookup(self, name, tmp_path):
        key = terms.term_key(_programs(1)[0])
        computed = []

        def compute():
            computed.append(name)
            return _computed(name)

        outcomes = []
        for store in (CacheStore(tmp_path), CacheStore(tmp_path)):
            for _ in range(2):
                with cache_store_scope(store), obs.collecting() as col:
                    ucache.lookup(name, lambda: key, compute)
                events = [e for e in col.events
                          if e.kind in ("cache.hit", "cache.miss")]
                assert [e.fields["cache"] for e in events] == [name]
                outcomes.append((events[0].kind,
                                 events[0].fields.get("tier")))
        # The second store starts cold in memory; only a tier with a
        # disk tier can serve it from the first store's file.
        fresh = (("cache.hit", "disk") if name in DISK_TIERS
                 else ("cache.miss", None))
        assert outcomes == [("cache.miss", None), ("cache.hit", "memory"),
                            fresh, ("cache.hit", "memory")]
        assert len(computed) == (1 if name in DISK_TIERS else 2)

    @pytest.mark.parametrize("name", list(ucache.TIERS))
    @pytest.mark.parametrize("error", [
        BudgetExceeded("deadline", 0.0, 0.1), RuntimeError("boom")])
    def test_failed_compute_stores_nothing(self, name, error, tmp_path):
        key = terms.term_key(_programs(1)[0])
        store = CacheStore(tmp_path)

        def compute():
            raise error

        with cache_store_scope(store):
            with pytest.raises(type(error)):
                ucache.lookup(name, lambda: key, compute)
            assert len(getattr(store, name)) == 0
            assert not list(tmp_path.rglob("*.*"))
            with obs.collecting() as col:
                ucache.lookup(name, lambda: key, lambda: _computed(name))
        assert [e.kind for e in col.events
                if e.kind.startswith("cache.")
                and e.kind != "cache.evict"] == ["cache.miss"]


class TestDiskTierHardening:
    @pytest.mark.parametrize("name", DISK_TIERS)
    def test_atomic_write_no_residue(self, name, tmp_path):
        store = CacheStore(tmp_path)
        store.disk_write(name, "abc123", "(unit (import) (export) 1)\n")
        path = store._disk_path(name, "abc123")
        assert path.read_text().startswith("(unit")
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("name, text", CORRUPT)
    def test_corrupt_entry_unlinked_on_read(self, name, text, tmp_path):
        store = CacheStore(tmp_path)
        path = store._disk_path(name, "deadbeef")
        path.parent.mkdir(parents=True)
        path.write_text(text)
        assert store.disk_read(name, "deadbeef") is ucache._MISS
        assert not path.exists()

    @pytest.mark.parametrize("name", DISK_TIERS)
    def test_invalidate_removes_the_file(self, name, tmp_path):
        key = terms.term_key(_programs(1)[0])
        store = CacheStore(tmp_path)
        with cache_store_scope(store):
            ucache.lookup(name, lambda: key, lambda: _computed(name))
        path = store._disk_path(name, key)
        assert path.exists()
        assert store.invalidate(key) == 2  # the memory entry + the file
        assert not path.exists()

    @pytest.mark.parametrize("name", DISK_TIERS)
    def test_unwritable_disk_degrades_to_memory(self, name, tmp_path,
                                                monkeypatch):
        store = CacheStore(tmp_path)
        monkeypatch.setattr(
            ucache.os, "replace",
            lambda *a, **k: (_ for _ in ()).throw(OSError("full")))
        key = terms.term_key(_programs(1)[0])
        computed = _computed(name)
        with cache_store_scope(store):
            out = ucache.lookup(name, lambda: key, lambda: computed)
        assert out == ucache.TIERS[name].computed(computed)
        assert len(getattr(store, name)) == 1
        assert not list(tmp_path.rglob("*.tmp"))


class TestEvictionChurnDifferential:
    """A store too small to hold anything must be observationally
    invisible (the ``test_cache_differential`` pattern, pointed at
    eviction instead of hits)."""

    SOURCES = [
        """(invoke (unit (import) (export go)
             (define go (lambda (n) (* n 3))) (go 14)))""",
        """(invoke (compound (import) (export out)
             (link ((unit (import) (export mk)
                      (define mk (lambda (x) (+ x 1))) mk)
                    (with) (provides mk))
                   ((unit (import mk) (export out)
                      (define out (lambda () (mk 41))) (out))
                    (with mk) (provides out)))))""",
    ]

    def _observe(self, store: "CacheStore | None"):
        out = []
        scope = (cache_store_scope(store) if store is not None
                 else terms.caching(False))
        with scope:
            for source in self.SOURCES:
                for _repeat in range(3):  # churn: revisit every program
                    expr = parse_program(source)
                    check_program(expr)
                    interp = Interpreter()
                    value = to_write_string(interp.eval(expr))
                    out.append((value, interp.port.getvalue()))
        return out

    def test_churning_store_matches_uncached(self):
        tiny = CacheStore(scale=0.0001)  # every LRU holds one entry
        assert all(c.maxsize == 1 for c in tiny.caches)
        with obs.collecting() as col:
            cached = self._observe(tiny)
        uncached = self._observe(None)
        assert cached == uncached
        evictions = [e for e in col.events if e.kind == "cache.evict"]
        assert evictions, "churn never evicted — not exercising LRU"
