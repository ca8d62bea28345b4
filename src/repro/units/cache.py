"""Content-addressed caches for compiled, checked, and linked units.

Units are syntax, and structurally identical syntax compiles, checks,
and links identically — so the Figure 12 compiler, the Figure 10
checker, the Figure 11 compound merge, and the dynamic-linking archive
can reuse results keyed by the stable
:func:`repro.lang.terms.term_key` digest (compiled code is closed over
its generated names, so a cached body is reusable in any context —
exactly the code sharing the paper's footnote 8 describes).

The tier table: :data:`TIERS` declares every tier once — its name
(which is also its :class:`CacheStore` attribute, its directory on
disk, and the ``cache`` field of its events), its LRU size, and, for
tiers with a disk tier, the file suffix and the encode/decode pair:

* ``compile`` — ``term_key(unit-form) -> compiled core expression``;
  disk: pretty-printed terms (``.scm``);
* ``check`` — ``(term_key, strict?) -> True`` for successful
  :func:`repro.units.check.check_unit` runs;
* ``link`` — compound merges keyed by :func:`link_key` (the two
  constituents' digests plus the link-graph shape — flat signature
  names, never qualified paths) and Section 4.2.4 optimizer results
  under ``("opt", digest, rounds)``; disk: merged units (``.scm``);
* ``dynlink`` — ``sha256(source) -> unit syntax`` for archive
  retrievals and served requests;
* ``pycode`` — code objects in memory, generated Python source on
  disk (``.py``);
* ``flatten`` — the whole-subtree flatten memo (see
  :func:`flatten_key`).

Every tier is reached through one routine, :func:`lookup`: memory,
then (for a digest key on a tier with a disk tier) disk, then
``compute``.  It emits exactly one ``cache.hit`` or ``cache.miss``
event per logical lookup plus its service-time histogram, and a
compute that raises — including :class:`repro.limits.BudgetExceeded`
— propagates before anything is stored, so failures are never cached.
Deadline polling and chaos hooks stay in the callers, before the
lookup, so budget-governed runs poll on the fast path too.

Scoping: the caches are **inactive by default** and enabled per scope.
:func:`unit_cache_scope` creates a *fresh* :class:`CacheStore` for the
dynamic extent of the block — the CLI wraps each invocation in one
(one invocation behaves like one process), benches and tests open
their own.  :func:`cache_store_scope` instead installs an *existing*
store, which is how ``repro serve`` shares one long-lived,
concurrency-safe store across requests.  Scoping is
:mod:`contextvars`-based, so concurrent requests each see exactly the
store their scope installed; :func:`current_store` is the way to reach
a tier (``current_store().link``).  ``--no-term-cache`` (the
:mod:`repro.lang.terms` switch) also disables them.

Concurrency: no lock is ever held across a ``compute()`` callback, so
two racing misses on the same key may both compute (a benign stampede
— the values are structurally identical and last-put wins); what the
locks rule out is *torn state*: a reader never observes a half-updated
LRU, a half-written disk entry (writes go to a unique temp file and
``os.replace`` into place), or a concurrent unlink-on-corrupt.

Eviction and invalidation: every store is size-bounded (LRU); a
``ttl_s`` additionally expires entries by age at lookup time (expiry
emits ``cache.evict`` with ``reason: "ttl"``).
:meth:`CacheStore.invalidate` removes every entry derived from a given
``tk2`` digest — memory entries whose key embeds the digest, link-tier
merges recorded as depending on it, and the digest's disk files.  The
disk tier (``--cache-dir`` or ``REPRO_CACHE_DIR``) lives under a
directory versioned by the entry format and the digest schema
(``DISK_LAYOUT``, ``v2-tk2/<tier>/``), so a change to either strands
old entries instead of misreading them.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, TypeVar

from repro.lang import terms as _terms
from repro.lang.ast import Expr
from repro.obs import current as _obs_current
from repro.serve import chaos as _chaos

_MISS = object()
_T = TypeVar("_T")


def _encode_term(expr: Expr) -> str:
    from repro.lang.pretty import show

    return show(expr) + "\n"


def _decode_term(text: str, origin: str) -> Expr:
    from repro.lang.parser import parse_program

    return parse_program(text, origin=origin)


def _decode_unit(text: str, origin: str) -> Expr:
    from repro.units.ast import UnitExpr

    expr = _decode_term(text, origin)
    if not isinstance(expr, UnitExpr):
        raise ValueError("link entry is not a single unit")
    return expr


def _decode_pycode(source: str, origin: str):
    # A module that compiles but lost its ``_main`` (a truncation at a
    # line boundary parses fine) is as corrupt as one that does not.
    code = compile(source, "<pycode>", "exec")
    if "_main" not in code.co_names:
        raise ValueError("no _main in cached module")
    return code


class Tier(NamedTuple):
    """One tier's facts.  ``decode(text, origin)`` raises on a corrupt
    entry.  A disk tier without ``encode`` computes its disk text
    directly, and memory keeps ``decode(text)`` (pycode: source on
    disk, code objects in memory)."""

    name: str
    size: int  # default LRU capacity, scaled by ``CacheStore(scale=)``
    suffix: str | None = None  # disk file suffix; ``None``: memory only
    decode: Callable[[str, str], object] | None = None
    encode: Callable[[object], str] | None = None

    def computed(self, out: object) -> object:
        """The memory value of a computed result."""
        if self.encode is not None or self.decode is None:
            return out
        return self.decode(out, f"<{self.name}>")


TIERS: dict[str, Tier] = {tier.name: tier for tier in (
    Tier("compile", 1024, ".scm", _decode_term, _encode_term),
    Tier("check", 4096),
    Tier("link", 1024, ".scm", _decode_unit, _encode_term),
    Tier("dynlink", 256),
    Tier("pycode", 256, ".py", _decode_pycode),
    Tier("flatten", 512),
)}

#: How many stripes the per-digest disk locks are spread over.
_DIGEST_STRIPES = 64

#: The disk tier's top directory: the entry-format version, then the
#: digest schema.  Bump the version whenever printed entries change
#: meaning (``v2``: non-finite floats print as ``+inf.0``, and a bare
#: ``inf`` reads as a symbol), so old entries are stranded, not misread.
#: The ``tk2`` schema also strands pycode entries from the codegen that
#: checked every boxed read for an undefined cell.
DISK_LAYOUT = f"v2-{_terms.SCHEMA}"


class TermCache:
    """A bounded LRU map from digests to results.

    Pure storage: :func:`lookup` emits the hit/miss events, except
    eviction — size-bound LRU drops and TTL expiries — which only this
    class can see.  Every table carries its own lock (uncontended, it
    is cheaper than any no-op stand-in); with a ``ttl_s`` entries
    expire by age at lookup time, so a long-lived store sheds stale
    results even for keys hot enough to survive the LRU.
    """

    def __init__(self, name: str, maxsize: int, *,
                 ttl_s: float | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.name = name
        self.maxsize = maxsize
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (value, insertion stamp; 0.0 without a TTL)
        self._table: "OrderedDict[object, tuple[object, float]]" = \
            OrderedDict()

    def get(self, key: object) -> object:
        with self._lock:
            entry = self._table.get(key)
            if entry is None:
                return _MISS
            expired = (self.ttl_s is not None
                       and self._clock() - entry[1] > self.ttl_s)
            if expired:
                del self._table[key]
            else:
                self._table.move_to_end(key)
        if not expired:
            return entry[0]
        col = _obs_current()
        if col is not None:
            col.emit("cache.evict", {"cache": self.name, "reason": "ttl"})
            col.gauge(f"cache.occupancy.{self.name}", len(self._table))
        return _MISS

    def put(self, key: object, value: object) -> None:
        stamp = self._clock() if self.ttl_s is not None else 0.0
        with self._lock:
            self._table[key] = (value, stamp)
            self._table.move_to_end(key)
            evicted = len(self._table) > self.maxsize
            if evicted:
                self._table.popitem(last=False)
        col = _obs_current()
        if col is not None:
            if evicted:
                col.emit("cache.evict", {"cache": self.name})
            col.gauge(f"cache.occupancy.{self.name}", len(self._table))

    def delete(self, key: object) -> int:
        """Drop one entry; returns how many entries were removed."""
        with self._lock:
            return 0 if self._table.pop(key, None) is None else 1

    def matching(self, digest: str) -> list[object]:
        """Keys that embed ``digest`` (directly or inside a tuple)."""
        with self._lock:
            keys = list(self._table)
        return [key for key in keys if _key_contains(key, digest)]

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        with self._lock:
            self._table.clear()


def _key_contains(key: object, digest: str) -> bool:
    if key == digest:
        return True
    if isinstance(key, tuple):
        return any(_key_contains(part, digest) for part in key)
    return False


class CacheStore:
    """One complete set of tiers (one :class:`TermCache` per
    :data:`TIERS` entry, as the attribute of the same name) plus the
    disk tiers.

    The unit of cache *scoping*: :func:`unit_cache_scope` creates a
    private one per invocation; ``repro serve`` creates one
    ``thread_safe`` instance at startup and shares it across every
    request via :func:`cache_store_scope`.  In multi-process serve
    mode each worker process builds its own (single-threaded) store,
    and sibling workers share warm state *only* through the disk
    tiers: writes are atomic (per-process temp file + ``os.replace``)
    and keys are content-addressed ``tk2`` digests, so concurrent
    writers of the same key race to install identical bytes —
    last-replace-wins is correct by construction, with no
    cross-process locking.

    ``thread_safe`` arms :data:`_DIGEST_STRIPES` striped locks for
    disk-tier reads, writes, and unlink-on-corrupt.  ``ttl_s`` expires
    memory entries by age; ``scale`` multiplies the default LRU
    capacities.  ``clock`` is injectable so TTL tests need not sleep.
    """

    def __init__(self, disk_dir: str | Path | None = None, *,
                 thread_safe: bool = False, ttl_s: float | None = None,
                 scale: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.thread_safe = thread_safe
        self.ttl_s = ttl_s
        self.caches = tuple(
            TermCache(tier.name, max(1, int(tier.size * scale)),
                      ttl_s=ttl_s, clock=clock)
            for tier in TIERS.values())
        for cache in self.caches:
            setattr(self, cache.name, cache)
        self._stripes = (tuple(threading.Lock()
                               for _ in range(_DIGEST_STRIPES))
                         if thread_safe else None)
        #: link-merge key -> the two constituent ``tk2`` digests, so
        #: :meth:`invalidate` can find merges whose opaque key does not
        #: itself embed the digest.
        self._link_deps: dict[object, tuple[str, str]] = {}
        self._deps_lock = threading.Lock()

    # -- maintenance ----------------------------------------------------

    def clear(self) -> None:
        """Empty every in-memory store (the disk tier is untouched)."""
        for cache in self.caches:
            cache.clear()
        with self._deps_lock:
            self._link_deps.clear()

    def occupancy(self) -> dict[str, int]:
        """Entries resident per store, for stats endpoints."""
        return {cache.name: len(cache) for cache in self.caches}

    def invalidate(self, digest: str) -> int:
        """Drop every entry derived from one ``tk2`` digest.

        Covers memory entries whose key embeds the digest (compile,
        check, pycode, flatten, and the link tier's ``("opt", ...)``
        optimizer entries), link-tier merges recorded as *depending*
        on the digest, and the digest's own disk files.  Returns how
        many entries were removed.
        """
        removed = 0
        for cache in self.caches:
            for key in cache.matching(digest):
                removed += cache.delete(key)
        with self._deps_lock:
            stale = [key for key, (k1, k2) in self._link_deps.items()
                     if digest in (k1, k2)]
            for key in stale:
                self._link_deps.pop(key, None)
        for key in stale:
            removed += self.link.delete(key)
        if self.disk_dir is not None:
            for tier in TIERS.values():
                if tier.suffix is None:
                    continue
                with self._digest_lock(tier.name, digest):
                    try:
                        self._disk_path(tier.name, digest).unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def record_link_deps(self, key: object, first: Expr,
                         second: Expr) -> None:
        """Remember a merge's constituent digests for invalidation.

        ``term_key`` is memoized on hash-consed nodes, so re-digesting
        here is a field read, not a re-hash.
        """
        k1 = _terms.try_term_key(first)
        k2 = _terms.try_term_key(second)
        if k1 is None or k2 is None:
            return
        with self._deps_lock:
            self._link_deps[key] = (k1, k2)
            if len(self._link_deps) > 2 * self.link.maxsize:
                # Prune deps whose merge the LRU already evicted.
                live = self._link_deps
                self._link_deps = {k: v for k, v in live.items()
                                   if k in self.link._table}

    # -- the disk tiers -------------------------------------------------

    def _digest_lock(self, name: str, key: object):
        if self._stripes is None:
            return nullcontext()
        return self._stripes[hash((name, key)) % _DIGEST_STRIPES]

    def _disk_path(self, name: str, key: str) -> Path:
        return self.disk_dir / DISK_LAYOUT / name \
            / f"{key}{TIERS[name].suffix}"

    def disk_read(self, name: str, key: str) -> object:
        """Read and decode one disk entry, or ``_MISS``.  A corrupt
        entry is unlinked (under the digest lock, so the recomputed
        result can take its slot) and reported as a miss."""
        path = self._disk_path(name, key)
        with self._digest_lock(name, key):
            try:
                if _chaos._armed:
                    _chaos.cache_io(f"{name}.read")
                text = path.read_text(encoding="utf-8")
            except OSError:
                return _MISS
            try:
                return TIERS[name].decode(text, str(path))
            except Exception:
                try:
                    path.unlink()
                except OSError:
                    pass
                return _MISS

    def disk_write(self, name: str, key: str, text: str) -> None:
        """Atomically publish one disk entry (temp file + replace).

        Concurrent writers of the same digest write identical content
        (the keys are content addresses), so last-replace-wins is
        correct; a reader racing the replace sees either the old
        complete entry or the new complete entry, never a torn one.
        """
        path = self._disk_path(name, key)
        tmp: Path | None = None
        with self._digest_lock(name, key):
            try:
                if _chaos._armed:
                    _chaos.cache_io(f"{name}.write")
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(
                    f"{path.name}.{os.getpid()}."
                    f"{threading.get_ident()}.tmp")
                tmp.write_text(text, encoding="utf-8")
                os.replace(tmp, path)
            except OSError:
                # A read-only or failing cache dir degrades to
                # memory-only; never leave a temp file behind.
                if tmp is not None:
                    try:
                        tmp.unlink()
                    except OSError:
                        pass


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------

_STORE: ContextVar[CacheStore | None] = ContextVar(
    "repro_unit_cache_store", default=None)

#: Count of entered cache scopes process-wide; ``current_store()``
#: reads this plain global before touching the contextvar, so the
#: common case — no scope anywhere — costs one integer test.
_scopes_open = 0


def current_store() -> CacheStore | None:
    """The store in scope (whether or not the term layer is enabled)."""
    if not _scopes_open:
        return None
    return _STORE.get()


def _active_store() -> CacheStore | None:
    """The store in scope, or ``None`` when caching is off entirely."""
    if not _scopes_open or not _terms._enabled:
        return None
    return _STORE.get()


def unit_caches_active() -> bool:
    """Are the content-addressed caches consulted right now?"""
    return _active_store() is not None


@contextmanager
def cache_store_scope(store: CacheStore) -> Iterator[CacheStore]:
    """Make ``store`` the consulted store for the dynamic extent.

    This is the sharing primitive: a long-lived process (``repro
    serve``) constructs one concurrency-safe store and each worker
    thread wraps its request in this scope.  Scoping is contextvar-
    based, so it must be (re-)entered inside the worker — executor
    threads do not inherit the submitting context.  Scopes nest; on
    exit the previous store (possibly none) is restored exactly.
    """
    global _scopes_open
    token = _STORE.set(store)
    _scopes_open += 1
    try:
        yield store
    finally:
        _scopes_open -= 1
        _STORE.reset(token)


@contextmanager
def unit_cache_scope(disk_dir: str | Path | None = None
                     ) -> Iterator[CacheStore]:
    """Activate a fresh private store for the dynamic extent.

    Entering installs empty stores (and optionally a disk directory);
    exiting restores whatever was active before, so scopes nest and a
    library caller can never observe another caller's cache state.
    """
    with cache_store_scope(CacheStore(disk_dir)) as store:
        yield store


# ---------------------------------------------------------------------------
# The one lookup routine
# ---------------------------------------------------------------------------


def _emit(kind: str, name: str, t_start: float,
          tier: str | None = None) -> None:
    col = _obs_current()
    if col is not None:
        col.emit(kind, {"cache": name} if tier is None
                 else {"cache": name, "tier": tier})
        # Service time: keying plus the lookup (and, for a disk hit,
        # reading and decoding the entry) — for a miss, the overhead of
        # *concluding* it, not the recomputation the stage spans own.
        col.observe(f"{kind}.{name}", time.perf_counter() - t_start)


def lookup(name: str, make_key: Callable[[], object | None],
           compute: Callable[[], _T],
           on_put: Callable[[CacheStore, object], None] | None = None
           ) -> _T:
    """Serve one logical lookup through tier ``name``.

    With no active store, or when ``make_key()`` is ``None`` (the term
    embeds run-time data), this is just ``compute()``.  Otherwise:
    memory, then disk (only digest-keyed — ``str`` — entries of a tier
    with a disk tier have a file), then ``compute()``, whose result is
    put in memory and on disk.  ``on_put(store, key)`` runs after every
    memory put.
    """
    tier = TIERS[name]
    store = _active_store()
    key = None
    if store is not None:
        t_start = time.perf_counter()
        key = make_key()
    if key is None:
        return tier.computed(compute())  # type: ignore[return-value]
    cache = getattr(store, name)
    found = cache.get(key)
    if found is not _MISS:
        _emit("cache.hit", name, t_start, "memory")
        return found  # type: ignore[return-value]
    disk = (tier.suffix is not None and store.disk_dir is not None
            and isinstance(key, str))
    if disk:
        found = store.disk_read(name, key)
        if found is not _MISS:
            _emit("cache.hit", name, t_start, "disk")
            cache.put(key, found)
            if on_put is not None:
                on_put(store, key)
            return found  # type: ignore[return-value]
    _emit("cache.miss", name, t_start)
    out = compute()
    value = tier.computed(out)
    cache.put(key, value)
    if on_put is not None:
        on_put(store, key)
    if disk:
        store.disk_write(name, key,
                         out if tier.encode is None else tier.encode(out))
    return value  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Per-tier entry points: keys, plus any per-tier step
# ---------------------------------------------------------------------------


def cached_compile(expr: Expr, compute: Callable[[], Expr]) -> Expr:
    """Compile through the compile tier.  Keying digests only the
    *input* unit — never the (much larger) compiled output."""
    return lookup("compile", lambda: _terms.try_term_key(expr), compute)


def link_key(compound, first: Expr, second: Expr) -> str | None:
    """The content key of one compound-link step (hex), or ``None``.

    Digests the two constituent units' ``tk2`` keys plus the link-graph
    shape: the compound's imports/exports and each clause's
    with/provides name lists.  ``None`` when either constituent embeds
    run-time data (machine states are never cached).
    """
    k1 = _terms.try_term_key(first)
    if k1 is None:
        return None
    k2 = _terms.try_term_key(second)
    if k2 is None:
        return None
    return _terms.hash_payload("merge" + k1 + k2 + "".join(
        _terms.encode_names(names)
        for names in (compound.imports, compound.exports,
                      compound.first.withs, compound.first.provides,
                      compound.second.withs, compound.second.provides)))


def cached_link(compound, first: Expr, second: Expr,
                compute: Callable[[], Expr]) -> Expr:
    """Merge a compound's constituents through the link tier.

    The merged unit a compound reduces to is a pure function of its
    constituents' structure and the link-graph shape, so a compound
    whose constituent digests are unchanged short-circuits to the
    stored merge — shared, not re-walked, by both the static linker
    and the rewriting machine.  Each put records the constituents'
    digests so :meth:`CacheStore.invalidate` can find the merge.
    """
    return lookup(
        "link", lambda: link_key(compound, first, second), compute,
        lambda store, key: store.record_link_deps(key, first, second))


def cached_optimize(unit: Expr, rounds: int,
                    compute: Callable[[], Expr]) -> Expr:
    """Optimize a unit through the link tier (memory only: the key is
    ``("opt", digest, rounds)``, not a bare digest).  The Section 4.2.4
    optimizer is deterministic and emits no events, so caching it
    cannot perturb trace-event counts."""
    def key() -> tuple | None:
        digest = _terms.try_term_key(unit)
        return None if digest is None else ("opt", digest, rounds)

    return lookup("link", key, compute)


def cached_parse(source: str, compute: Callable[[], Expr]) -> Expr:
    """Parse archived unit source through the dynlink tier.

    Keyed by the full text handed in — callers prepend any context
    (like the parse origin) that the cached syntax must agree with.
    """
    return lookup(
        "dynlink",
        lambda: hashlib.sha256(source.encode("utf-8")).hexdigest(),
        compute)


def cached_pycode(expr: Expr, generate: Callable[[], str]):
    """Generate + compile a program's Python module through the pycode
    tier: the code object in memory, the generated source at
    ``v2-tk2/pycode/<digest>.py`` (codegen is deterministic in the
    program's shape, so equal digests mean equal source)."""
    return lookup("pycode", lambda: _terms.try_term_key(expr), generate)


# ---------------------------------------------------------------------------
# The flatten memo
# ---------------------------------------------------------------------------
#
# Warm link time is dominated by re-walking the whole program tree even
# when every individual merge hits the link store.  The memo caches the
# *flattened result of an entire compound subtree*, keyed on the
# subtree's digest plus everything `_flatten` consults about its
# context: the unit bindings in scope (clause variables resolve through
# them) and the program's assigned-name set (which gates that
# resolution).  A hit skips the subtree walk entirely; the linker
# replays the recorded `link.static`/`reduce.compound` span kinds and
# stat deltas so trace-event counts and `LinkStats` stay
# cache-invariant (the differential sweeps compare both).


def flatten_key(expr: Expr, units_in_scope: dict,
                assigned: frozenset) -> tuple | None:
    """The context-complete memo key for one compound subtree."""
    if not unit_caches_active():
        return None
    key = _terms.try_term_key(expr)
    if key is None:
        return None
    scope_sig = []
    for name in sorted(units_in_scope):
        unit_key = _terms.try_term_key(units_in_scope[name])
        if unit_key is None:
            return None
        scope_sig.append((name, unit_key))
    return (key, tuple(scope_sig), tuple(sorted(assigned)))


def replay_link_events(replay: tuple) -> None:
    """Re-emit the span/event *kinds* a memoized flatten produced.

    Each marker is ``("m", defns)`` for a static merge (a
    ``link.static`` span enclosing the ``reduce.compound`` span, as the
    computed path nests them) or ``("d",)`` for a compound left
    dynamic (a flat ``link.static`` event) — so event counts per kind
    are identical with and without the memo.
    """
    col = _obs_current()
    if col is None:
        return
    for marker in replay:
        if marker[0] == "m":
            with col.span("link.static", {"merged": True, "replay": True}):
                with col.span("reduce.compound", {"defns": marker[1],
                                                  "replay": True}):
                    pass
        else:
            col.emit("link.static", {"merged": False, "replay": True})
