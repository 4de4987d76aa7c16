"""The containment-aware result cache.

A :class:`ResultCache` stores materialized flock/subquery results —
survivor sets of parameter assignments, optionally with their aggregate
values — tagged with three things that make reuse *sound*:

1. **the canonical query key** (:mod:`repro.session.canonical`), so
   alpha-equivalent queries share entries, every key hit re-verified
   with the exact :func:`~repro.session.canonical.alpha_equivalent`;
2. **the filter it was computed under** — by Section 5 monotonicity a
   result computed at threshold *t* is a superset of the result at any
   stricter threshold, so an ``"aggregates"`` entry (survivors plus
   their per-conjunct aggregate values) serves any request whose filter
   :func:`~repro.flocks.filters.filter_implies` the stored one by pure
   re-filtering; a cached query that *contains* the requested one
   (:func:`~repro.session.canonical.serves_as_bound`) instead serves as
   an a-priori pruning upper bound for the FILTER-plan machinery;
3. **the base-relation versions read** (:mod:`repro.relational.catalog`
   counters), so invalidation is exact: mutating relation ``R`` drops
   precisely the entries derived from ``R`` and no others.

Two entry kinds:

* ``"aggregates"`` — parameter columns plus ``_agg{i}`` per filter
  conjunct, only for assignments that survived.  Serves *exact* answers
  at implied (stricter-or-equal) thresholds.  This is the kind
  :func:`~repro.flocks.mining.mine` publishes for the full flock.
* ``"survivors"`` — parameter columns only.  Too little information to
  re-filter, but still a sound *upper bound* for any contained query
  under an implied filter — exactly what a FILTER step's ``ok``
  relation needs, since later plan steps re-filter anyway.  This is
  what plan pre-filter steps and the dynamic evaluator's intermediate
  materializations publish.

Eviction is size-bounded LRU: total cached rows and entry count are
capped, the least-recently-*used* entry goes first, and a single result
larger than the row budget is never admitted.

The cache is **thread-safe**: the serve layer shares one process-wide
cache across a pool of worker threads, so every path that reads or
mutates the LRU order (lookups touch it too — ``move_to_end``) runs
under one re-entrant lock.  Entries themselves are immutable relations,
so a served entry needs no lock to use.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from ..concurrency import requires
from ..datalog.query import FlockQuery, as_union
from ..flocks.filters import (
    AnyFilter,
    filter_implies,
    filter_signature,
    refilter_aggregates,
)
from ..relational.relation import Relation
from .canonical import alpha_equivalent, canonical_key, serves_as_bound

#: Entry kinds (see module docstring).
KIND_AGGREGATES = "aggregates"
KIND_SURVIVORS = "survivors"


def query_relations(query: FlockQuery) -> set[str]:
    """The base relations a query reads — the version-tracking scope."""
    names: set[str] = set()
    for rule in as_union(query).rules:
        names |= rule.predicates()
    return names


@dataclass
class CachedResult:
    """One materialized result with its reuse metadata."""

    key: str
    query: FlockQuery
    filter: AnyFilter
    kind: str
    relation: Relation
    versions: dict[str, int]
    source_rows: int
    param_columns: tuple[str, ...]

    def is_current(self, version_of: Callable[[str], int]) -> bool:
        """Whether every base relation still has its recorded version.
        ``version_of(name)`` is typically ``db.version``."""
        return all(version_of(n) == v for n, v in self.versions.items())

    def survivor_relation(self, name: str) -> Relation:
        """The survivors projected to the parameter columns."""
        if self.kind == KIND_SURVIVORS:
            return self.relation.with_name(name)
        return self.relation.project(list(self.param_columns), name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CachedResult({self.kind}, rows={len(self.relation)}, "
            f"filter={self.filter}, query={self.query})"
        )


@dataclass
class CacheStats:
    """Counters for one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    bound_hits: int = 0
    invalidated: int = 0
    evicted: int = 0
    stored: int = 0
    rejected_oversize: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class ResultCache:
    """Size-bounded LRU cache of materialized query results.

    Args:
        max_rows: cap on the *total* tuples across all entries (None =
            unbounded).  A single relation exceeding the cap is never
            admitted.
        max_entries: cap on the number of entries (None = unbounded).
    """

    #: Lock discipline, proven by ``repro.analysis.conlint``: the LRU
    #: map and the stats counters are only touched under ``_lock``.
    GUARDED = {"_entries": "_lock", "stats": "_lock"}

    def __init__(
        self,
        max_rows: Optional[int] = 100_000,
        max_entries: Optional[int] = 64,
    ) -> None:
        self.max_rows = max_rows
        self.max_entries = max_entries
        self.stats = CacheStats()
        # Insertion/use order is LRU order: oldest first.
        self._entries: "OrderedDict[tuple, CachedResult]" = OrderedDict()
        # One lock for every read *and* write: lookups mutate LRU order
        # and the stats counters, so there is no lock-free fast path.
        # Re-entrant because put() -> _evict() nests.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def total_rows(self) -> int:
        with self._lock:
            return sum(len(e.relation) for e in self._entries.values())

    def total_bytes(self) -> int:
        """Footprint of the cached relations in the encoded flat-column
        layout (8 bytes per column slot) — the byte-accurate companion
        to :meth:`total_rows`, exported as the ``repro_cache_bytes``
        gauge by the serve layer."""
        with self._lock:
            return sum(
                e.relation.encoded_nbytes() for e in self._entries.values()
            )

    def entries(self) -> list[CachedResult]:
        """All entries, least-recently-used first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats_snapshot(self) -> CacheStats:
        """A point-in-time copy of the counters, taken under the lock —
        what cross-object readers (session stats, metric scrapes) should
        use instead of reading the live ``stats`` fields."""
        with self._lock:
            return replace(self.stats)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def put(
        self,
        query: FlockQuery,
        filter: AnyFilter,
        kind: str,
        relation: Relation,
        versions: dict[str, int],
        source_rows: int,
        param_columns: Iterable[str],
    ) -> Optional[CachedResult]:
        """Admit one result; returns the stored entry, or None when the
        cache kept an existing more-general entry or the result is too
        big to ever fit.

        Generality policy per (canonical key, kind, filter signature)
        slot: an entry computed under a *weaker* filter serves strictly
        more requests, so a weaker incumbent is kept (the new result
        adds nothing) and a weaker newcomer replaces a stricter
        incumbent.
        """
        with self._lock:
            if self.max_rows is not None and len(relation) > self.max_rows:
                self.stats.rejected_oversize += 1
                return None
            key = canonical_key(query)
            slot = (key, kind, filter_signature(filter))
            incumbent = self._entries.get(slot)
            if incumbent is not None and incumbent.is_current(
                lambda n: versions.get(n, incumbent.versions.get(n))
            ):
                if filter_implies(filter, incumbent.filter):
                    # Incumbent is at least as general: keep it,
                    # refresh LRU.
                    self._entries.move_to_end(slot)
                    return None
            entry = CachedResult(
                key=key,
                query=query,
                filter=filter,
                kind=kind,
                relation=relation,
                versions=dict(versions),
                source_rows=source_rows,
                param_columns=tuple(param_columns),
            )
            self._entries[slot] = entry
            self._entries.move_to_end(slot)
            self.stats.stored += 1
            self._evict()
            return entry

    @requires("_lock")
    def _evict(self) -> None:
        while (
            self.max_entries is not None
            and len(self._entries) > self.max_entries
        ):
            self._entries.popitem(last=False)
            self.stats.evicted += 1
        if self.max_rows is None:
            return
        while len(self._entries) > 1 and self.total_rows() > self.max_rows:
            self._entries.popitem(last=False)
            self.stats.evicted += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def find_exact(
        self, query: FlockQuery, filter: AnyFilter
    ) -> Optional[CachedResult]:
        """An ``"aggregates"`` entry for an alpha-equivalent query whose
        stored filter the requested one implies — i.e. an entry that can
        produce the *exact* answer by re-filtering.  Touches LRU on hit;
        counts a hit/miss."""
        slot = (canonical_key(query), KIND_AGGREGATES, filter_signature(filter))
        with self._lock:
            entry = self._entries.get(slot)
            if (
                entry is not None
                and alpha_equivalent(entry.query, query)
                and filter_implies(filter, entry.filter)
            ):
                self._entries.move_to_end(slot)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
            return None

    def serve_exact(
        self, entry: CachedResult, filter: AnyFilter, name: str = "flock"
    ) -> Relation:
        """Materialize the exact answer for ``filter`` from an
        ``"aggregates"`` entry (re-filter, drop aggregate columns)."""
        assert entry.kind == KIND_AGGREGATES
        return refilter_aggregates(
            entry.relation, list(entry.param_columns), filter, name=name
        )

    def find_bound(
        self,
        query: FlockQuery,
        filter: AnyFilter,
        param_columns: Iterable[str],
    ) -> Optional[CachedResult]:
        """The best cached *upper bound* for ``query``: an entry over the
        same parameter columns whose query contains ``query`` and whose
        filter the request implies.  Smallest survivor set wins (tightest
        bound).  Counts a bound hit when found; never counts a miss —
        bounds are opportunistic."""
        wanted = tuple(sorted(param_columns))
        with self._lock:
            best: Optional[tuple[int, tuple, CachedResult]] = None
            for slot, entry in self._entries.items():
                if tuple(sorted(entry.param_columns)) != wanted:
                    continue
                if not filter_implies(filter, entry.filter):
                    continue
                if not serves_as_bound(entry.query, query):
                    continue
                size = len(entry.relation)
                if best is None or size < best[0]:
                    best = (size, slot, entry)
            if best is None:
                return None
            _, slot, entry = best
            self._entries.move_to_end(slot)
            self.stats.bound_hits += 1
            return entry

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate_stale(self, version_of: Callable[[str], int]) -> int:
        """Drop every entry derived from a relation whose version moved.
        ``version_of(name)`` is typically ``db.version``.  Returns the
        number of entries dropped."""
        with self._lock:
            stale = [
                slot
                for slot, entry in self._entries.items()
                if not entry.is_current(version_of)
            ]
            for slot in stale:
                del self._entries[slot]
            self.stats.invalidated += len(stale)
            return len(stale)
