"""Interactive mining sessions: one database, many related flocks.

Goethals & Van den Bussche observe that real association-rule mining is
a *session* — a human iterating thresholds and query variants against
one database — and that reusing earlier results dominates the cost of
such sessions.  :class:`MiningSession` is that loop's server side:

* it owns a :class:`~repro.relational.catalog.Database` (whose lazily
  cached statistics warm up across calls, since every optimizer run
  hits the same catalog);
* it owns a :class:`~repro.session.cache.ResultCache`, consulted before
  any evaluation (an alpha-equivalent flock at an implied — stricter or
  equal — threshold is answered by re-filtering the cached aggregates,
  with **zero** base-relation joins) and fed by every evaluation through
  a :class:`SessionSink` (final results with aggregate values;
  intermediate safe-subquery survivor sets from plan pre-filter steps
  and the dynamic evaluator);
* invalidation is exact: every cache entry records the version counters
  of the base relations it read, and any lookup first drops entries
  whose relations have since been mutated — untouched entries survive;
* PR 1's execution guards thread through every path: a session-level
  default :class:`~repro.guard.ResourceBudget`/
  :class:`~repro.guard.CancellationToken` applies to each
  :meth:`MiningSession.mine` call (cache hits included — the served
  answer still passes ``check_answer``), and per-call overrides win;
* with ``persist_path``, exact entries are also written through to a
  :class:`~repro.recovery.CheckpointStore` file, one record per (query,
  filter) replaced on every write and deleted when the cache evicts,
  invalidates or replaces the entry, so the file holds what the cache
  holds and a new process pointed at it starts warm — entries are
  re-adopted only when every source relation's cardinality still
  matches the recorded one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from typing import TYPE_CHECKING, Any

from ..concurrency import locked
from ..errors import FilterError, ReproError
from ..flocks.filters import (
    AnyFilter,
    CompositeFilter,
    FilterCondition,
    iter_conditions,
    parse_filter,
)
from ..flocks.flock import QueryFlock
from ..flocks.options import PER_CALL_FIELDS, MiningOptions
from ..guard import CancellationToken, GuardLike, ResourceBudget
from ..recovery import CheckpointStore
from ..relational.catalog import Database
from ..relational.relation import Relation

if TYPE_CHECKING:
    from ..flocks.mining import MiningReport
    from ..datalog.query import FlockQuery
from .cache import (
    KIND_AGGREGATES,
    KIND_SURVIVORS,
    CachedResult,
    ResultCache,
    query_relations,
)
from .canonical import canonical_key


def with_support_threshold(flock: QueryFlock, threshold: float) -> QueryFlock:
    """The same flock with its support conjunct's threshold replaced.

    The knob an interactive session turns most: re-ask the same flock at
    a different support level.  The first support-type conjunct (COUNT
    lower bound) is replaced; other conjuncts are kept.  Raises
    :class:`~repro.errors.FilterError` when the flock has no support
    conjunct to replace.
    """
    replaced = False
    conditions: list[FilterCondition] = []
    for condition in iter_conditions(flock.filter):
        if condition.is_support_condition and not replaced:
            conditions.append(
                FilterCondition(
                    condition.aggregate,
                    condition.relation_name,
                    condition.target,
                    condition.op,
                    threshold,
                    assume_nonnegative=condition.assume_nonnegative,
                )
            )
            replaced = True
        else:
            conditions.append(condition)
    if not replaced:
        raise FilterError(
            f"no support condition to override in {flock.filter}"
        )
    new_filter: AnyFilter = (
        conditions[0] if len(conditions) == 1
        else CompositeFilter(tuple(conditions))
    )
    return QueryFlock(flock.query, new_filter)


class SessionSink:
    """The cache side-channel one :func:`~repro.flocks.mining.mine` call
    threads through its evaluators (duck-typed; evaluators only see the
    three methods below).

    Per-call counters feed the :class:`~repro.flocks.mining.MiningReport`:
    ``step_hits`` counts pre-filter steps served from the cache and
    ``rows_saved`` the answer tuples those steps did not have to
    recompute.
    """

    def __init__(self, session: "MiningSession", flock: QueryFlock) -> None:
        self.session = session
        self.flock = flock
        #: Serving and publishing are only *sound* for monotone filters
        #: (the threshold-reuse rule is Section 5 monotonicity); for a
        #: non-monotone filter the sink is inert.
        self.active = flock.filter.is_monotone
        self.step_hits = 0
        self.rows_saved = 0

    # -- serving -------------------------------------------------------

    def serve_step(
        self, query: FlockQuery, param_columns: tuple[str, ...]
    ) -> Relation | None:
        """A cached upper bound usable as a pre-filter step's ok-relation
        (a superset of the true survivors is sound there — later steps
        re-filter), or None."""
        if not self.active:
            return None
        entry = self.session.cache.find_bound(
            query, self.flock.filter, param_columns
        )
        if entry is None:
            return None
        self.step_hits += 1
        self.rows_saved += entry.source_rows
        return entry.survivor_relation("ok")

    # -- publishing ----------------------------------------------------

    def publish_step(
        self,
        query: FlockQuery,
        param_columns: tuple[str, ...],
        ok: Relation,
        source_rows: int,
    ) -> None:
        """Record a pre-filter step's survivor set.  Skipped when the
        query references non-base predicates (ok-atoms of earlier plan
        steps): such survivors depend on transient scratch state."""
        if not self.active:
            return
        names = query_relations(query)
        if not names or not all(n in self.session.db for n in names):
            return
        self.session.cache.put(
            query,
            self.flock.filter,
            KIND_SURVIVORS,
            ok,
            self.session.db.versions(names),
            source_rows,
            param_columns,
        )

    def publish_final(
        self, with_aggregates: Relation, source_rows: int
    ) -> None:
        """Record the flock's full answer together with its per-conjunct
        aggregate values — the exact, re-filterable entry that serves
        any later request at stricter-or-equal thresholds."""
        if not self.active:
            return
        names = query_relations(self.flock.query)
        if not all(n in self.session.db for n in names):
            return
        entry = self.session.cache.put(
            self.flock.query,
            self.flock.filter,
            KIND_AGGREGATES,
            with_aggregates,
            self.session.db.versions(names),
            source_rows,
            self.flock.parameter_columns,
        )
        if entry is not None:
            self.session._persist_entry(entry)


@dataclass
class SessionStats:
    """A point-in-time summary of one session's cache behaviour."""

    queries: int
    cache_hits: int
    cache_misses: int
    bound_hits: int
    invalidated: int
    evicted: int
    entries: int
    cached_rows: int

    def __str__(self) -> str:
        return (
            f"{self.queries} queries, {self.cache_hits} exact hits, "
            f"{self.bound_hits} bound hits, {self.cache_misses} misses; "
            f"{self.entries} entries ({self.cached_rows} rows) cached, "
            f"{self.invalidated} invalidated, {self.evicted} evicted"
        )


class MiningSession:
    """A stateful facade for repeated mining over one database.

    Args:
        db: the database every flock runs against.  Mutate it through
            ``session.db`` (``add``/``remove``) — the version counters
            it bumps are what keeps the cache honest.
        max_cache_rows / max_cache_entries: LRU bounds for the result
            cache (ignored when ``cache`` is passed).
        cache: share a pre-built :class:`ResultCache` across sessions.
        budget / cancel: session-wide defaults applied to every
            :meth:`mine` call that does not pass its own.
        persist_path: SQLite file that exact cache entries are written
            through to and restored from, surviving the process.
        **defaults: session-wide
            :class:`~repro.flocks.options.MiningOptions` fields every
            :meth:`mine` call inherits unless it passes its own —
            ``backend``, ``parallelism``, ``retry``, ``checkpoint``
            (a per-call field such as ``strategy`` or ``resume`` is a
            ``TypeError`` here).  Kept as :attr:`defaults`.
    """

    #: Lock discipline, proven by ``repro.analysis.conlint``: the serve
    #: layer drives one session from many worker threads, so the
    #: session's own counters only move under ``_counter_lock`` (the
    #: cache locks itself).  Lock order: ``MiningSession._counter_lock``
    #: may be held while taking ``ResultCache._lock`` (stats), never the
    #: reverse — the cache calls back into nothing.
    GUARDED = {"queries": "_counter_lock"}

    def __init__(
        self,
        db: Database,
        *,
        cache: ResultCache | None = None,
        max_cache_rows: int | None = 100_000,
        max_cache_entries: int | None = 64,
        budget: ResourceBudget | None = None,
        cancel: CancellationToken | None = None,
        persist_path: str | None = None,
        **defaults: Any,
    ) -> None:
        per_call = defaults.keys() & PER_CALL_FIELDS
        if per_call:
            raise TypeError(
                f"{min(per_call)!r} is a per-call option, not a session "
                "default; pass it to mine()"
            )
        self.db = db
        self.cache = cache if cache is not None else ResultCache(
            max_rows=max_cache_rows, max_entries=max_cache_entries
        )
        self.budget = budget
        self.cancel = cancel
        self.defaults = MiningOptions(**defaults)
        self.queries = 0
        # The serve layer drives one session from many worker threads;
        # the cache locks itself, this lock covers the session's own
        # counters.
        self._counter_lock = threading.Lock()
        self._store: CheckpointStore | None = None
        if persist_path is not None:
            self._store = CheckpointStore(persist_path)
            self.cache.on_drop(self._forget_entries)
            self._restore_persisted()

    # ------------------------------------------------------------------
    # The front door
    # ------------------------------------------------------------------

    def mine(
        self,
        flock: QueryFlock,
        strategy: str | None = None,
        *,
        budget: ResourceBudget | None = None,
        cancel: CancellationToken | None = None,
        guard: GuardLike = None,
        options: MiningOptions | None = None,
        **overrides: Any,
    ) -> "tuple[Relation, MiningReport]":
        """Evaluate a flock with full cache participation; returns
        ``(relation, MiningReport)`` exactly like
        :func:`repro.flocks.mining.mine` (which this delegates to,
        passing ``session=self``).  ``options`` replaces the session's
        :attr:`defaults` for this call; ``strategy`` and any other
        option field passed by keyword override either."""
        from ..flocks.mining import mine

        with self._counter_lock:
            self.queries += 1
        if guard is None and budget is None and cancel is None:
            budget, cancel = self.budget, self.cancel
        return mine(
            self.db,
            flock,
            budget=budget,
            cancel=cancel,
            guard=guard,
            session=self,
            options=(options or self.defaults).over(
                strategy=strategy, **overrides
            ),
        )

    # ------------------------------------------------------------------
    # Cache interface (used by mining.mine)
    # ------------------------------------------------------------------

    def invalidate_stale(self) -> int:
        """Drop entries whose base relations were mutated; exact, per
        entry.  Called before every lookup; also useful directly after
        bulk loads."""
        return self.cache.invalidate_stale(self.db.version)

    def lookup(
        self, flock: QueryFlock
    ) -> tuple[CachedResult, Relation] | None:
        """An exact cached answer for this flock, or None.

        A hit requires an alpha-equivalent query and a stored filter the
        request implies (equal signature, stricter-or-equal thresholds);
        the stored aggregates are re-filtered at the requested
        thresholds, so the relation returned is *the* answer."""
        if not flock.filter.is_monotone:
            return None
        self.invalidate_stale()
        entry = self.cache.find_exact(flock.query, flock.filter)
        if entry is None:
            return None
        return entry, self.cache.serve_exact(entry, flock.filter)

    def sink(self, flock: QueryFlock) -> SessionSink:
        """A fresh per-call sink for this flock."""
        return SessionSink(self, flock)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @locked("_counter_lock")
    def stats(self) -> SessionStats:
        # Holding _counter_lock while the cache takes its own lock is
        # the declared lock order (session → cache); the cache never
        # calls back into the session, so the order is acyclic — and
        # conlint's lock-order graph proves it stays that way.
        cache_stats = self.cache.stats_snapshot()
        return SessionStats(
            queries=self.queries,
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            bound_hits=cache_stats.bound_hits,
            invalidated=cache_stats.invalidated,
            evicted=cache_stats.evicted,
            entries=len(self.cache),
            cached_rows=self.cache.total_rows(),
        )

    def close(self) -> None:
        """Close the ``persist_path`` store, if any."""
        if self._store is not None:
            self.cache.remove_drop_listener(self._forget_entries)
            self._store.close()
            self._store = None

    def __enter__(self) -> "MiningSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _persist_entry(self, entry: CachedResult) -> None:
        """Write one exact entry through to the store, replacing the
        record of the same (query, filter)."""
        if self._store is None:
            return
        metadata = {
            "query": str(entry.query),
            "filter": str(entry.filter),
            "param_columns": list(entry.param_columns),
            "source_rows": entry.source_rows,
            "base_cards": {
                name: len(self.db.get(name))
                for name in entry.versions
                if name in self.db
            },
        }
        try:
            self._store.put(_store_key(entry), metadata, entry.relation)
        except ReproError:
            # Persistence is an optimization; a full disk or locked file
            # must not fail the mining call that triggered it.
            pass

    def _forget_entries(self, entries: list[CachedResult]) -> None:
        """The cache's drop listener: delete the records of the exact
        entries it evicted, invalidated or replaced, so the store holds
        what the cache holds and a restore adopts nothing it dropped."""
        store = self._store
        keys = [_store_key(e) for e in entries if e.kind == KIND_AGGREGATES]
        if store is None or not keys:
            return
        try:
            store.delete(keys)
        except ReproError:
            pass  # as in _persist_entry: the mining call must not fail

    def _restore_persisted(self) -> None:
        """Adopt persisted entries whose source relations still match,
        and delete every record not adopted.

        Version counters are process-local, so the cross-process
        staleness screen compares each base relation's *cardinality*
        with the recorded one; survivors are adopted under the current
        versions.  (A same-cardinality edit defeats the screen — callers
        who mutate data between processes should clear the file.)  A
        record whose cardinalities do not match, that does not parse, or
        that the cache declines (a weaker entry of its slot came first)
        is deleted, so no later session re-reads it.
        """
        from ..datalog.parser import parse_query

        store = self._store
        assert store is not None
        try:
            persisted = store.records("cache")
        except Exception:
            return
        stale = []
        for key, metadata, relation in persisted:
            cards = metadata.get("base_cards", {})
            if not cards or relation is None or not all(
                name in self.db and len(self.db.get(name)) == card
                for name, card in cards.items()
            ):
                stale.append(key)
                continue
            try:
                query = parse_query(metadata["query"])
                filter_ = parse_filter(metadata["filter"])
            except Exception:
                stale.append(key)
                continue
            adopted = self.cache.put(
                query,
                filter_,
                KIND_AGGREGATES,
                relation,
                self.db.versions(query_relations(query)),
                int(metadata.get("source_rows", 0)),
                metadata.get("param_columns", []),
            )
            if adopted is None:
                stale.append(key)
        if stale:
            try:
                store.delete(stale)
            except ReproError:
                pass  # as in _persist_entry: opening must not fail


def _store_key(entry: CachedResult) -> list:
    """The store key of one exact cache entry."""
    return ["cache", canonical_key(entry.query), str(entry.filter)]
