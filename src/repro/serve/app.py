"""Mining-as-a-service: the asyncio HTTP/JSON front door.

The paper frames query flocks as a facility a DBMS should *offer* — "a
la carte" mining living inside a long-running service, not a batch
script.  This module is that daemon: one process-wide
:class:`~repro.session.MiningSession` (hence one shared
containment-aware result cache) multiplexed across many concurrent
clients, with per-tenant admission control
(:mod:`repro.serve.tenants`), Prometheus metrics
(:mod:`repro.serve.metrics`), and cancellation wired from client
disconnect into the guard machinery.

Endpoints (all JSON unless noted):

=============================  ========================================
``POST /v1/mine``              flock text (+ threshold/strategy/budget
                               options) → rows + MiningReport JSON
``GET /v1/runs/{run_id}``      status of one mining run (in-memory
                               registry, merged with the checkpoint
                               store's manifest when one exists)
``POST /v1/data``              load/append a relation; bumps catalog
                               versions so cache invalidation is exact
``GET /healthz``               liveness + session/queue statistics
``GET /metrics``               Prometheus text exposition
=============================  ========================================

Two layers, deliberately separable:

* :class:`MiningService` — transport-independent request handlers over
  the session/dispatcher/metrics; unit tests drive it directly;
* :class:`MiningServer` — a minimal HTTP/1.1 server on
  ``asyncio.start_server`` (stdlib only).  Mining runs on the
  dispatcher's worker threads; the event loop only parses requests and
  streams responses, and watches each connection for early EOF so an
  abandoned request cancels its evaluation instead of finishing for
  nobody.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Iterator, Optional

from ..concurrency import blocking
from ..errors import (
    BudgetExceededError,
    ExecutionAborted,
    ExecutionCancelled,
    ReproError,
)
from ..flocks.flock import QueryFlock, parse_flock
from ..flocks.options import WIRE_FIELDS, MiningOptions
from ..guard import CancellationToken, ResourceBudget
from ..recovery import CheckpointStore, new_run_id
from ..relational.catalog import Database
from ..relational.relation import Relation
from ..session import MiningSession, with_support_threshold
from .metrics import MetricsRegistry
from .tenants import AdmissionError, FairDispatcher, TenantPolicy

#: Tenant assumed when a request names none.
DEFAULT_TENANT = "default"

#: Every key a ``POST /v1/mine`` body may carry; any other is a 400.
MINE_KEYS = frozenset({
    "flock", "threshold", "timeout", "max_rows", "max_answer_rows",
    "limit", "tenant", *WIRE_FIELDS,
})

#: Registry keeps the most recent runs' records (bounded memory).
RUN_HISTORY_LIMIT = 1024

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    499: "Client Closed Request",
    500: "Internal Server Error",
}


@dataclass(frozen=True)
class ServerConfig:
    """Everything one ``repro serve`` process is configured with.

    Attributes:
        host / port: bind address (``port=0`` picks a free port).
        workers: dispatcher worker threads — the number of mining calls
            in flight at once (each call may itself use the parallel
            engine's process pool via ``parallelism``).
        tenant_budget: per-request resource cap applied to every tenant
            (requests clamp to it; they can tighten, never loosen).
        max_queued_per_tenant: bounded queue per tenant; beyond it,
            admission fails with HTTP 429.
        cache_entries / cache_rows: shared result-cache LRU bounds.
        backend / strategy / parallelism:
            per-call defaults a request's payload overrides — the
            :class:`~repro.flocks.options.MiningOptions` fields of those
            names, collected (and validated) as :attr:`defaults`.
        checkpoint_path: arm ``POST /v1/mine`` ``{"checkpoint": true}``
            durability — each such run writes its step checkpoints and
            manifest to this SQLite file, and ``GET /v1/runs/{id}``
            reports manifest progress for it.
        max_response_rows: hard cap on rows returned per response
            (clients page with ``limit``).
    """

    host: str = "127.0.0.1"
    port: int = 8321
    workers: int = 2
    tenant_budget: Optional[ResourceBudget] = None
    max_queued_per_tenant: int = 16
    cache_entries: Optional[int] = 256
    cache_rows: Optional[int] = 500_000
    backend: str = MiningOptions.backend
    strategy: str = MiningOptions.strategy
    parallelism: Optional[int] = MiningOptions.parallelism
    checkpoint_path: Optional[str] = None
    max_response_rows: int = 10_000
    defaults: MiningOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "defaults", MiningOptions.from_args(self))
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


class HttpError(ReproError):
    """An error with a definite HTTP status (raised by handlers)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class RunRecord:
    """One mining request's lifecycle in the in-memory registry."""

    run_id: str
    tenant: str
    status: str  # queued | running | complete | aborted | failed | rejected
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    checkpointed: bool = False
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data: dict[str, Any] = {
            "run_id": self.run_id,
            "tenant": self.tenant,
            "status": self.status,
            "submitted_unix": self.submitted_at,
        }
        if self.started_at is not None:
            data["started_unix"] = self.started_at
        if self.finished_at is not None:
            data["finished_unix"] = self.finished_at
            data["seconds"] = self.finished_at - (
                self.started_at or self.submitted_at
            )
        if self.error is not None:
            data["error"] = self.error
        if self.checkpointed:
            data["checkpointed"] = True
        if self.summary:
            data["summary"] = self.summary
        return data


class RunRegistry:
    """Thread-safe, bounded map of run_id → :class:`RunRecord`."""

    #: Lock discipline, proven by ``repro.analysis.conlint``.  Records
    #: are mutated in place by worker threads and done-callbacks, so
    #: *reads that render a record* must also happen under the lock —
    #: use :meth:`snapshot`, not ``get().to_dict()``.
    GUARDED = {"_runs": "_lock", "_order": "_lock"}

    def __init__(self, limit: int = RUN_HISTORY_LIMIT) -> None:
        self._lock = threading.Lock()
        self._runs: dict[str, RunRecord] = {}
        self._order: list[str] = []
        self._limit = limit

    def create(
        self, run_id: str, tenant: str, checkpointed: bool = False
    ) -> RunRecord:
        record = RunRecord(
            run_id=run_id,
            tenant=tenant,
            status="queued",
            submitted_at=time.time(),
            checkpointed=checkpointed,
        )
        with self._lock:
            if run_id not in self._runs:
                self._order.append(run_id)
            self._runs[run_id] = record
            while len(self._order) > self._limit:
                evicted = self._order.pop(0)
                self._runs.pop(evicted, None)
        return record

    def mark_running(self, run_id: str) -> None:
        with self._lock:
            record = self._runs.get(run_id)
            if record is not None:
                record.status = "running"
                record.started_at = time.time()

    def finish(
        self,
        run_id: str,
        status: str,
        error: Optional[str] = None,
        summary: Optional[dict] = None,
    ) -> None:
        with self._lock:
            record = self._runs.get(run_id)
            if record is None:
                return
            record.status = status
            record.finished_at = time.time()
            record.error = error
            if summary:
                record.summary = summary

    def get(self, run_id: str) -> RunRecord | None:
        with self._lock:
            return self._runs.get(run_id)

    def snapshot(self, run_id: str) -> dict | None:
        """The record rendered to a dict *under the lock* — the status
        and its timestamps are mutated together by the done-callback, so
        rendering outside the lock can see a torn record (a "complete"
        status without its ``finished_unix``)."""
        with self._lock:
            record = self._runs.get(run_id)
            return record.to_dict() if record is not None else None

    def counts(self) -> dict[str, int]:
        with self._lock:
            counts: dict[str, int] = {}
            for record in self._runs.values():
                counts[record.status] = counts.get(record.status, 0) + 1
            return counts

    def records(self) -> list[RunRecord]:
        """All retained records, oldest first."""
        with self._lock:
            return [self._runs[run_id] for run_id in self._order]


@dataclass
class _MineRequest:
    """A validated ``POST /v1/mine`` payload, ready to execute."""

    flock: QueryFlock
    options: MiningOptions
    budget: ResourceBudget
    limit: int
    run_id: str


class MiningService:
    """Transport-independent handlers over one shared mining session.

    One instance per server process: it owns the
    :class:`~repro.session.MiningSession` (and therefore the shared
    result cache), the :class:`~repro.serve.tenants.FairDispatcher`,
    the :class:`~repro.serve.metrics.MetricsRegistry`, and the run
    registry.  The HTTP layer (or a test) calls the ``handle_*`` /
    ``submit_mine`` methods.
    """

    #: ``_db_lock`` serializes *composite* catalog operations at the
    #: service layer (replace-vs-append read-modify-write in
    #: ``handle_data``, the multi-relation read in ``health``).  Mining
    #: calls read the catalog without it — version counters make those
    #: reads safe (stale entries are invalidated exactly).
    GUARDED = {"db": "_db_lock"}

    def __init__(self, db: Database, config: ServerConfig | None = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.db = db
        self.session = MiningSession(
            db,
            max_cache_entries=self.config.cache_entries,
            max_cache_rows=self.config.cache_rows,
        )
        self.dispatcher = FairDispatcher(
            workers=self.config.workers,
            default_policy=TenantPolicy(
                budget=self.config.tenant_budget,
                max_queued=self.config.max_queued_per_tenant,
            ),
        )
        self.runs = RunRegistry()
        self.started_at = time.time()
        self._db_lock = threading.Lock()

        m = self.metrics = MetricsRegistry()
        self.m_requests = m.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and status code",
            labels=("endpoint", "status"),
        )
        self.m_mine = m.counter(
            "repro_mine_requests_total",
            "Mining requests, by tenant and outcome",
            labels=("tenant", "outcome"),
        )
        self.m_cache_hits = m.counter(
            "repro_cache_hits_total",
            "Mine calls answered entirely from the shared result cache",
        )
        self.m_cache_misses = m.counter(
            "repro_cache_misses_total",
            "Mine calls that had to evaluate (cache miss)",
        )
        self.m_step_hits = m.counter(
            "repro_cache_step_hits_total",
            "Pre-filter plan steps served from the shared cache",
        )
        self.m_rows_saved = m.counter(
            "repro_cache_rows_saved_total",
            "Answer tuples cache hits did not have to recompute",
        )
        self.m_downgrades = m.counter(
            "repro_downgrades_total",
            "Recovery-ladder rungs descended, by kind",
            labels=("kind",),
        )
        self.m_rf_pruned = m.counter(
            "repro_runtime_filter_rows_pruned",
            "Scan rows pruned by injected runtime semi-join filters",
        )
        self.m_latency = m.histogram(
            "repro_mine_seconds",
            "Wall-clock seconds per completed mine request",
        )
        self.m_queue_depth = m.gauge(
            "repro_queue_depth", "Requests waiting for a worker"
        )
        self.m_active = m.gauge(
            "repro_active_requests", "Requests executing right now"
        )
        self.m_cache_entries = m.gauge(
            "repro_cache_entries", "Entries in the shared result cache"
        )
        self.m_cache_rows = m.gauge(
            "repro_cache_rows", "Tuples held by the shared result cache"
        )
        self.m_cache_bytes = m.gauge(
            "repro_cache_bytes",
            "Encoded flat-column bytes held by the shared result cache",
        )
        self.m_data_loads = m.counter(
            "repro_data_loads_total",
            "POST /v1/data relation loads (each bumps catalog versions)",
        )

    # ------------------------------------------------------------------
    # POST /v1/mine
    # ------------------------------------------------------------------

    def _parse_mine(self, payload: dict) -> _MineRequest:
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        unknown = payload.keys() - MINE_KEYS
        if unknown:
            raise HttpError(
                400,
                f"{min(unknown)!r} is not a /v1/mine key; "
                f"accepted: {', '.join(sorted(MINE_KEYS))}",
            )
        text = payload.get("flock")
        if not isinstance(text, str) or not text.strip():
            raise HttpError(400, "missing required field 'flock' (text)")
        flock = parse_flock(text)
        threshold = _json_number(payload, "threshold")
        if threshold is not None:
            flock = with_support_threshold(flock, threshold)
        options = MiningOptions.from_json(
            payload, self.config.defaults, self.config.checkpoint_path
        )
        budget = ResourceBudget(
            seconds=_json_number(payload, "timeout"),
            max_intermediate_rows=_json_integer(payload, "max_rows"),
            max_answer_rows=_json_integer(payload, "max_answer_rows"),
        )
        limit = _json_integer(payload, "limit")
        if limit is None:
            limit = self.config.max_response_rows
        elif limit < 0:
            raise HttpError(400, "'limit' must be a non-negative integer")
        run_id = options.resume or new_run_id()
        if options.checkpoint is not None:
            options = options.over(run_id=run_id)
        return _MineRequest(
            flock=flock,
            options=options,
            budget=budget,
            limit=min(limit, self.config.max_response_rows),
            run_id=run_id,
        )

    def submit_mine(
        self,
        payload: dict,
        tenant: str = DEFAULT_TENANT,
        cancel: Optional[CancellationToken] = None,
    ) -> tuple[str, "asyncio.Future[dict] | Any"]:
        """Validate, admit, and enqueue one mining request.

        Returns ``(run_id, future)``; the future resolves to the JSON
        response dict.  Raises :class:`HttpError` on a bad payload and
        :class:`~repro.serve.tenants.AdmissionError` when the tenant's
        queue is full.  All outcome accounting (registry + metrics)
        happens exactly once, in the future's done-callback — whether
        the job ran, failed, or was dropped while queued.
        """
        try:
            request = self._parse_mine(payload)
        except (ReproError, ValueError) as error:
            # ValueError: an invalid option combination or budget.
            self.m_mine.inc(tenant=tenant, outcome="invalid")
            if isinstance(error, HttpError):
                raise
            raise HttpError(400, str(error)) from error
        self.runs.create(run_id=request.run_id, tenant=tenant,
                         checkpointed=request.options.checkpoint is not None)

        def job() -> dict:
            self.runs.mark_running(request.run_id)
            self.m_active.inc()
            try:
                return self._execute_mine(request, tenant, cancel)
            finally:
                self.m_active.dec()

        try:
            future = self.dispatcher.submit(tenant, job, cancel=cancel)
        except AdmissionError:
            self.runs.finish(
                request.run_id, "rejected", error="tenant queue full"
            )
            self.m_mine.inc(tenant=tenant, outcome="rejected")
            raise
        future.add_done_callback(
            lambda f: self._finalize(request.run_id, tenant, f)
        )
        return request.run_id, future

    def _execute_mine(
        self,
        request: _MineRequest,
        tenant: str,
        cancel: Optional[CancellationToken],
    ) -> dict:
        """Runs on a dispatcher worker thread."""
        policy = self.dispatcher.policy(tenant)
        budget = policy.effective_budget(request.budget)
        started = time.perf_counter()
        relation, report = self.session.mine(
            request.flock, budget=budget, cancel=cancel,
            options=request.options,
        )
        seconds = time.perf_counter() - started
        rows = sorted(relation.tuples, key=repr)
        truncated = len(rows) > request.limit
        return {
            "run_id": request.run_id,
            "status": "complete",
            "columns": list(relation.columns),
            "rows": [list(row) for row in rows[: request.limit]],
            "row_count": len(relation),
            "truncated": truncated,
            "seconds": seconds,
            "report": report.to_dict(),
        }

    def _finalize(self, run_id: str, tenant: str, future: Any) -> None:
        """Done-callback: single point of truth for outcome accounting."""
        error = future.exception()
        if error is None:
            result = future.result()
            report = result.get("report", {})
            self.runs.finish(
                run_id,
                "complete",
                summary={
                    "strategy_used": report.get("strategy_used"),
                    "row_count": result.get("row_count"),
                    "seconds": result.get("seconds"),
                    "cache_hits": report.get("cache_hits"),
                    "cache_step_hits": report.get("cache_step_hits"),
                },
            )
            self.m_mine.inc(tenant=tenant, outcome="complete")
            self.m_latency.observe(result.get("seconds", 0.0))
            self.m_cache_hits.inc(report.get("cache_hits", 0))
            self.m_cache_misses.inc(report.get("cache_misses", 0))
            self.m_step_hits.inc(report.get("cache_step_hits", 0))
            self.m_rows_saved.inc(report.get("rows_saved", 0))
            self.m_rf_pruned.inc(
                report.get("runtime_filter_rows_pruned", 0)
            )
            for downgrade in report.get("downgrades", ()):
                self.m_downgrades.inc(kind=downgrade.get("kind", "unknown"))
        elif isinstance(error, ExecutionAborted):
            self.runs.finish(run_id, "aborted", error=_one_line(error))
            self.m_mine.inc(tenant=tenant, outcome="aborted")
        else:
            self.runs.finish(run_id, "failed", error=_one_line(error))
            self.m_mine.inc(tenant=tenant, outcome="failed")

    # ------------------------------------------------------------------
    # POST /v1/data
    # ------------------------------------------------------------------

    def handle_data(self, payload: dict) -> dict:
        """Load or append one relation; bumps its catalog version so
        every cache entry derived from it is invalidated exactly."""
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        name = payload.get("name")
        if not isinstance(name, str) or not name.isidentifier():
            raise HttpError(400, "'name' must be an identifier string")
        columns = payload.get("columns")
        rows = payload.get("rows")
        if not isinstance(columns, list) or not all(
            isinstance(c, str) for c in columns
        ):
            raise HttpError(400, "'columns' must be a list of strings")
        if not isinstance(rows, list):
            raise HttpError(400, "'rows' must be a list of rows")
        mode = payload.get("mode", "replace")
        if mode not in ("replace", "append"):
            raise HttpError(400, "'mode' must be 'replace' or 'append'")
        tuples = _json_rows(rows)
        with self._db_lock:
            if mode == "append" and name in self.db:
                existing = self.db.get(name)
                if tuple(existing.columns) != tuple(columns):
                    raise HttpError(
                        400,
                        f"append columns {tuple(columns)} do not match "
                        f"existing {existing.columns}",
                    )
                merged = set(existing.tuples) | set(tuples)
                relation = Relation(name, columns, merged)
            else:
                try:
                    relation = Relation(name, columns, tuples)
                except ReproError as error:
                    raise HttpError(400, str(error)) from error
            self.db.add(relation)
            version = self.db.version(name)
        invalidated = self.session.invalidate_stale()
        self.m_data_loads.inc()
        return {
            "name": name,
            "rows": len(relation),
            "version": version,
            "mode": mode,
            "cache_entries_invalidated": invalidated,
        }

    # ------------------------------------------------------------------
    # GET /v1/runs/{run_id}
    # ------------------------------------------------------------------

    @blocking
    def run_status(self, run_id: str) -> dict:
        """In-memory run record merged with the checkpoint manifest.

        ``@blocking``: opens the checkpoint store (synchronous SQLite),
        so the HTTP layer dispatches this through ``asyncio.to_thread``.
        """
        data = self.runs.snapshot(run_id)
        manifest_status = None
        if self.config.checkpoint_path is not None:
            # A fresh store per probe: status probes are rare and
            # cheap, and a probe never holds the store open.
            try:
                with CheckpointStore(self.config.checkpoint_path) as store:
                    manifest_status = store.run_status(run_id)
            except ReproError:
                manifest_status = None
        if data is None and manifest_status is None:
            raise HttpError(404, f"unknown run {run_id!r}")
        if data is None:
            data = {"run_id": run_id, "status": manifest_status["status"]}
        if manifest_status is not None:
            data["checkpoint"] = manifest_status
        return data

    # ------------------------------------------------------------------
    # GET /healthz and /metrics
    # ------------------------------------------------------------------

    def health(self) -> dict:
        stats = self.session.stats()
        p50 = self.m_latency.quantile(0.50)
        p99 = self.m_latency.quantile(0.99)
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "workers": len(self.dispatcher._threads),
            "queue_depth": self.dispatcher.queue_depth(),
            "active": self.dispatcher.active(),
            "runs": self.runs.counts(),
            "session": {
                "queries": stats.queries,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "bound_hits": stats.bound_hits,
                "entries": stats.entries,
                "cached_rows": stats.cached_rows,
                "invalidated": stats.invalidated,
                "evicted": stats.evicted,
            },
            "latency": {
                "p50_ms": None if p50 is None else p50 * 1e3,
                "p99_ms": None if p99 is None else p99 * 1e3,
            },
            "tenants": self.dispatcher.tenant_stats(),
            "relations": self._relation_sizes(),
        }

    def _relation_sizes(self) -> dict[str, int]:
        # Under _db_lock so a concurrent handle_data replace cannot make
        # names() and get() disagree mid-comprehension.
        with self._db_lock:
            return {
                name: len(self.db.get(name)) for name in self.db.names()
            }

    def metrics_text(self) -> str:
        # Refresh the sampled gauges at scrape time.
        self.m_queue_depth.set(self.dispatcher.queue_depth())
        self.m_cache_entries.set(len(self.session.cache))
        self.m_cache_rows.set(self.session.cache.total_rows())
        self.m_cache_bytes.set(self.session.cache.total_bytes())
        return self.metrics.render()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self.dispatcher.close()
        self.session.close()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _json_number(payload: dict, key: str) -> int | float | None:
    """``payload[key]`` when it is a JSON number (``true`` is not one),
    ``None`` when absent; 400 otherwise."""
    value = payload.get(key)
    if value is not None and type(value) not in (int, float):
        raise HttpError(400, f"{key!r} must be a number")
    return value


def _json_integer(payload: dict, key: str) -> int | None:
    """:func:`_json_number` for an integral key (``2.0`` is 2; ``2.7`` is 400)."""
    value = _json_number(payload, key)
    if isinstance(value, float):
        if not value.is_integer():
            raise HttpError(400, f"{key!r} must be an integer")
        return int(value)
    return value


#: The Python types ``json.loads`` gives a JSON scalar.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_rows(rows: list) -> list[tuple]:
    """The request's rows as tuples: each row a JSON array whose cells
    are strings, numbers, booleans or null (else 400 naming the row).
    The common all-valid case is checked in bulk, at C speed."""
    if set(map(type, rows)) <= {list} and _JSON_SCALARS.issuperset(
        map(type, chain.from_iterable(rows))
    ):
        return list(map(tuple, rows))
    index = next(
        i for i, row in enumerate(rows)
        if type(row) is not list
        or not _JSON_SCALARS.issuperset(map(type, row))
    )
    raise HttpError(
        400,
        f"row {index} must be an array of strings, numbers, booleans "
        "or nulls",
    )


def _one_line(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}".split("\n")[0]


# ======================================================================
# The asyncio HTTP layer
# ======================================================================


@dataclass
class _Request:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except json.JSONDecodeError as error:
            raise HttpError(400, f"invalid JSON body: {error}") from None
        if not isinstance(data, dict):
            raise HttpError(400, "JSON body must be an object")
        return data


class MiningServer:
    """HTTP/1.1 on ``asyncio.start_server``, one request per connection.

    ``Connection: close`` semantics keep disconnect detection simple:
    after the request is read, any further read on the socket resolves
    only at EOF — i.e. the client hung up — which is exactly the signal
    that cancels an in-flight mining call.
    """

    def __init__(
        self,
        service: MiningService,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        self.service = service
        self.host = host if host is not None else service.config.host
        self.port = port if port is not None else service.config.port
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request plumbing ----------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _Request | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except asyncio.LimitOverrunError:
            raise HttpError(413, "request head too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes is too large")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return _Request(method=method, path=path, headers=headers, body=body)

    @staticmethod
    def _encode_response(
        status: int, body: bytes, content_type: str
    ) -> bytes:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + body

    @staticmethod
    def _json_response(status: int, payload: dict) -> tuple[int, bytes, str]:
        body = json.dumps(payload).encode("utf-8")
        return status, body, "application/json"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        endpoint = "unknown"
        try:
            try:
                request = await self._read_request(reader)
            except HttpError as error:
                await self._write(
                    writer,
                    *self._json_response(
                        error.status, {"error": str(error)}
                    ),
                )
                return
            if request is None:  # client vanished before sending anything
                return
            endpoint = self._endpoint_label(request)
            try:
                response = await self._route(request, reader)
            except HttpError as error:
                response = self._json_response(
                    error.status, {"error": str(error)}
                )
            except AdmissionError as error:
                response = self._json_response(
                    429,
                    {
                        "error": str(error),
                        "tenant": error.tenant,
                        "limit": error.limit,
                    },
                )
            except ReproError as error:
                response = self._json_response(400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 - last-resort boundary
                response = self._json_response(
                    500, {"error": _one_line(error)}
                )
            if response is None:
                # Client disconnected mid-mine; nothing left to write.
                self.service.m_requests.inc(
                    endpoint=endpoint, status="499"
                )
                return
            status, body, content_type = response
            self.service.m_requests.inc(
                endpoint=endpoint, status=str(status)
            )
            await self._write(writer, status, body, content_type)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        try:
            writer.write(self._encode_response(status, body, content_type))
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    @staticmethod
    def _endpoint_label(request: _Request) -> str:
        if request.path.startswith("/v1/runs/"):
            return "/v1/runs/{run_id}"
        return request.path

    # -- routing --------------------------------------------------------

    async def _route(
        self, request: _Request, reader: asyncio.StreamReader
    ) -> tuple[int, bytes, str] | None:
        service = self.service
        if request.path == "/healthz":
            if request.method != "GET":
                raise HttpError(405, "use GET")
            return self._json_response(200, service.health())
        if request.path == "/metrics":
            if request.method != "GET":
                raise HttpError(405, "use GET")
            body = service.metrics_text().encode("utf-8")
            return 200, body, "text/plain; version=0.0.4; charset=utf-8"
        if request.path == "/v1/mine":
            if request.method != "POST":
                raise HttpError(405, "use POST")
            return await self._route_mine(request, reader)
        if request.path == "/v1/data":
            if request.method != "POST":
                raise HttpError(405, "use POST")
            return self._json_response(
                200, service.handle_data(request.json())
            )
        if request.path.startswith("/v1/runs/"):
            if request.method != "GET":
                raise HttpError(405, "use GET")
            run_id = request.path[len("/v1/runs/"):]
            # run_status is @blocking (synchronous SQLite manifest
            # probe): it must not run on the event loop.
            status = await asyncio.to_thread(service.run_status, run_id)
            return self._json_response(200, status)
        raise HttpError(404, f"no route for {request.method} {request.path}")

    async def _route_mine(
        self, request: _Request, reader: asyncio.StreamReader
    ) -> tuple[int, bytes, str] | None:
        payload = request.json()
        tenant = payload.get("tenant") or request.headers.get(
            "x-repro-tenant", DEFAULT_TENANT
        )
        if not isinstance(tenant, str) or not tenant:
            raise HttpError(400, "'tenant' must be a non-empty string")
        cancel = CancellationToken()
        run_id, future = self.service.submit_mine(
            payload, tenant=tenant, cancel=cancel
        )
        job = asyncio.ensure_future(asyncio.wrap_future(future))
        watchdog = asyncio.ensure_future(reader.read(1))
        try:
            while True:
                done, _pending = await asyncio.wait(
                    {job, watchdog}, return_when=asyncio.FIRST_COMPLETED
                )
                if job in done:
                    break
                # The connection watcher fired first.  EOF means the
                # client hung up: cancel the evaluation and wait for the
                # clean abort.  Stray pipelined bytes just re-arm it.
                data = watchdog.result()
                if data == b"":
                    cancel.cancel()
                    try:
                        await job
                    except BaseException:  # noqa: BLE001 - recorded by _finalize
                        pass
                    return None
                watchdog = asyncio.ensure_future(reader.read(1))
        finally:
            if not watchdog.done():
                watchdog.cancel()
        try:
            result = job.result()
        except BudgetExceededError as error:
            return self._json_response(
                408,
                {"error": str(error).split("\n")[0], "run_id": run_id,
                 "status": "aborted"},
            )
        except ExecutionCancelled as error:
            return self._json_response(
                499,
                {"error": str(error).split("\n")[0], "run_id": run_id,
                 "status": "aborted"},
            )
        except ReproError as error:
            return self._json_response(
                400,
                {"error": str(error).split("\n")[0], "run_id": run_id,
                 "status": "failed"},
            )
        return self._json_response(200, result)


# ======================================================================
# Entry points
# ======================================================================


def serve_blocking(service: MiningService, *, ready: Callable[[str], None] | None = None) -> None:
    """Run the server on the current thread until interrupted (the
    ``repro serve`` CLI path)."""

    async def main() -> None:
        server = MiningServer(service)
        await server.start()
        if ready is not None:
            ready(server.address)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


@contextmanager
def server_in_thread(
    service: MiningService,
    host: str | None = None,
    port: int | None = 0,
) -> Iterator[MiningServer]:
    """Run a :class:`MiningServer` on a background thread (tests, the
    load benchmark, and notebook use).  Yields the started server —
    ``server.address`` is the base URL — and tears everything down on
    exit (the service included)."""
    loop = asyncio.new_event_loop()
    server = MiningServer(service, host=host, port=port)
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # noqa: BLE001 - surfaced to caller
            failure.append(error)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    thread = threading.Thread(
        target=run, name="repro-serve-loop", daemon=True
    )
    thread.start()
    started.wait(timeout=30)
    if failure:
        raise failure[0]
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        service.close()


__all__ = [
    "DEFAULT_TENANT",
    "HttpError",
    "MiningServer",
    "MiningService",
    "RunRecord",
    "RunRegistry",
    "ServerConfig",
    "serve_blocking",
    "server_in_thread",
]
