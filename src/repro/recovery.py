"""Fault-tolerant mining: retry policies and step checkpoint–resume.

A query flock is a long-running query: the paper's own deployment model
("a la carte" mining inside a DBMS, Section 1.4) and the interactive
session layer both assume evaluations that run for minutes and are too
expensive to throw away on the first transient fault.  This module is
the recovery substrate :func:`repro.flocks.mining.mine` builds on:

* :class:`RetryPolicy` — deadline-aware exponential backoff with seeded
  jitter, plus the transient/fatal **error classifier** every retry
  loop in the system shares (the SQLite statement retry of
  :func:`run_statement`, the per-step retry in the plan executor, and
  the parallel executor's partition salvage all consult the same
  :meth:`RetryPolicy.classify`);
* :class:`RetrySupervisor` — the live retry loop one evaluation
  carries: it owns the jitter RNG, clamps every backoff sleep to the
  guard's remaining budget (a retry sleep must never outlive the
  deadline it is trying to save), and records a :class:`RetryEvent`
  per retried site so :class:`~repro.flocks.mining.MiningReport` can
  show the attempt counts;
* :class:`CheckpointStore` / :class:`CheckpointRecorder` — durability:
  one SQLite file holding one keyed table of relations.  After each
  FILTER step completes, its survivor set is written there together
  with a :class:`RunManifest` (canonical flock key, plan fingerprint,
  completed steps, base-relation cardinalities), so
  ``mine(checkpoint=..., resume=run_id)`` re-executes only the steps a
  crashed or cancelled run did not finish; a
  :class:`~repro.session.MiningSession` with ``persist_path`` writes
  its exact cache entries through to the same table.

The escalation ladder (every rung recorded in the report)::

    retry the step            (transient fault, backoff, same plan)
      -> re-run failed partitions serially   (parallel executor)
        -> backend / strategy downgrade      (mine's degradation)
          -> abort with a partial trace      (guard or fatal error)

Checkpointing rides below the ladder: whatever rung finally completes a
step, the completed step's survivors are durable, and an abort at any
rung leaves a manifest a later ``resume=`` can pick up.
"""

from __future__ import annotations

import hashlib
import json
import random
import sqlite3
import threading
import time
import uuid
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .concurrency import blocking, locked
from .errors import EvaluationError, ExecutionAborted, ReproError, ResumeError
from .guard import ExecutionGuard
from .testing.faults import WorkerKill, trip

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flocks.flock import QueryFlock
    from .flocks.plans import QueryPlan
    from .relational.catalog import Database
    from .relational.relation import Relation


class TransientFault(ReproError):
    """An explicitly transient failure: safe to retry as-is.

    Raised by infrastructure that knows the failure is momentary (and
    by the chaos harness, which injects it at every instrumented site
    to drive the retry rungs deterministically).
    """


#: Substrings marking a retryable sqlite3.OperationalError.
TRANSIENT_SQLITE_MARKERS = ("locked", "busy")


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry behaviour: how often, how long, and *what*.

    Attributes:
        max_attempts: total tries per protected call (1 = no retry).
        base_delay: backoff before the first retry; doubles per attempt.
        max_delay: cap on any single backoff sleep.
        jitter: +/- fraction of the computed delay randomized per sleep
            (decorrelates retry storms across workers).
        seed: seeds the jitter RNG of every supervisor built from this
            policy — chaos schedules pass their own seed so a failing
            run replays byte for byte.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 0.25
    jitter: float = 0.25
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    # -- classification -------------------------------------------------

    def classify(self, error: BaseException) -> str:
        """``"transient"`` (retry may help) or ``"fatal"`` (escalate).

        Guard aborts are always fatal: a budget or cancellation is a
        user decision, not a fault.  Transient by construction:
        :class:`TransientFault`, a killed worker / broken process pool
        (the pool rebuilds), and SQLite ``locked``/``busy``.
        """
        if isinstance(error, ExecutionAborted):
            return "fatal"
        if isinstance(error, (TransientFault, WorkerKill, BrokenProcessPool)):
            return "transient"
        if isinstance(error, sqlite3.OperationalError):
            message = str(error).lower()
            if any(marker in message for marker in TRANSIENT_SQLITE_MARKERS):
                return "transient"
        return "fatal"

    def is_transient(self, error: BaseException) -> bool:
        return self.classify(error) == "transient"

    # -- backoff --------------------------------------------------------

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The backoff before retry number ``attempt`` (1-based), with
        jitter when an RNG is supplied."""
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        if rng is not None and self.jitter:
            delay *= 1 + self.jitter * (2 * rng.random() - 1)
        return max(0.0, delay)

    def supervisor(
        self,
        guard: ExecutionGuard | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "RetrySupervisor":
        return RetrySupervisor(self, guard=guard, sleep=sleep)


@dataclass
class RetryEvent:
    """One site's retry history within a single ``mine()`` call."""

    site: str
    attempts: int
    recovered: bool
    error: str

    def __str__(self) -> str:
        outcome = "recovered" if self.recovered else "gave up"
        return (
            f"retry [{self.site}] {outcome} after {self.attempts} "
            f"attempt(s): {self.error}"
        )


class RetrySupervisor:
    """The live retry loop one evaluation threads through its steps.

    One supervisor per ``mine()`` call: it accumulates the call's
    :class:`RetryEvent` log (surfaced as ``kind="retry"`` downgrades in
    the mining report) and clamps every backoff sleep to the guard's
    remaining wall-clock.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        guard: ExecutionGuard | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self.guard = guard
        self.events: list[RetryEvent] = []
        self._rng = random.Random(self.policy.seed)
        self._sleep = sleep
        #: Total sleeps performed (telemetry for the backoff tests).
        self.slept: list[float] = []

    def run(self, fn: Callable[[], object], site: str = "step") -> object:
        """Call ``fn``, retrying transient failures per the policy.

        Fatal errors and guard aborts propagate immediately.  A
        transient failure sleeps (backoff clamped to the guard's
        remaining budget, never past the deadline) and re-calls; when
        the attempts are exhausted the last error propagates and the
        event log records the defeat.
        """
        attempt = 1
        while True:
            try:
                result = fn()
            except BaseException as error:
                if (
                    not self.policy.is_transient(error)
                    or attempt >= self.policy.max_attempts
                ):
                    if attempt > 1 or self.policy.is_transient(error):
                        self.events.append(
                            RetryEvent(
                                site=site,
                                attempts=attempt,
                                recovered=False,
                                error=_one_line(error),
                            )
                        )
                    raise
                self.backoff(attempt, site=site)
                attempt += 1
            else:
                if attempt > 1:
                    self.events.append(
                        RetryEvent(
                            site=site,
                            attempts=attempt,
                            recovered=True,
                            error="",
                        )
                    )
                return result

    def backoff(self, attempt: int, site: str = "step") -> None:
        """Sleep before retry ``attempt`` — checked against the guard
        first (an already-expired deadline aborts instead of sleeping),
        then clamped so the sleep ends at or before the deadline."""
        if self.guard is not None:
            self.guard.checkpoint(node=f"retry:{site}")
        delay = self.policy.delay(attempt, self._rng)
        if self.guard is not None:
            delay = self.guard.clamp_sleep(delay)
        self.slept.append(delay)
        if delay > 0:
            self._sleep(delay)


def _one_line(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}".split("\n")[0].rstrip(": ")


#: The per-statement retry of every SQLite statement: 4 attempts, jitter
#: off so a single connection's backoff schedule stays deterministic.
STATEMENT_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.05, max_delay=0.25, jitter=0.0
)


def run_statement(
    cursor: sqlite3.Cursor,
    statement: str,
    parameters: Sequence | None = None,
    many: bool = False,
    *,
    sleep: Callable[[float], None] = time.sleep,
    guard: ExecutionGuard | None = None,
) -> sqlite3.Cursor:
    """Run one SQLite statement with transient-error retries and wrapping.

    Only a ``locked``/``busy`` :class:`sqlite3.OperationalError` is
    retried here, per :data:`STATEMENT_RETRY`, each backoff sleep
    clamped to ``guard``'s remaining wall-clock; any other
    :mod:`sqlite3` error, a Python int SQLite cannot bind, and exhausted
    retries raise :class:`~repro.errors.EvaluationError` carrying the
    statement.  Everything else — a :class:`TransientFault` included —
    propagates unchanged to the caller's own retry rung.  Every call is
    the ``sqlite.execute`` fault site.
    """
    attempt = 1
    while True:
        try:
            trip("sqlite.execute")
            if many:
                return cursor.executemany(statement, parameters or [])
            if parameters is not None:
                return cursor.execute(statement, parameters)
            return cursor.execute(statement)
        except sqlite3.OperationalError as error:
            if (
                not STATEMENT_RETRY.is_transient(error)
                or attempt >= STATEMENT_RETRY.max_attempts
            ):
                raise EvaluationError(
                    f"SQLite error: {error}", sql=statement
                ) from error
            delay = STATEMENT_RETRY.delay(attempt)
            if guard is not None:
                delay = guard.clamp_sleep(delay)
            attempt += 1
            sleep(delay)
        except (sqlite3.Error, OverflowError) as error:
            raise EvaluationError(
                f"SQLite error: {error}", sql=statement
            ) from error


# ======================================================================
# Step checkpointing
# ======================================================================


#: Manifest schema version — bumped when the layout changes, so a resume
#: never misreads an old file.  Version 2 is the one keyed table; a file
#: written by version 1 (one table per relation) holds no record here.
MANIFEST_VERSION = 2


@dataclass
class RunManifest:
    """The durable identity of one checkpointed mining run.

    ``flock_key`` is the canonical (alpha-equivalence) key of the query
    plus the filter text; ``plan_fingerprint`` hashes the rendered plan.
    Together they guarantee a resume re-executes the
    *same* plan over the *same* flock — anything else is a
    :class:`~repro.errors.ResumeError`.  Cross-process staleness of the
    data is screened by ``base_cards`` (relation cardinalities; version
    counters are process-local) exactly like the session cache's
    persistence.  ``completed`` lists the steps whose survivors are
    durable, in completion order.
    """

    run_id: str
    flock_key: str
    plan_fingerprint: str
    step_names: tuple[str, ...]
    completed: list[str] = field(default_factory=list)
    base_cards: dict[str, int] = field(default_factory=dict)
    status: str = "running"  # "running" | "complete"
    version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "run_id": self.run_id,
            "flock_key": self.flock_key,
            "plan_fingerprint": self.plan_fingerprint,
            "step_names": list(self.step_names),
            "completed": list(self.completed),
            "base_cards": self.base_cards,
            "status": self.status,
        }

    def to_status(self) -> dict:
        """A JSON-able status summary of this run — the shape the serve
        layer's ``GET /v1/runs/{run_id}`` endpoint reports for durable
        (checkpointed) runs: overall status plus per-step progress."""
        return {
            "run_id": self.run_id,
            "status": self.status,
            "steps_total": len(self.step_names),
            "steps_completed": len(self.completed),
            "steps": [
                {"name": name, "completed": name in self.completed}
                for name in self.step_names
            ],
            "base_cards": dict(self.base_cards),
            "plan_fingerprint": self.plan_fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(
            run_id=data["run_id"],
            flock_key=data["flock_key"],
            plan_fingerprint=data["plan_fingerprint"],
            step_names=tuple(data["step_names"]),
            completed=list(data["completed"]),
            base_cards={k: int(v) for k, v in data["base_cards"].items()},
            status=data.get("status", "running"),
            version=int(data.get("version", 0)),
        )


def flock_key(flock: "QueryFlock") -> str:
    """The resume-identity of a flock: canonical query key + filter."""
    from .session.canonical import canonical_key

    return f"{canonical_key(flock.query)} | {flock.filter}"


def plan_fingerprint(flock: "QueryFlock", plan: "QueryPlan") -> str:
    """A stable hash of the plan a run executed — resume validates the
    freshly rebuilt plan against it before trusting any checkpoint."""
    text = plan.render(flock)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


def _record(meta: str, rows: str | None) -> tuple[dict, Relation | None]:
    """Decode one stored ``(meta, rows)`` pair."""
    from .relational.relation import Relation

    data = json.loads(meta)
    if rows is None:
        return data, None
    relation = Relation(
        data["name"], data["columns"], map(tuple, json.loads(rows))
    )
    return data, relation


class CheckpointStore:
    """One SQLite file of durable relations: one keyed table.

    Every record is ``(key, meta, rows)``: ``key`` is a JSON list —
    ``["run", run_id]`` for a :class:`RunManifest`, ``["step", run_id,
    step_name]`` for a completed step's survivors, ``["cache",
    canonical_key, filter]`` for a session's exact cache entry — and
    ``meta`` / ``rows`` are JSON, so no key or value ever reaches SQL
    text and ints of any size round-trip.  Writing a key replaces its
    record.  A store outlives processes — point a new process at the
    same path and ``resume=`` (or a new session) picks up what the last
    one wrote.  One connection serves every thread, under a lock.
    """

    GUARDED = {"_connection": "_lock"}

    _TABLE = "repro_store"

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        # Checkpoint writes happen once per completed FILTER step, on
        # the hot path of the run they protect.  WAL + synchronous=
        # NORMAL drops the per-commit fsync of the main database; the
        # worst a power loss can cost is the most recent step record,
        # and the step-first/manifest-second write order already
        # treats a missing record as "re-execute that step".
        self._sql("PRAGMA journal_mode=WAL")
        self._sql("PRAGMA synchronous=NORMAL")
        self._sql(
            f"CREATE TABLE IF NOT EXISTS {self._TABLE} "
            "(key TEXT PRIMARY KEY, meta TEXT NOT NULL, rows TEXT)"
        )

    # -- lifecycle ------------------------------------------------------

    @locked("_lock")
    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- records --------------------------------------------------------

    @blocking
    @locked("_lock")
    def _sql(
        self, statement: str, parameters: Sequence = (), many: bool = False
    ) -> list:
        """Run one statement (``many``: once per tuple of ``parameters``),
        commit, and return its rows."""
        cursor = self._connection.cursor()
        rows = run_statement(cursor, statement, parameters, many).fetchall()
        self._connection.commit()
        return rows

    @blocking
    def put(self, key: list, meta: dict, relation: Relation | None = None) -> None:
        """Write (or replace) the record at ``key``."""
        rows = None
        if relation is not None:
            meta = {**meta, "name": relation.name, "columns": relation.columns}
            try:
                rows = json.dumps(list(relation.tuples))
            except TypeError as error:
                raise EvaluationError(f"cannot store {key}: {error}") from error
        self._sql(
            f"INSERT OR REPLACE INTO {self._TABLE} VALUES (?, ?, ?)",
            (json.dumps(key), json.dumps(meta), rows),
        )

    @blocking
    def get(self, key: list) -> tuple[dict, Relation | None] | None:
        """``(meta, relation)`` of the record at ``key``, or None."""
        found = self._sql(
            f"SELECT meta, rows FROM {self._TABLE} WHERE key = ?",
            (json.dumps(key),),
        )
        return _record(*found[0]) if found else None

    @blocking
    def delete(self, keys: Sequence[list]) -> None:
        """Delete the records at ``keys`` (a missing key is no error)."""
        self._sql(
            f"DELETE FROM {self._TABLE} WHERE key = ?",
            [(json.dumps(key),) for key in keys],
            many=True,
        )

    @blocking
    def records(self, kind: str) -> list[tuple[list, dict, Relation | None]]:
        """Every ``(key, meta, relation)`` whose key's first element is
        ``kind`` (``"run"``, ``"step"`` or ``"cache"``)."""
        prefix = json.dumps([kind])[:-1] + ","
        found = self._sql(
            f"SELECT key, meta, rows FROM {self._TABLE} "
            "WHERE substr(key, 1, ?) = ?",
            (len(prefix), prefix),
        )
        return [(json.loads(key), *_record(meta, rows)) for key, meta, rows in found]

    # -- manifests ------------------------------------------------------

    @blocking
    def save_manifest(self, manifest: RunManifest) -> None:
        self.put(["run", manifest.run_id], manifest.to_dict())

    @blocking
    def load_manifest(self, run_id: str) -> RunManifest | None:
        found = self.get(["run", run_id])
        return None if found is None else RunManifest.from_dict(found[0])

    @blocking
    def list_runs(self) -> list[RunManifest]:
        return [RunManifest.from_dict(meta) for _, meta, _ in self.records("run")]

    @blocking
    def run_status(self, run_id: str) -> dict | None:
        """The :meth:`RunManifest.to_status` dict for one run, or None
        when the store has no manifest for ``run_id``."""
        manifest = self.load_manifest(run_id)
        if manifest is None:
            return None
        return manifest.to_status()

    @blocking
    def drop_run(self, run_id: str) -> None:
        """Delete one run's manifest and every step record it owns."""
        manifest = self.load_manifest(run_id)
        steps = () if manifest is None else manifest.step_names
        self.delete([["run", run_id]] + [["step", run_id, s] for s in steps])

    # -- step survivor sets ---------------------------------------------

    @blocking
    def save_step(
        self, manifest: RunManifest, step_name: str, relation: Relation
    ) -> None:
        """Persist one completed step's survivors and mark it done —
        step first, manifest second, so a crash between the two writes
        at worst re-executes a step, never trusts a missing record."""
        self.put(["step", manifest.run_id, step_name], {}, relation)
        if step_name not in manifest.completed:
            manifest.completed.append(step_name)
        self.save_manifest(manifest)

    @blocking
    def load_step(
        self, manifest: RunManifest, step_name: str
    ) -> Relation | None:
        if step_name not in manifest.completed:
            return None
        found = self.get(["step", manifest.run_id, step_name])
        return None if found is None else found[1]

    # -- recorder factory ----------------------------------------------

    def recorder(
        self,
        flock: "QueryFlock",
        plan: "QueryPlan",
        db: "Database",
        run_id: str | None = None,
        resume: str | None = None,
    ) -> "CheckpointRecorder":
        """Start (or resume) a checkpointed run for ``plan``.

        A fresh run writes its manifest immediately.  A resume loads
        the manifest for ``resume`` and validates it: same flock (by
        canonical key), same plan fingerprint, and every base relation
        at its recorded cardinality — any mismatch is a
        :class:`~repro.errors.ResumeError`, because splicing stale
        survivors into a changed run would be a silent wrong answer.
        """
        key = flock_key(flock)
        fingerprint = plan_fingerprint(flock, plan)
        cards = {
            name: len(db.get(name))
            for name in sorted(flock.predicates())
            if name in db
        }
        if resume is not None:
            manifest = self.load_manifest(resume)
            if manifest is None:
                raise ResumeError(
                    f"no checkpointed run {resume!r} in {self.path}"
                )
            if manifest.version != MANIFEST_VERSION:
                raise ResumeError(
                    f"run {resume!r} has manifest version "
                    f"{manifest.version}, this build writes "
                    f"{MANIFEST_VERSION}"
                )
            if manifest.flock_key != key:
                raise ResumeError(
                    f"run {resume!r} was checkpointed for a different "
                    "flock (canonical key mismatch)"
                )
            if manifest.plan_fingerprint != fingerprint:
                raise ResumeError(
                    f"run {resume!r} was checkpointed under a different "
                    "plan (fingerprint mismatch: the statistics changed, "
                    "or another build fingerprinted it)"
                )
            if manifest.base_cards != cards:
                raise ResumeError(
                    f"run {resume!r} was checkpointed against different "
                    f"data (cardinalities {manifest.base_cards} != "
                    f"{cards})"
                )
            return CheckpointRecorder(self, manifest, resumed=True)
        manifest = RunManifest(
            run_id=run_id if run_id is not None else new_run_id(),
            flock_key=key,
            plan_fingerprint=fingerprint,
            step_names=tuple(s.result_name for s in plan.steps),
            base_cards=cards,
        )
        self.save_manifest(manifest)
        return CheckpointRecorder(self, manifest, resumed=False)


class CheckpointRecorder:
    """What the plan executor sees: serve completed steps, save new ones.

    Duck-typed into :func:`repro.flocks.executor.execute_plan` the same
    way the session sink is — the executor only calls :meth:`served`
    and :meth:`complete`.
    """

    def __init__(
        self, store: CheckpointStore, manifest: RunManifest, resumed: bool
    ):
        self.store = store
        self.manifest = manifest
        self.resumed = resumed
        self.steps_resumed = 0
        self.steps_checkpointed = 0

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    def report_fields(self) -> dict:
        """This run's checkpoint accounting, keyed as the
        :class:`~repro.flocks.mining.MiningReport` fields it fills."""
        return {
            "run_id": self.run_id,
            "steps_resumed": self.steps_resumed,
            "steps_checkpointed": self.steps_checkpointed,
        }

    def served(self, step_name: str) -> "Relation | None":
        """The saved survivor set of an already-completed step (resume
        path), or None when the step must execute."""
        if not self.resumed:
            return None
        relation = self.store.load_step(self.manifest, step_name)
        if relation is not None:
            self.steps_resumed += 1
        return relation

    def complete(self, step_name: str, relation: "Relation") -> None:
        """Persist one freshly executed step's survivors."""
        self.store.save_step(self.manifest, step_name, relation)
        self.steps_checkpointed += 1

    def finish(self) -> None:
        """Mark the run complete (all steps durable)."""
        self.manifest.status = "complete"
        self.store.save_manifest(self.manifest)


__all__ = [
    "CheckpointRecorder",
    "CheckpointStore",
    "MANIFEST_VERSION",
    "RetryEvent",
    "RetryPolicy",
    "RetrySupervisor",
    "RunManifest",
    "STATEMENT_RETRY",
    "TransientFault",
    "TRANSIENT_SQLITE_MARKERS",
    "flock_key",
    "new_run_id",
    "plan_fingerprint",
    "run_statement",
]
