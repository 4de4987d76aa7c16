"""Morsel-driven parallel execution of partitioned step plans.

One :class:`~repro.engine.ir.StepPlan` fans out into N independent
partition tasks (see :mod:`repro.engine.partition` for the partitioning
scheme and its correctness argument).  Tasks are *morsels*: the
executor cuts each step into more partitions than workers
(``jobs * MORSELS_PER_WORKER``) and lets the pool's queue balance them,
so a skewed partition does not serialize the run.

One pool, one selection rule the executor observes itself: a step whose
planner (System-R) answer-size estimate clears
:data:`PROCESS_ESTIMATE_THRESHOLD` *and* has a partition column goes to
a ``concurrent.futures`` **process pool** — real parallelism for the
join/aggregate work that dominates large steps.  Every other step runs
on the caller's serial step runner (the executor loop passes its own
to :meth:`ParallelExecutor.run_step`, so observability accumulates in
one place): below the threshold, fork startup, seeding and the merge
cost more than the work itself, and every fan-out measured there was
slower than serial (see docs/ARCHITECTURE.md).

The pool is created lazily and reused across steps.  Workers are seeded
through **shared memory** (:mod:`repro.engine.shm`): the parent
publishes the encoded catalog's flat ``int64`` code columns into one
segment and ships only a descriptor (segment name, value dictionary
snapshot, per-relation offsets); each worker attaches and slices its
columns out of the mapping — no row pickling in either direction.
Survivors travel back the same way: a partition whose codes stay inside
the seeded dictionary prefix returns flat code buffers the parent
decodes against its own dictionary, and the merge encodes the
canonically ordered union back into it — pool results are in the
catalog's code space, like serial ones.  When shared memory is
unavailable the seeding degrades to the pickled catalog.

Guard propagation: workers get a fresh guard built from
:meth:`~repro.guard.ExecutionGuard.child_budget` — the *remaining*
wall-clock plus the row caps — while the parent polls its own guard
(including cancellation) between future completions.

Failure policy (the parallel rungs of the recovery ladder): a worker
abort on budget/cancellation re-raises in the parent as the matching
:class:`~repro.errors.ExecutionAborted` subclass.  Any other worker
failure degrades gracefully, *narrowly first*: when only some morsels
of a step failed, just those partitions re-run serially in the parent
(the survivors' outputs are kept); when every morsel failed — or the
pool itself broke (``BrokenProcessPool``) — the whole step re-runs
on the serial runner.  Either way the downgrade is recorded for the
:class:`~repro.flocks.mining.MiningReport`.

Hung workers: when the parent guard has a wall-clock deadline (or an
explicit ``watchdog`` interval is configured), a **watchdog** bounds
how long the parent waits on a step's morsels — the allowance is a
fraction of the guard's *remaining* budget, so a stalled worker can
never silently eat the whole deadline.  Overdue morsels are cancelled
(abandoned, for tasks already running — the pool cannot preempt them)
and re-executed serially in the parent, recorded both as a watchdog
event and a downgrade.  The ``parallel.hang`` fault site (an injected
sleep via :func:`~repro.testing.faults.maybe_hang`) makes the stall
deterministic in tests.

Determinism: partition hashing is process-independent
(:func:`~repro.engine.partition.stable_hash`) and merges are
canonically sorted, so results are bit-identical to serial execution
for any worker count.
"""

# conlint: hot-module — loops here are engine kernels; the
# cancellation-responsiveness pass requires each hot loop to poll
# the execution guard (see docs/CONCURRENCY.md).

from __future__ import annotations

import os
import time
from array import array
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Iterable, Optional, Sequence

from ..errors import ExecutionAborted, HungWorkerError
from ..guard import ExecutionGuard, GuardLike, as_guard
from ..relational.catalog import Database
from ..relational.dictionary import ValueDictionary
from ..relational.relation import CODE_BYTES, Relation
from ..testing.faults import WorkerKill, maybe_hang, trip
from . import shm
from .ir import PartitionedStepPlan, StepPlan
from .memory import MemoryEngine, MemoryRunner, StepResult
from .partition import partition_restrictor, partition_step, step_cost_estimate

#: Estimated answer tuples at or above which a step goes to the process
#: pool; anything smaller runs serially.
PROCESS_ESTIMATE_THRESHOLD = 100_000.0

#: Morsels per worker: finer than the worker count so the pool queue
#: can rebalance skewed partitions.
MORSELS_PER_WORKER = 2

#: Fraction of the guard's *remaining* wall-clock one step's morsels may
#: consume before the watchdog declares them hung.  Half: a stalled step
#: must leave enough budget for its serial salvage re-run.
WATCHDOG_FRACTION = 0.5

#: Smallest watchdog allowance — below this, normal pool latency would
#: trip the watchdog on perfectly healthy morsels.
WATCHDOG_FLOOR = 0.05


def resolve_jobs(parallelism: Optional[int] = None) -> int:
    """The effective worker count for one ``mine()`` call.

    An explicit ``parallelism`` wins; otherwise the ``REPRO_JOBS``
    environment variable (how CI stresses the whole suite under
    ``--jobs 4`` without touching every call site); otherwise 1.
    """
    if parallelism is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            parallelism = int(raw)
        except ValueError:
            return 1
    return max(1, int(parallelism))


def clamp_default_jobs(jobs: int) -> tuple[int, Optional[str]]:
    """Clamp a *defaulted* worker count to the machine's CPU count.

    Applies only to the env/default resolution path (``REPRO_JOBS``):
    oversubscribing beyond the core count buys nothing for CPU-bound
    join work and multiplies pool seeding cost, so a CI matrix that
    exports ``REPRO_JOBS=64`` onto a 4-core runner is quietly capped.
    An *explicit* ``parallelism=`` argument is never clamped — the
    caller asked for that worker count and gets it.

    Returns ``(effective jobs, reason)`` where ``reason`` is ``None``
    when no clamping happened (including when the CPU count is
    unknowable).
    """
    cores = os.cpu_count()
    if cores is None or jobs <= cores:
        return jobs, None
    return cores, (
        f"defaulted parallelism {jobs} exceeds the {cores} available "
        f"CPU core(s); clamped to {cores}"
    )


def merged_relation(
    name: str,
    columns: Sequence[str],
    rows: Iterable[tuple],
    dictionary: ValueDictionary,
) -> Relation:
    """Union partition outputs under a canonical (repr-sorted) row
    order — the Merge operator's contract, and what makes parallel
    output arrays bit-identical to serial ones — encoded into the
    catalog's ``dictionary``, so pool results share the serial runner's
    code space."""
    ordered = sorted(set(rows), key=repr)
    codes = [dictionary.encode_column(column) for column in zip(*ordered)]
    return Relation.from_encoded(
        name,
        tuple(columns),
        codes or [[] for _ in columns],
        dictionary,
        count=len(ordered),
    )


# ----------------------------------------------------------------------
# Worker tasks (module-level: process pools must import them by name)
# ----------------------------------------------------------------------

_WORKER_DB: Optional[Database] = None
_WORKER_SEED_CODES: Optional[int] = None


def _init_worker(seed: tuple[str, Any]) -> None:
    """Process-pool initializer: seed the worker with the base catalog
    once, instead of pickling it into every task.

    ``seed`` is either ``("shm", descriptor)`` — attach the parent's
    shared-memory segment and slice the encoded catalog out of it
    (:func:`repro.engine.shm.attach`; no row data was pickled) — or
    ``("db", database)``, the pickled-catalog fallback for platforms
    without shared memory.  Either way the worker records the seeded
    dictionary prefix size: codes below it decode identically in the
    parent, which is what lets results travel back as flat buffers.
    """
    global _WORKER_DB, _WORKER_SEED_CODES
    kind, payload = seed
    if kind == "shm":
        db = shm.attach(payload)
        if db is None:  # pragma: no cover - segment vanished
            raise RuntimeError("worker could not attach the shared catalog")
    else:
        db = payload
    _WORKER_DB = db
    _WORKER_SEED_CODES = db.dictionary.snapshot_size()


def _run_partition(
    db: Database,
    step: StepPlan,
    column: str,
    parts: int,
    index: int,
    need_aggregates: bool,
    guard: Optional[ExecutionGuard],
) -> tuple[int, Relation]:
    """Execute one partition of a step; returns (answer tuples,
    survivor relation)."""
    engine = MemoryEngine(
        db,
        guard=guard,
        scan_restrict=partition_restrictor(column, parts, index),
    )
    outcome = engine.run_step(step, need_aggregates=need_aggregates)
    survivors = outcome.passed if outcome.passed is not None else outcome.result
    return outcome.answer_tuples, survivors


def _pack_survivors(passed: Relation, seed_codes: Optional[int]) -> tuple:
    """Wire-pack one partition's survivors for the trip to the parent.

    When the survivors are encoded and every code falls inside the
    seeded dictionary prefix, ship flat ``int64`` buffers — append-only
    interning guarantees the parent's dictionary decodes them to the
    same values, so no Python objects are pickled.  Rows carrying
    worker-locally interned values (codes at or past the prefix) fall
    back to plain value tuples.
    """
    if (
        seed_codes is not None
        and passed.is_encoded
        and all(
            max(codes, default=-1) < seed_codes
            for codes in passed.code_columns()
        )
    ):
        buffers = tuple(
            array("q", codes).tobytes() for codes in passed.code_columns()
        )
        return ("codes", passed.columns, buffers, len(passed))
    return ("rows", passed.columns, list(passed.tuples), len(passed))


def _unpack_survivors(
    payload: tuple, dictionary: ValueDictionary
) -> tuple[tuple[str, ...], list[tuple]]:
    """Invert :func:`_pack_survivors` against the parent's dictionary."""
    kind, columns, data, count = payload
    if kind == "codes":
        decoded = [dictionary.decode_column(array("q", buf)) for buf in data]
        rows = list(zip(*decoded)) if decoded else [()] * count
        return tuple(columns), rows
    return tuple(columns), data


def _process_partition(args: tuple) -> tuple:
    """One partition task in a pool worker process.

    Guard aborts cross back to the parent as real exceptions — every
    :class:`~repro.errors.ReproError` pickles faithfully (traces are
    dropped in transit; the parent re-attaches its own).  An injected
    :class:`WorkerKill` still dies for real via ``os._exit`` so the
    parent observes a broken pool.
    """
    step, extras, column, parts, index, need_aggregates, budget = args
    try:
        trip("parallel.worker")
        maybe_hang("parallel.hang")
        db = _WORKER_DB
        assert db is not None  # initializer ran before any task
        if extras:
            db = db.scratch()
            for relation in extras:
                db.add(relation)
        guard = budget.start() if budget is not None else None
        count, passed = _run_partition(
            db, step, column, parts, index, need_aggregates, guard
        )
        return (count, _pack_survivors(passed, _WORKER_SEED_CODES))
    except WorkerKill:
        os._exit(17)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class ParallelExecutor:
    """Runs partitioned step plans on a worker pool; one per ``mine()``
    call, shared by every step of the evaluation.

    Args:
        jobs: worker count; 1 disables partitioning entirely.
        db: the base catalog (what the process pool is seeded with;
            per-step scratch overlays ship only their extra relations).
        guard: the parent evaluation's guard.
        watchdog: explicit per-step watchdog allowance in seconds.
            ``None`` (the default) derives the allowance from the
            guard's remaining wall-clock (``WATCHDOG_FRACTION`` of it,
            floored at ``WATCHDOG_FLOOR``); with no guard deadline the
            watchdog is off — an unbounded run has no budget a hung
            worker could waste.
    """

    def __init__(
        self,
        jobs: int,
        db: Database,
        guard: GuardLike = None,
        watchdog: Optional[float] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.db = db
        self.guard = as_guard(guard)
        self.watchdog = watchdog
        #: Reasons this executor fell back to serial execution (worker
        #: crashes); ``mine()`` turns them into MiningReport downgrades.
        self.downgrades: list[str] = []
        #: Watchdog firings (overdue morsels detected); ``mine()`` turns
        #: them into ``kind="watchdog"`` downgrades.
        self.watchdog_events: list[str] = []
        #: Whether at least one step actually ran partitioned.
        self.ran_parallel = False
        self.last_mode = "serial"
        #: Largest single-partition footprint seen (encoded bytes of the
        #: biggest morsel's answer); surfaces in the MiningReport.
        self.peak_partition_bytes = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._shared: Optional[shm.SharedCatalog] = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._shared is not None:
            self._shared.close()
            self._shared = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def parts(self) -> int:
        """Morsel count per step."""
        return self.jobs * MORSELS_PER_WORKER

    def note_downgrade(self, reason: str) -> None:
        self.downgrades.append(reason)

    # -- step execution -------------------------------------------------

    def run_step(
        self,
        step: StepPlan,
        db: Optional[Database] = None,
        need_aggregates: bool = False,
        serial: Optional[MemoryRunner] = None,
    ) -> StepResult:
        """Execute one step plan: on the process pool when it is large
        enough and has a partition column, else on ``serial`` — the
        caller's serial runner (a fresh one when not given).

        A step whose every morsel failed or hung also re-runs on
        ``serial``, recorded as a downgrade.  When only *some* morsels
        fail or hang, just those partitions re-run serially in the
        parent and the healthy outputs are kept.
        """
        db = db if db is not None else self.db
        if serial is None:
            serial = MemoryRunner(self.guard)
        plan = (
            partition_step(step, self.parts, db)
            if self.jobs > 1
            and step_cost_estimate(step) >= PROCESS_ESTIMATE_THRESHOLD
            else None
        )
        if plan is None:
            return serial.run_step(step, db, need_aggregates)
        started = time.perf_counter()
        try:
            outcomes = self._run_process(plan, db, need_aggregates)
            outputs = self._resolve(plan, db, need_aggregates, outcomes)
        except ExecutionAborted:
            raise
        except (Exception, WorkerKill) as error:
            if isinstance(error, (BrokenProcessPool, HungWorkerError)):
                # A broken pool is dead; a pool with every worker hung
                # is as good as dead — abandon it, later steps rebuild.
                self.close()
            detail = f"{type(error).__name__}: {error}".rstrip(": ")
            self.note_downgrade(
                f"worker failure ({detail}); step "
                f"{step.result_name!r} re-ran serially"
            )
            return serial.run_step(step, db, need_aggregates)
        self.ran_parallel = True
        self.last_mode = "process"
        return self._merge(
            plan, outputs, need_aggregates, time.perf_counter() - started
        )

    def _run_process(
        self, plan: PartitionedStepPlan, db: Database, need_aggregates: bool
    ) -> list[tuple[str, Any]]:
        pool = self._ensure_pool()
        extras = self._extra_relations(db)
        budget = self.guard.child_budget() if self.guard is not None else None
        parts = plan.partition.parts
        futures = [
            pool.submit(
                _process_partition,
                (
                    plan.step, extras, plan.partition.column, parts, index,
                    need_aggregates, budget,
                ),
            )
            for index in range(parts)
        ]
        outcomes = self._collect(futures)
        if any(status == "hung" for status, _ in outcomes):
            # A hung process worker keeps squatting on its pool slot
            # even after we abandon its future; rebuild the pool so the
            # remaining steps get their full worker count back.
            self.close()
        return outcomes

    def _morsel_deadline(self) -> Optional[float]:
        """How long this step's morsels may run before the watchdog
        declares the laggards hung; ``None`` disables the watchdog."""
        if self.watchdog is not None:
            return max(WATCHDOG_FLOOR, self.watchdog)
        if self.guard is None:
            return None
        remaining = self.guard.remaining_seconds
        if remaining is None:
            return None
        return max(WATCHDOG_FLOOR, remaining * WATCHDOG_FRACTION)

    def _collect(
        self, futures: list[Future]
    ) -> list[tuple[str, Any]]:
        """Await every future, polling the parent guard — cancellation
        and the deadline stay live while workers run.

        Returns one outcome per future, in submit order: ``("ok",
        payload)``, ``("failed", error)``, or ``("hung", None)`` when
        the watchdog gave up on a morsel that had not finished within
        the step's allowance.  Guard aborts raise immediately.
        """
        allowance = self._morsel_deadline()
        started = time.monotonic()
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(
                    pending,
                    timeout=(
                        0.05
                        if self.guard is not None or allowance is not None
                        else None
                    ),
                    return_when=FIRST_COMPLETED,
                )
                if self.guard is not None:
                    self.guard.checkpoint(node="parallel wait")
                if (
                    allowance is not None
                    and pending
                    and time.monotonic() - started >= allowance
                ):
                    for future in pending:
                        future.cancel()
                    break
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        outcomes: list[tuple[str, Any]] = []
        for future in futures:
            if future in pending or future.cancelled():
                outcomes.append(("hung", None))
                continue
            error = future.exception()
            if error is not None:
                outcomes.append(("failed", error))
            else:
                outcomes.append(("ok", future.result()))
        return outcomes

    def _resolve(
        self,
        plan: PartitionedStepPlan,
        db: Database,
        need_aggregates: bool,
        outcomes: list[tuple[str, Any]],
    ) -> list[tuple]:
        """Turn per-morsel outcomes into partition outputs, salvaging
        failed/hung morsels by re-running just them serially.

        Worker-side guard aborts re-raise as the matching
        :class:`~repro.errors.ExecutionAborted` subclass.  When *every*
        morsel misbehaved there is nothing to salvage around — the
        first error (or a :class:`~repro.errors.HungWorkerError` when
        all hung) propagates so ``run_step`` takes the full-serial
        rung instead.
        """
        step = plan.step
        dictionary = self.db.dictionary
        outputs: list[Optional[tuple]] = [None] * len(outcomes)
        salvage: list[tuple[int, str, Optional[BaseException]]] = []
        hung = 0
        for index, (status, payload) in enumerate(outcomes):
            if status == "ok":
                count, survivors = payload
                columns, rows = _unpack_survivors(survivors, dictionary)
                outputs[index] = (count, columns, rows)
            else:
                if status == "failed" and isinstance(
                    payload, ExecutionAborted
                ):
                    # An abort is the *evaluation's* abort, not a worker
                    # fault; it crossed the pool boundary with its trace
                    # dropped in transit — attach ours.
                    if payload.trace is None:
                        payload.trace = self._trace()
                    raise payload
                if status == "hung":
                    hung += 1
                salvage.append((index, status, payload))
        if hung:
            allowance = self._morsel_deadline()
            detail = (
                f" after {allowance:.2f}s allowance"
                if allowance is not None
                else ""
            )
            self.watchdog_events.append(
                f"watchdog: {hung} of {len(outcomes)} morsel(s) of step "
                f"{step.result_name!r} overdue{detail}; "
                "cancelled and re-run serially"
            )
        if not salvage:
            return [output for output in outputs if output is not None]
        if len(salvage) == len(outcomes):
            if hung == len(outcomes):
                raise HungWorkerError(
                    f"all {hung} morsel(s) of step {step.result_name!r} "
                    "hung past the watchdog allowance",
                    pending=hung,
                )
            first_error = next(
                error for _idx, status, error in salvage
                if status == "failed" and error is not None
            )
            raise first_error
        for index, _status, _error in salvage:
            count, passed = _run_partition(
                db,
                step,
                plan.partition.column,
                plan.partition.parts,
                index,
                need_aggregates,
                self.guard,
            )
            outputs[index] = (count, passed.columns, list(passed.tuples))
        details = sorted(
            {
                "hung" if status == "hung"
                else f"{type(error).__name__}: {error}".rstrip(": ")
                for _idx, status, error in salvage
            }
        )
        self.note_downgrade(
            f"{len(salvage)} of {len(outcomes)} partition(s) of step "
            f"{step.result_name!r} re-ran serially "
            f"({'; '.join(details)})"
        )
        return [output for output in outputs if output is not None]

    def _merge(
        self,
        plan: PartitionedStepPlan,
        outputs: list[tuple],
        need_aggregates: bool,
        seconds: float,
    ) -> StepResult:
        step = plan.step
        sizes = tuple(count for count, _columns, _rows in outputs)
        answer_tuples = sum(sizes)
        if sizes:
            self.peak_partition_bytes = max(
                self.peak_partition_bytes,
                max(sizes) * CODE_BYTES * max(1, len(step.answer_columns)),
            )
        rows: list[tuple] = []
        columns: tuple[str, ...] = step.root.columns
        for _count, part_columns, part_rows in outputs:
            columns = tuple(part_columns)
            rows.extend(part_rows)
        dictionary = self.db.dictionary
        if need_aggregates:
            passed: Optional[Relation] = merged_relation(
                step.root.name, columns, rows, dictionary
            )
            positions = [columns.index(c) for c in step.root.columns]
            result = merged_relation(
                step.root.name,
                step.root.columns,
                [tuple(row[p] for p in positions) for row in rows],
                dictionary,
            )
        else:
            passed = None
            result = merged_relation(
                step.root.name, step.root.columns, rows, dictionary
            )
        if self.guard is not None:
            self.guard.note_step(
                name=f"parallel:{step.result_name}",
                description=(
                    f"process pool, {plan.partition.parts} partitions "
                    f"on {plan.partition.column}"
                ),
                input_tuples=answer_tuples,
                output_assignments=len(result),
                seconds=seconds,
                filtered=True,
            )
            self.guard.checkpoint(
                rows=len(result), node=f"parallel:{step.result_name}"
            )
        return StepResult(
            result=result,
            passed=passed,
            answer_tuples=answer_tuples,
            mode="process",
            partition_sizes=sizes,
        )

    # -- plumbing -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._shared is None:
                self._shared = shm.publish(self.db)
            seed: tuple[str, Any] = (
                ("shm", self._shared.descriptor)
                if self._shared is not None
                else ("db", self.db)
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(seed,),
            )
        return self._pool

    def _extra_relations(self, db: Database) -> tuple[Relation, ...]:
        """Relations in a scratch overlay the pool's seeded catalog does
        not have (materialized ok-tables) — shipped per task."""
        if db is self.db:
            return ()
        extras = []
        for name in db.names():
            relation = db.get(name)
            if name not in self.db or self.db.get(name) is not relation:
                extras.append(relation)
        return tuple(extras)

    def _trace(self) -> Any:
        return self.guard.trace if self.guard is not None else None


__all__ = [
    "MORSELS_PER_WORKER",
    "PROCESS_ESTIMATE_THRESHOLD",
    "WATCHDOG_FLOOR",
    "WATCHDOG_FRACTION",
    "ParallelExecutor",
    "BrokenProcessPool",
    "clamp_default_jobs",
    "merged_relation",
    "resolve_jobs",
]
