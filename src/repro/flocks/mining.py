"""The one-call mining front door.

:func:`mine` wraps the full pipeline a downstream user wants by
default: lint the flock, pick an evaluation strategy appropriate to its
shape, execute, and return the result together with a human-readable
report of what was done.

*How* a call evaluates — strategy, backend, parallelism, retry,
checkpointing — is one :class:`MiningOptions`; every field is
documented there.  One pass: :func:`mine` picks the strategy, and
``_run_strategy`` turns it into a plan (the strategies are plan
producers), picks the backend — both SQLite switches are made there —
and runs the one executor loop; every rung of the ladder below is
recorded once, by ``_Attempt.downgrade``, in the order it happened.
Strategy selection (``strategy="auto"``):

* non-monotone filter → naive evaluation (nothing else is sound);
* union flock → the Section 3.4 union optimizer;
* single-rule monotone flock → the dynamic evaluator (Section 4.4),
  which needs no cost model and adapts to the data's statistics.

Resilience (this module is the policy layer over :mod:`repro.guard`):

* ``budget=ResourceBudget(seconds=5)`` / ``cancel=CancellationToken()``
  bound the whole call — every strategy and backend checkpoints
  cooperatively and aborts with
  :class:`~repro.errors.BudgetExceededError` /
  :class:`~repro.errors.ExecutionCancelled` carrying a partial trace;
* **strategy degradation**: when a fancier strategy fails *before
  producing an answer* — plan construction raises
  :class:`~repro.errors.PlanError` / :class:`~repro.errors.FilterError`,
  or the budget expires mid plan-search — :func:`mine` falls back
  instead of dying (optimized to dynamic where ``"auto"`` would pick
  dynamic, anything else to naive) and records the downgrade in the
  :class:`MiningReport`.  A budget exhausted during *execution* is not
  downgraded: re-running a cheaper strategy cannot un-spend the budget,
  and silently retrying would turn a hard limit into a soft one;
* **backend degradation**: if the SQLite backend fails (after its own
  transient-error retries) the call falls back to the in-memory engine,
  again recording the downgrade;
* **retry**: the first rung *below* all of the above — a transient
  fault (see :meth:`repro.recovery.RetryPolicy.classify`) re-runs the
  failing step/strategy after a guard-clamped backoff before any
  downgrade is considered, recorded as a ``kind="retry"`` downgrade
  with its attempt count;
* **hung-worker watchdog**: under a wall-clock budget, the parallel
  executor bounds how long a step's morsels may straggle; overdue
  morsels are cancelled and re-run serially, recorded as a
  ``kind="watchdog"`` downgrade;
* **checkpoint–resume**: the ``checkpoint``/``resume`` options make
  completed FILTER steps durable and re-run only the unfinished ones
  (see :mod:`repro.recovery`).

The full escalation ladder, cheapest rung first::

    retry step -> salvage failed partitions serially
               -> backend/strategy downgrade -> abort (partial trace)
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Optional

from ..analysis.verification import plan_verification
from ..engine.ir import StageObservation
from ..engine.memory import MemoryRunner
from ..engine.parallel import ParallelExecutor, clamp_default_jobs, resolve_jobs
from ..errors import (
    BudgetExceededError,
    EvaluationError,
    FilterError,
    PlanError,
)
from ..guard import CancellationToken, ExecutionGuard, GuardLike, ResourceBudget, as_guard
from ..recovery import CheckpointRecorder, CheckpointStore, RetrySupervisor
from ..relational.catalog import Database
from ..relational.relation import Relation
from .dynamic import DynamicEvaluator
from .executor import execute_plan
from .flock import QueryFlock
from .lint import LintWarning, lint_flock
from .optimizer import certified_plan
from .options import BACKENDS as BACKENDS  # re-exported for importers
from .options import STRATEGIES as STRATEGIES
from .options import MiningOptions
from .plans import single_step_plan
from .result import FlockResult
from .sqlbackend import SQLiteBackend

if TYPE_CHECKING:
    from ..analysis.certify import BranchCertificate, LegalityCertificate


@dataclass(frozen=True)
class Downgrade:
    """One recorded rung of the recovery ladder a :func:`mine` call
    descended — including the rungs that *recovered* (``"retry"`` and
    ``"watchdog"`` entries record faults the call absorbed)."""

    kind: str  # "strategy" | "backend" | "parallelism" | "retry" | "watchdog"
    from_name: str
    to_name: str
    reason: str

    def __str__(self) -> str:
        return (
            f"downgrade [{self.kind}] {self.from_name} -> {self.to_name}: "
            f"{self.reason}"
        )


@dataclass(frozen=True)
class MiningReport:
    """Everything :func:`mine` did, for logging and debugging."""

    strategy_requested: str
    strategy_used: str
    seconds: float
    warnings: tuple[LintWarning, ...] = ()
    plan_text: str | None = None
    decision_text: str | None = None
    backend_requested: str = "memory"
    backend_used: str = "memory"
    #: How many scan rows runtime semi-join filters (sideways information
    #: passing from materialized pre-filter steps into later scans)
    #: removed before any join ran.
    runtime_filter_rows_pruned: int = 0
    #: Per-join-stage observations (System-R estimate, guaranteed UES
    #: bound, actual output rows) from the in-memory engine —
    #: :class:`repro.engine.ir.StageObservation` tuples.  Empty when the
    #: run had no instrumented stages (SQLite/partitioned/cache paths).
    stage_rows: tuple = ()
    #: Worker count the call asked for (``parallelism=`` argument or the
    #: ``REPRO_JOBS`` environment default) and what actually ran: the
    #: requested count when at least one step went to the process pool,
    #: 1 when everything ran serially (every step below the pool's
    #: estimate threshold or without a partition column, the SQLite
    #: backend, the dynamic strategy, or a recorded parallelism
    #: downgrade).
    parallelism_requested: int = 1
    parallelism_used: int = 1
    #: Largest single-partition footprint the parallel executor saw —
    #: the encoded (8 bytes/column) size of the biggest morsel's answer.
    #: Zero when nothing ran partitioned.  This is the number to watch
    #: when sizing worker memory: partitions are processed whole, so the
    #: peak morsel bounds a worker's working set.
    peak_partition_bytes: int = 0
    downgrades: tuple[Downgrade, ...] = ()
    #: Session-cache accounting (all zero without a session).  An exact
    #: hit sets ``cache_hits=1`` and ``strategy_used="cache"`` — the
    #: answer came from re-filtering a cached result, with zero
    #: base-relation joins.  ``cache_step_hits`` counts pre-filter plan
    #: steps served from the cache during a live evaluation, and
    #: ``rows_saved`` the answer tuples those served results did not
    #: have to recompute.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_step_hits: int = 0
    rows_saved: int = 0
    #: The legality certificate of the plan that produced the answer
    #: (optimized strategy, single-rule and union flocks alike):
    #: per-step safety reports plus containment witnesses, re-validated
    #: before execution when plan verification is on and re-checkable
    #: with :func:`repro.analysis.verify_certificate`.
    certificate: Optional["LegalityCertificate"] = None
    #: The dynamic strategy's per-FILTER-decision certificates (one
    #: :class:`repro.analysis.certify.BranchCertificate` per filter
    #: actually applied mid-run), when plan verification is on.
    decision_certificates: tuple["BranchCertificate", ...] = ()
    #: Checkpoint accounting (``checkpoint=`` calls only): the durable
    #: run id a later ``resume=`` can pick up, how many plan steps were
    #: served from a previous run's checkpoints, and how many this call
    #: made durable.
    run_id: Optional[str] = None
    steps_resumed: int = 0
    steps_checkpointed: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.downgrades)

    # -- wire format ---------------------------------------------------
    #
    # The serve layer ships reports over HTTP as JSON: every field of
    # ``_WIRE_FIELDS`` in field order, the three nested ones converted.
    # Certificates are *not* serialized (they hold query/plan objects and
    # are re-checkable only in-process); a deserialized report carries
    # ``certificate=None`` and no decision certificates.  Everything else
    # round-trips exactly.

    def to_dict(self) -> dict:
        """A JSON-able dict of this report (certificates omitted)."""
        data = {name: getattr(self, name) for name in _WIRE_FIELDS}
        data["warnings"] = [
            {
                "code": w.code.value,
                "message": w.message,
                "rule_index": w.rule_index,
                "severity": w.severity.value,
            }
            for w in self.warnings
        ]
        data["stage_rows"] = [o.to_dict() for o in self.stage_rows]
        data["downgrades"] = [dict(vars(d)) for d in self.downgrades]
        return data

    def to_json(self) -> str:
        """This report as a JSON string (see :meth:`to_dict`)."""
        import json

        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "MiningReport":
        """Rebuild a report from :meth:`to_dict` output.  Unknown keys
        are ignored and missing ones take their defaults."""
        from ..analysis.diagnostics import Severity
        from .lint import LintCode, LintWarning

        data = {name: payload[name] for name in _WIRE_FIELDS if name in payload}
        data["warnings"] = tuple(
            LintWarning(
                code=LintCode(w["code"]),
                message=w["message"],
                rule_index=w.get("rule_index"),
                severity=Severity(w.get("severity", "warning")),
            )
            for w in data.get("warnings", ())
        )
        data["stage_rows"] = tuple(
            StageObservation.from_dict(o) for o in data.get("stage_rows", ())
        )
        data["downgrades"] = tuple(
            Downgrade(**d) for d in data.get("downgrades", ())
        )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "MiningReport":
        """Rebuild a report from :meth:`to_json` output."""
        import json

        return cls.from_dict(json.loads(text))

    def __str__(self) -> str:
        lines = [
            f"strategy: {self.strategy_used} "
            f"(requested {self.strategy_requested}), "
            f"{self.seconds * 1e3:.1f} ms"
        ]
        if self.cache_hits or self.cache_misses or self.cache_step_hits:
            lines.append(
                f"cache: {self.cache_hits} exact, "
                f"{self.cache_step_hits} step hits, "
                f"{self.cache_misses} misses, "
                f"{self.rows_saved} rows saved"
            )
        if self.backend_used != "memory" or self.backend_requested != "memory":
            lines.append(
                f"backend: {self.backend_used} "
                f"(requested {self.backend_requested})"
            )
        if self.runtime_filter_rows_pruned:
            lines.append(
                "runtime filters: "
                f"{self.runtime_filter_rows_pruned} scan row(s) pruned"
            )
        if self.stage_rows:
            lines.append("stages (estimate / bound / actual):")
            for obs in self.stage_rows:
                bound_text = (
                    f"{obs.bound:,.0f}" if obs.bound is not None else "-"
                )
                kernel = f" [{obs.kernel}]" if obs.kernel != "pairs" else ""
                lines.append(
                    f"  {obs.node}: ~{obs.estimated:,.0f} / "
                    f"<={bound_text} / {obs.actual}{kernel}"
                )
        if self.parallelism_requested != 1 or self.parallelism_used != 1:
            lines.append(
                f"parallelism: {self.parallelism_used} jobs "
                f"(requested {self.parallelism_requested})"
            )
        if self.peak_partition_bytes:
            lines.append(
                f"peak partition: {self.peak_partition_bytes:,} B encoded"
            )
        if self.run_id is not None:
            lines.append(
                f"checkpoint run: {self.run_id} "
                f"({self.steps_resumed} step(s) resumed, "
                f"{self.steps_checkpointed} checkpointed)"
            )
        for downgrade in self.downgrades:
            lines.append(str(downgrade))
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        if self.plan_text:
            lines.append("plan:")
            lines.append(self.plan_text)
        if self.decision_text:
            lines.append("decisions:")
            lines.append(self.decision_text)
        return "\n".join(lines)


#: The report fields on the wire: all but the in-process certificates.
_WIRE_FIELDS = tuple(
    f.name for f in fields(MiningReport)
    if f.name not in ("certificate", "decision_certificates")
)


def _choose_strategy(flock: QueryFlock) -> str:
    if not flock.filter.is_monotone:
        return "naive"
    if flock.is_union:
        return "optimized"
    return "dynamic"


def _fallback(flock: QueryFlock, used: str) -> str | None:
    """The strategy that answers when ``used`` fails before producing an
    answer: optimized falls back to dynamic where that is what ``"auto"``
    picks, every other strategy to naive, and naive to nothing."""
    if used == "naive":
        return None
    if used == "optimized" and _choose_strategy(flock) == "dynamic":
        return "dynamic"
    return "naive"


@dataclass
class _Attempt:
    """Mutable scratch state for one mine() call."""

    result: FlockResult | None = None
    plan_text: str | None = None
    decision_text: str | None = None
    downgrades: list[Downgrade] = field(default_factory=list)
    backend_used: str = "memory"
    certificate: Optional["LegalityCertificate"] = None
    decision_certificates: tuple["BranchCertificate", ...] = ()
    recorder: Optional[CheckpointRecorder] = None

    def downgrade(
        self, kind: str, from_name: str, to_name: str, reason: str
    ) -> None:
        """Record one rung of the ladder; a ``"backend"`` rung also moves
        :attr:`backend_used` to ``to_name``."""
        self.downgrades.append(Downgrade(kind, from_name, to_name, reason))
        if kind == "backend":
            self.backend_used = to_name

    def abandon_plan(self) -> None:
        """Forget what a failed strategy's plan left here.  The checkpoint
        ``recorder`` stays: the manifest it names is on disk and
        resumable."""
        self.plan_text = self.decision_text = None
        self.certificate = None
        self.decision_certificates = ()


def _run_strategy(
    db: Database,
    flock: QueryFlock,
    strategy: str,
    options: MiningOptions,
    attempt: _Attempt,
    checkpoint_store: CheckpointStore | None,
    **loop: Any,
) -> None:
    """Execute one strategy, filling ``attempt``: pick the plan
    producer and the backend, then run the one executor loop.

    Raises whatever the strategy raises; the caller decides whether a
    failure degrades or propagates.

    The strategies are plan producers: naive and dynamic run the
    single-step plan (dynamic on a serial :class:`MemoryRunner` whose
    step body consults the Section 4.4 :class:`DynamicEvaluator`),
    optimized the searched plan.  Both backend switches are made here:
    the dynamic strategy moves an SQLite call to memory (SQLite cannot
    host its decision policy), and an SQLite failure (after the
    backend's own transient-error retries) falls back to the in-memory
    runners.  Guard aborts (budget/cancellation) are *not* degraded —
    they are user-requested limits, not backend faults.

    ``strategy`` is the one actually run (``options.strategy`` after
    auto-selection and any degradation).  ``loop`` holds the executor
    loop's hooks, the same whichever step runner runs the plan:
    ``guard``, the session's cache ``sink``, the call's shared
    :class:`~repro.engine.parallel.ParallelExecutor` as ``parallel`` (or
    None; dynamic and SQLite runs are serial and ignore it) and the
    ``supervisor`` — the retry rung, per FILTER step inside the loop (a
    dynamic step restarts its decision log) and around plan *search*.
    ``checkpoint_store`` arms step checkpointing for the searched plans:
    the recorder built here lands on ``attempt.recorder`` for the
    report's accounting.
    """
    # Every strategy starts on the requested backend: a fallback from
    # dynamic, which moved to memory, runs on SQLite again.
    attempt.backend_used = options.backend
    evaluator = None
    if strategy == "dynamic":
        # The evaluator refuses a flock it cannot run before any backend
        # switch is recorded.
        evaluator = DynamicEvaluator(
            db, flock, guard=loop["guard"], sink=loop["sink"]
        )
        if attempt.backend_used == "sqlite":
            attempt.downgrade(
                "backend", "sqlite", "memory",
                "dynamic strategy runs in the in-memory engine",
            )
        loop["runner"] = MemoryRunner(loop["guard"], dynamic=evaluator)
    if strategy in ("naive", "dynamic"):
        plan = single_step_plan(flock)
    else:
        # Plan search — the 'mid-search' phase degradation watches.
        # PlanError/FilterError *and* budget exhaustion here degrade: no
        # answer work has been lost yet.
        plan, attempt.certificate = loop["supervisor"].run(
            lambda: certified_plan(db, flock, guard=loop["guard"]),
            site="plan-search",
        )
        attempt.plan_text = plan.render(flock)
        if checkpoint_store is not None:
            attempt.recorder = loop["recorder"] = checkpoint_store.recorder(
                flock, plan, db, run_id=options.run_id, resume=options.resume,
            )
    # Execution.  Only backend failures degrade from here;
    # budget/cancellation aborts propagate with their partial trace.
    if attempt.backend_used == "sqlite":
        try:
            with SQLiteBackend(db) as sqlite:
                attempt.result = FlockResult(
                    sqlite.execute_plan(flock, plan, **loop)
                )
        except EvaluationError as error:
            attempt.downgrade(
                "backend", "sqlite", "memory", str(error).split("\n")[0]
            )
    if attempt.backend_used == "memory":
        attempt.result = execute_plan(db, flock, plan, validate=False, **loop)
    if evaluator is not None:
        attempt.decision_text = str(evaluator.last_trace)
        attempt.decision_certificates = evaluator.last_trace.certificates


def mine(
    db: Database,
    flock: QueryFlock,
    strategy: str | None = None,
    *,
    budget: ResourceBudget | None = None,
    cancel: CancellationToken | None = None,
    guard: GuardLike = None,
    session=None,
    options: MiningOptions | None = None,
    **overrides: Any,
) -> tuple[Relation, MiningReport]:
    """Evaluate a flock end to end; returns (result relation, report).

    *How* the flock is evaluated is a :class:`MiningOptions`: pass one
    as ``options=``, and/or any of its fields (``strategy=``,
    ``backend=``, ``parallelism=``, ``checkpoint=``,
    ...) as keyword arguments, which override it.  The remaining
    arguments are per-call resources:

    Args:
        budget: optional :class:`~repro.guard.ResourceBudget`; the clock
            starts when :func:`mine` is entered and spans every fallback
            attempt — degradation never extends the budget.
        cancel: optional :class:`~repro.guard.CancellationToken`.
        guard: a pre-started :class:`~repro.guard.ExecutionGuard` to
            share with other work; mutually exclusive with
            ``budget``/``cancel``.
        session: optional :class:`repro.session.MiningSession` whose
            result cache participates: an exact hit (alpha-equivalent
            flock, stricter-or-equal thresholds) returns the cached
            answer re-filtered — ``strategy_used == "cache"``, zero
            base-relation joins — and a miss threads the session's sink
            through the evaluation so the result (and intermediate
            materializations) warm the cache.  ``session.db`` must be
            the ``db`` passed here.

    Raises what :class:`MiningOptions` raises for an invalid option or
    combination (``TypeError`` for a keyword that is not an option);
    :class:`FilterError` when ``resume=`` asks the optimized strategy
    for a non-monotone filter (resuming never degrades);
    :class:`~repro.errors.BudgetExceededError` /
    :class:`~repro.errors.ExecutionCancelled` when the guard trips
    during execution.
    """
    options = (options or MiningOptions()).over(strategy=strategy, **overrides)
    if guard is not None and (budget is not None or cancel is not None):
        raise ValueError("pass either guard= or budget=/cancel=, not both")
    if session is not None and session.db is not db:
        raise ValueError("session.db and db must be the same Database")
    if guard is not None:
        live_guard = as_guard(guard)
    elif budget is not None or cancel is not None:
        live_guard = ExecutionGuard(budget=budget, cancel=cancel)
    else:
        live_guard = None

    requested_jobs = resolve_jobs(options.parallelism)
    jobs, clamp_reason = requested_jobs, None
    if options.parallelism is None:
        # Only the env/default path is clamped; an explicit
        # parallelism= argument is honored as given.
        jobs, clamp_reason = clamp_default_jobs(requested_jobs)
    warnings = tuple(lint_flock(flock))
    used = options.strategy
    if used == "auto":
        used = _choose_strategy(flock)
        if options.checkpoint is not None:
            # Checkpointing needs a plan whose steps can be replayed.
            if not flock.filter.is_monotone:
                raise FilterError(
                    "checkpoint= requires a plan-based strategy "
                    "(optimized), but a non-monotone filter can "
                    "only be evaluated naively"
                )
            used = "optimized"

    started = time.perf_counter()

    sink = None
    cache_misses = 0
    if session is not None:
        hit = session.lookup(flock)
        if hit is not None:
            entry, relation = hit
            if live_guard is not None:
                # Guards apply to cached answers too: the budget clock
                # and cancellation are checked, and an answer-row cap
                # rejects an oversized cached answer like a live one.
                live_guard.checkpoint(rows=len(relation), node="cache hit")
                live_guard.check_answer(len(relation))
            report = MiningReport(
                strategy_requested=options.strategy,
                strategy_used="cache",
                seconds=time.perf_counter() - started,
                warnings=warnings,
                backend_requested=options.backend,
                backend_used="memory",
                parallelism_requested=requested_jobs,
                cache_hits=1,
                rows_saved=entry.source_rows,
            )
            return relation, report
        cache_misses = 1
        sink = session.sink(flock)

    attempt = _Attempt()
    if clamp_reason is not None:
        attempt.downgrade(
            "parallelism", f"{requested_jobs} jobs", f"{jobs} jobs", clamp_reason
        )
    parallel = (
        ParallelExecutor(jobs, db, guard=live_guard) if jobs > 1 else None
    )
    supervisor = RetrySupervisor(policy=options.retry, guard=live_guard)
    own_store = isinstance(options.checkpoint, str)
    store: CheckpointStore | None = (
        CheckpointStore(options.checkpoint)
        if isinstance(options.checkpoint, str) else options.checkpoint
    )

    scope = (
        nullcontext() if options.verify_plans is None
        else plan_verification(options.verify_plans)
    )
    try:
        with scope:
            while True:
                try:
                    _run_strategy(
                        db, flock, used, options, attempt, store,
                        guard=live_guard, sink=sink, parallel=parallel,
                        supervisor=supervisor,
                    )
                    break
                except (PlanError, FilterError, BudgetExceededError) as error:
                    if isinstance(error, BudgetExceededError) and (
                        used != "optimized" or attempt.plan_text is not None
                    ):
                        # The budget died during execution, not mid
                        # plan-search — a cheaper strategy cannot recover
                        # spent budget.
                        raise
                    if options.resume is not None:
                        # A cheaper strategy would not execute the
                        # manifest's plan; resuming onto it would splice
                        # checkpoints into a different evaluation.
                        raise
                    fallback = _fallback(flock, used)
                    if fallback is None:
                        raise
                    attempt.downgrade(
                        "strategy", used, fallback, str(error).split("\n")[0]
                    )
                    used = fallback
                    attempt.abandon_plan()
    finally:
        if parallel is not None:
            parallel.close()
        if own_store and store is not None:
            store.close()

    for event in supervisor.events:
        attempt.downgrade(
            "retry", event.site,
            "recovered" if event.recovered else "exhausted",
            f"{event.attempts} attempt(s)"
            + (f"; last error: {event.error}" if event.error else ""),
        )
    if parallel is not None:
        for event in parallel.watchdog_events:
            attempt.downgrade("watchdog", f"{jobs} jobs", "serial salvage", event)
        for reason in parallel.downgrades:
            attempt.downgrade("parallelism", f"{jobs} jobs", "serial", reason)

    result = attempt.result
    assert result is not None
    if live_guard is not None:
        live_guard.check_answer(len(result))

    report = MiningReport(
        strategy_requested=options.strategy,
        strategy_used=used,
        seconds=time.perf_counter() - started,
        warnings=warnings,
        plan_text=attempt.plan_text,
        decision_text=attempt.decision_text,
        backend_requested=options.backend,
        backend_used=attempt.backend_used,
        runtime_filter_rows_pruned=result.runtime_filter_rows_pruned,
        stage_rows=tuple(result.stage_rows),
        parallelism_requested=requested_jobs,
        parallelism_used=(
            jobs if parallel is not None and parallel.ran_parallel else 1
        ),
        peak_partition_bytes=(
            parallel.peak_partition_bytes if parallel is not None else 0
        ),
        downgrades=tuple(attempt.downgrades),
        cache_misses=cache_misses,
        cache_step_hits=sink.step_hits if sink is not None else 0,
        rows_saved=sink.rows_saved if sink is not None else 0,
        certificate=attempt.certificate,
        decision_certificates=attempt.decision_certificates,
        **(attempt.recorder.report_fields() if attempt.recorder else {}),
    )
    return result.relation, report
