"""Execution of query plans against a database — the one executor loop.

:func:`execute_plan` is the only loop over a plan's FILTER steps in the
engine.  Each step is lowered once to a physical
:class:`~repro.engine.ir.StepPlan` — the union of its rules' join
stages, a GroupAggregate per filter conjunct, a ThresholdFilter, and a
Materialize of the surviving assignments — and handed to a *step
runner*, which produces the step's ok-relation; the loop adds it to a
scratch overlay of the database.  The final step's relation is the
flock result.

A step runner is any object with one method::

    run_step(step_plan, db, need_aggregates) -> StepResult

(:class:`~repro.engine.memory.StepResult`: the ok-relation, the
survivors with their aggregate columns when ``need_aggregates`` else
``None``, and the answer-tuple count).  There are three: the serial
in-memory :class:`MemoryRunner` (the default), the partitioning
:class:`~repro.engine.parallel.ParallelExecutor` (a wrapper over the
serial runner: large steps fan out on its process pool, the rest pass
through), and :class:`~repro.flocks.sqlbackend.SQLiteBackend`.
Everything else —
cache serving and publication, retry supervision, checkpoint recording,
runtime-filter sources, guard recording and the step trace — is
attached here, once, whatever the runner and whichever strategy
produced the plan (the naive evaluation is the single-step plan).

Why the final step is *cheaper* than the naive evaluation even though it
repeats the original query (the paper's Example 4.1 intuition): the
ok-atoms are small relations that join first, shrinking every
intermediate result.  The join ordering sees the small binding
relations and uses them early, which is exactly "the subgoals okS($s)
and okM($m) can be joined with other subgoals relatively quickly".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Collection

from ..datalog.query import as_union
from ..datalog.safety import assert_safe
from ..engine.ir import StepPlan
from ..engine.memory import MemoryRunner, StepResult
from ..engine.parallel import ParallelExecutor
from ..engine.planner import lower_step
from ..guard import ExecutionGuard, GuardLike, as_guard
from ..relational.catalog import Database
from ..relational.relation import Relation
from ..testing.faults import trip
from .filters import STAR, plan_aggregate_specs
from .flock import QueryFlock
from .plans import FilterStep, QueryPlan, validate_plan
from .result import ExecutionTrace, FlockResult, StepTrace


@dataclass(frozen=True)
class _PoolRunner:
    """The partitioning runner over this loop's serial runner: large
    steps fan out on ``pool``, the rest (and failed fan-outs) run on
    ``serial``, so a run's observations accumulate in one place."""

    pool: ParallelExecutor
    serial: MemoryRunner

    def run_step(
        self, step_plan: StepPlan, db: Database, need_aggregates: bool
    ) -> StepResult:
        return self.pool.run_step(step_plan, db, need_aggregates, self.serial)


def lower_filter_step(
    db: Database,
    flock: QueryFlock,
    step: FilterStep,
    runtime_filters: Collection[str] | None = None,
):
    """Lower one FILTER step to its physical :class:`StepPlan`.

    This is the single lowering both backends share: the in-memory
    engine interprets the returned plan directly, the SQLite backend
    renders it to SQL (:mod:`repro.engine.sqlgen`).

    ``runtime_filters`` names already-materialized pre-filter relations
    whose survivor keys may be pushed into this step's scans as
    semi-join :class:`~repro.engine.ir.ScanFilter` operators (sideways
    information passing; see :func:`repro.engine.planner.scan_filter_map`).
    """
    params = list(step.parameters)
    param_cols = [str(p) for p in params]
    union = as_union(step.query)

    width = union.head_arity
    head_cols = tuple(f"_h{i}" for i in range(width))
    head_names = [str(t) for t in union.rules[0].head_terms]

    def resolve(condition) -> list[str]:
        if condition.target == STAR:
            return list(head_cols)
        # Map the named head variable to its positional column.
        return [head_cols[head_names.index(condition.target)]]

    for rule in union.rules:
        assert_safe(rule)
    aggregates, conditions = plan_aggregate_specs(flock.filter, resolve)
    return lower_step(
        db,
        union.rules,
        [params + list(rule.head_terms) for rule in union.rules],
        tuple(param_cols) + head_cols,
        param_cols,
        aggregates,
        conditions,
        step.result_name,
        runtime_filters=runtime_filters,
    )


def execute_step(
    db: Database,
    flock: QueryFlock,
    step: FilterStep,
    guard: ExecutionGuard | None = None,
    sink=None,
    final_sink=None,
    runner=None,
    supervisor=None,
    runtime_filters: Collection[str] | None = None,
) -> tuple[Relation, int]:
    """Execute one FILTER step; return (ok-relation, answer-tuple count).

    The returned relation is named ``step.result_name`` with one column
    per step parameter.

    ``sink`` (a :class:`repro.session.SessionSink`, duck-typed) connects
    a *pre-filter* step to the session result cache: a cached containing
    result with an implied filter is served as the step's ok-relation
    directly — sound because a pre-filter ok only needs to be a superset
    of the true survivors (later steps, and always the final step,
    re-filter) — and a freshly computed ok is published for future
    sessions.  A served step reports 0 answer tuples: no base-relation
    join ran, and the runner is never reached.

    ``final_sink`` marks the *final* step: its survivors are computed
    together with their per-conjunct aggregate values and published as
    an exact, re-filterable entry.  The final step is never served from
    the cache here — an upper bound is not the answer; exact reuse
    happens one level up in :func:`repro.flocks.mining.mine`.

    ``runner`` is the step runner the lowered plan is handed to (see the
    module docstring); ``None`` runs it on a serial
    :class:`MemoryRunner`.  Aggregate values are only kept when a
    ``final_sink`` wants them.

    ``supervisor`` (a :class:`~repro.recovery.RetrySupervisor`) wraps
    the runner call in the retry rung of the recovery ladder: a
    transient fault re-runs the step after a guard-clamped backoff
    instead of aborting the whole evaluation.
    """
    param_cols = [str(p) for p in step.parameters]
    if sink is not None and final_sink is None:
        served = sink.serve_step(step.query, param_cols)
        if served is not None:
            return served.project(param_cols, name=step.result_name), 0

    step_plan = lower_filter_step(
        db, flock, step, runtime_filters=runtime_filters
    )
    if runner is None:
        runner = MemoryRunner(guard)

    def run() -> StepResult:
        trip("executor.step")
        return runner.run_step(step_plan, db, final_sink is not None)

    outcome = (
        run() if supervisor is None
        else supervisor.run(run, site=f"step:{step.result_name}")
    )
    if final_sink is not None:
        final_sink.publish_final(outcome.passed, outcome.answer_tuples)
    elif sink is not None:
        sink.publish_step(
            step.query, param_cols, outcome.result, outcome.answer_tuples
        )
    return outcome.result, outcome.answer_tuples


def execute_plan(
    db: Database,
    flock: QueryFlock,
    plan: QueryPlan,
    validate: bool = True,
    guard: GuardLike = None,
    sink=None,
    parallel=None,
    supervisor=None,
    recorder=None,
    runner=None,
) -> FlockResult:
    """Run a plan and return the flock result with a per-step trace.

    ``runner`` is the step runner every lowered step is handed to (see
    the module docstring).  ``None`` picks ``parallel`` when it has
    more than one job, else a serial :class:`MemoryRunner`; a given
    :class:`MemoryRunner` (the dynamic strategy's) reports the run's
    stage observations.

    Every run passes information sideways: once a pre-filter step's
    ok-relation materializes, its name joins the set of filter sources
    handed to every later step's lowering, so later scans that bind one
    of its parameter columns are pre-pruned to the survivor keys (see
    :class:`~repro.engine.ir.ScanFilter`), and the UES bounds read the
    survivor-key counts.

    ``validate=False`` skips the legality check for hot benchmark loops
    where the same plan is executed repeatedly.

    ``sink`` connects the run to a session result cache: pre-filter
    steps may be served from (and are published to) the cache, and the
    final step publishes its survivors with aggregate values for exact
    threshold-aware reuse (see :func:`execute_step`).

    ``guard`` bounds the execution.  Completed FILTER steps are recorded
    on the guard's partial trace as they finish, so a mid-plan abort
    raises :class:`~repro.errors.BudgetExceededError` (or
    :class:`~repro.errors.ExecutionCancelled`) whose ``trace`` lists
    exactly the steps that completed.

    ``parallel`` (a :class:`~repro.engine.parallel.ParallelExecutor`)
    is the partitioning runner: steps large enough for its process pool
    fan out, every other step runs on this loop's serial runner;
    results stay bit-identical to serial execution (see
    :mod:`repro.engine.partition`).

    ``supervisor`` threads the retry rung through every step (see
    :func:`execute_step`).

    ``recorder`` (a :class:`~repro.recovery.CheckpointRecorder`)
    makes each completed step durable: a step already completed by the
    run being resumed is *served* from its saved survivor set (its
    trace entry says so, with 0 input tuples — no join ran), and each
    freshly executed step's ok-relation is persisted before the next
    step starts, so a crash loses at most the step in flight.
    """
    guard = as_guard(guard)
    if validate:
        validate_plan(flock, plan)
    scratch = db.scratch()
    trace = ExecutionTrace()
    serial = runner if isinstance(runner, MemoryRunner) else MemoryRunner(guard)
    if runner is None:
        runner = serial
        if parallel is not None and parallel.jobs > 1:
            runner = _PoolRunner(parallel, serial)
    rf_sources: set[str] = set()
    result: Relation | None = None
    final_step = plan.final_step
    for step in plan.steps:
        started = time.perf_counter()
        served = (
            recorder.served(step.result_name) if recorder is not None else None
        )
        if served is not None:
            ok = served.project(
                [str(p) for p in step.parameters], name=step.result_name
            )
            answer_tuples = 0
            description = "resumed from checkpoint"
        else:
            ok, answer_tuples = execute_step(
                scratch, flock, step, guard=guard,
                sink=None if step is final_step else sink,
                final_sink=sink if step is final_step else None,
                runner=runner,
                supervisor=supervisor,
                runtime_filters=frozenset(rf_sources),
            )
            description = str(step.query).replace("\n", " | ")
            if recorder is not None:
                recorder.complete(step.result_name, ok)
        elapsed = time.perf_counter() - started
        scratch.add(ok)
        if step is not final_step:
            rf_sources.add(step.result_name)
        step_trace = StepTrace(
            name=step.result_name,
            description=description,
            input_tuples=answer_tuples,
            output_assignments=len(ok),
            seconds=elapsed,
        )
        trace.record(step_trace)
        result = ok
        if guard is not None:
            guard.record(step_trace)
            guard.checkpoint(rows=len(ok), node=step.result_name)

    assert result is not None  # QueryPlan guarantees >= 1 step
    # Present the final relation over the flock's canonical column order.
    final = result.project(list(flock.parameter_columns), name="flock")
    if guard is not None:
        guard.check_answer(len(final))
    if recorder is not None:
        recorder.finish()
    return FlockResult(
        final,
        trace,
        stage_rows=tuple(serial.observations),
        runtime_filter_rows_pruned=serial.rows_pruned,
    )
