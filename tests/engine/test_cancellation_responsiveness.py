"""Kernel loops must notice cancellation *between* iterations.

The conlint cancellation pass statically requires every hot loop in the
engine to poll the guard; these tests pin the runtime behavior those
checkpoints buy.  A cancel that lands mid-loop (after the first filter
or aggregate of several) must abort before the next iteration runs —
before the in-loop checkpoints, the whole loop finished first and the
cancel was only seen at the stage boundary.
"""

from __future__ import annotations

import pytest

import repro.engine.memory as memory_module
from repro.datalog import atom, comparison, rule
from repro.engine.memory import MemoryEngine
from repro.errors import BudgetExceededError, ExecutionCancelled
from repro.flocks import QueryFlock, parse_filter, single_step_plan
from repro.flocks.executor import lower_filter_step
from repro.guard import CancellationToken, ExecutionGuard, ResourceBudget
from repro.relational import database_from_dict


@pytest.fixture
def db():
    return database_from_dict(
        {"r": (("B", "I"), {(b, i) for b in range(4) for i in range(3)})}
    )


def composite_flock():
    query = rule("answer", ["B"], [atom("r", "B", "$1")])
    return QueryFlock(
        query,
        parse_filter("COUNT(answer.B) >= 1 AND SUM(answer.B) >= 1"),
    )


def composite_step_plan(db):
    flock = composite_flock()
    return lower_filter_step(db, flock, single_step_plan(flock).final_step)


def test_group_filter_aborts_between_aggregates(db, monkeypatch):
    """Cancel lands after the first of two aggregate kernels: the
    second must never run."""
    step_plan = composite_step_plan(db)
    assert len(step_plan.group.aggregates) == 2  # COUNT and SUM conjuncts

    cancel = CancellationToken()
    calls = []
    real_group_values = memory_module.group_values

    def cancelling_aggregate(*args):
        calls.append(1)
        cancel.cancel()  # the client goes away mid-kernel
        return real_group_values(*args)

    monkeypatch.setattr(memory_module, "group_values", cancelling_aggregate)
    engine = MemoryEngine(db, guard=ExecutionGuard(cancel=cancel))
    with pytest.raises(ExecutionCancelled):
        engine.run_step(step_plan, need_aggregates=True)
    assert len(calls) == 1  # aborted before the second aggregate


def test_group_filter_unguarded_engine_still_completes(db):
    outcome = MemoryEngine(db).run_step(
        composite_step_plan(db), need_aggregates=True
    )
    assert len(outcome.passed) > 0


def pair_step_plan(db):
    """A support step whose last stage carries two filters."""
    query = rule(
        "answer", ["B"],
        [atom("r", "B", "$1"), atom("r", "B", "$2"),
         comparison("$1", "!=", "$2"), comparison("$2", "!=", 5)],
    )
    flock = QueryFlock(query, parse_filter("COUNT(answer.B) >= 1"))
    step_plan = lower_filter_step(db, flock, single_step_plan(flock).final_step)
    assert len(step_plan.branches[0].stages[-1].filters) == 2
    return step_plan


def test_counting_pass_aborts_between_filter_masks(db, monkeypatch):
    """Cancel lands while the first mask of the last stage is being
    built: the second mask and the counting must never run."""
    cancel = CancellationToken()
    masks, counted = [], []
    real_mask = MemoryEngine._filter_mask

    def cancelling_mask(self, *args):
        masks.append(1)
        cancel.cancel()
        return real_mask(self, *args)

    monkeypatch.setattr(MemoryEngine, "_filter_mask", cancelling_mask)
    monkeypatch.setattr(
        memory_module, "group_values", lambda *a: counted.append(1)
    )
    engine = MemoryEngine(db, guard=ExecutionGuard(cancel=cancel))
    with pytest.raises(ExecutionCancelled):
        engine.run_step(pair_step_plan(db))
    assert masks == [1] and counted == []


def test_counting_pass_trips_row_budget(db, monkeypatch):
    """The last stage's surviving rows are checked against the budget
    after each mask, before anything is counted: the first stage scans
    12 rows, the last one keeps 4 baskets x 6 ordered pairs = 24."""
    counted = []
    monkeypatch.setattr(
        memory_module, "group_values", lambda *a: counted.append(1)
    )
    engine = MemoryEngine(
        db, guard=ResourceBudget(max_intermediate_rows=20).start()
    )
    with pytest.raises(BudgetExceededError) as info:
        engine.run_step(pair_step_plan(db))
    assert [o.actual for o in engine.stage_log] == [12]  # first stage ran
    assert counted == []
    assert info.value.trace is not None


def test_pair_step_plan_takes_the_bitmap_body(db):
    """The two tests above run the bitmap body by default; the next one
    runs them through each body."""
    engine = MemoryEngine(db)
    engine.run_step(pair_step_plan(db))
    assert [o.kernel for o in engine.stage_log] == ["pairs", "bitmap"]


@pytest.mark.parametrize("body", ["pairs", "bitmap"])
@pytest.mark.parametrize(
    "scenario",
    [test_counting_pass_aborts_between_filter_masks,
     test_counting_pass_trips_row_budget],
)
def test_each_last_stage_body_stops_between_masks(db, monkeypatch, body, scenario):
    monkeypatch.setattr(
        memory_module, "bitmap_pays", lambda *_: body == "bitmap"
    )
    scenario(db, monkeypatch)
