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
from repro.datalog import atom, rule
from repro.engine.memory import MemoryEngine
from repro.errors import ExecutionCancelled
from repro.flocks import QueryFlock, parse_filter, single_step_plan
from repro.flocks.executor import lower_filter_step
from repro.guard import CancellationToken, ExecutionGuard
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
    real_group_aggregate = memory_module.group_aggregate

    def cancelling_aggregate(*args, **kwargs):
        calls.append(1)
        cancel.cancel()  # the client goes away mid-kernel
        return real_group_aggregate(*args, **kwargs)

    monkeypatch.setattr(
        memory_module, "group_aggregate", cancelling_aggregate
    )
    engine = MemoryEngine(db, guard=ExecutionGuard(cancel=cancel))
    with pytest.raises(ExecutionCancelled):
        engine.run_step(step_plan, need_aggregates=True)
    assert len(calls) == 1  # aborted before the second aggregate


def test_group_filter_unguarded_engine_still_completes(db):
    outcome = MemoryEngine(db).run_step(
        composite_step_plan(db), need_aggregates=True
    )
    assert len(outcome.passed) > 0
