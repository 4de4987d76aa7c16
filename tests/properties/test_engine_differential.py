"""Differential property tests: memory engine vs SQLite backend.

Both backends interpret the same lowered :class:`StepPlan` — the
in-memory engine directly, SQLite via the SQL rendering — so for any
flock over any catalog they must produce the identical survivor set
*and* the identical per-conjunct aggregate values.  Hypothesis drives
random small catalogs through several flock shapes (single scan,
self-join pair, extra join, negation, composite filters) and compares
row for row.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import atom, comparison, negated, rule
from repro.engine.memory import MemoryEngine
from repro.engine.planner import lower_rule
from repro.flocks import (
    QueryFlock,
    evaluate_flock,
    evaluate_flock_dynamic,
    parse_filter,
    single_step_plan,
)
from repro.flocks.executor import lower_filter_step
from repro.flocks.sqlbackend import SQLiteBackend
from repro.relational import database_from_dict

values = st.integers(min_value=0, max_value=4)

r_rows = st.sets(st.tuples(values, values), max_size=20)
s_rows = st.sets(st.tuples(values, values), max_size=12)
bad_rows = st.sets(st.tuples(values), max_size=4)
thresholds = st.integers(min_value=1, max_value=4)


def make_db(r, s, bad):
    return database_from_dict(
        {
            "r": (("B", "I"), r),
            "s": (("I", "C"), s),
            "bad": (("B",), bad),
        }
    )


def pair_flock(threshold):
    query = rule(
        "answer",
        ["B"],
        [atom("r", "B", "$1"), atom("r", "B", "$2"),
         comparison("$1", "<", "$2")],
    )
    return QueryFlock(query, parse_filter(f"COUNT(answer.B) >= {threshold}"))


def single_flock(threshold):
    query = rule("answer", ["B"], [atom("r", "B", "$1")])
    return QueryFlock(query, parse_filter(f"COUNT(answer.B) >= {threshold}"))


def join_flock(threshold):
    query = rule(
        "answer", ["B"], [atom("r", "B", "$1"), atom("s", "$1", "C")]
    )
    return QueryFlock(query, parse_filter(f"COUNT(answer.B) >= {threshold}"))


def negation_flock(threshold):
    query = rule(
        "answer", ["B"], [atom("r", "B", "$1"), negated("bad", "B")]
    )
    return QueryFlock(query, parse_filter(f"COUNT(answer.B) >= {threshold}"))


def composite_flock(threshold):
    query = rule("answer", ["B"], [atom("r", "B", "$1")])
    return QueryFlock(
        query,
        parse_filter(
            f"COUNT(answer.B) >= {threshold} AND SUM(answer.B) >= {threshold}"
        ),
    )


FLOCK_MAKERS = [
    single_flock,
    pair_flock,
    join_flock,
    negation_flock,
    composite_flock,
]


def naive_step_plan(db, flock):
    return lower_filter_step(db, flock, single_step_plan(flock).final_step)


def reversed_order(db, flock) -> list[int]:
    """A second join order for a one-rule flock: the UES order
    backwards, as an explicit permutation."""
    branch = naive_step_plan(db, flock).branches[0]
    return list(reversed(branch.order))


def reordered_step_plan(db, flock):
    """The single-step plan with its branch lowered again in
    :func:`reversed_order` — the plan both backends run for it."""
    step_plan = naive_step_plan(db, flock)
    branch = step_plan.branches[0]
    reordered = lower_rule(
        db, branch.query, branch.root.output_terms, branch.root.columns,
        join_order=reversed_order(db, flock),
    )
    return dataclasses.replace(step_plan, branches=(reordered,))


@pytest.mark.parametrize("make_flock", FLOCK_MAKERS)
@given(r=r_rows, s=s_rows, bad=bad_rows, threshold=thresholds)
@settings(max_examples=25, deadline=None)
def test_survivors_identical(make_flock, r, s, bad, threshold):
    db = make_db(r, s, bad)
    flock = make_flock(threshold)
    in_memory = evaluate_flock(db, flock)
    with SQLiteBackend(db) as backend:
        on_sqlite = backend.evaluate_flock(flock)
    assert in_memory.tuples == on_sqlite.tuples
    assert in_memory.columns == on_sqlite.columns


@pytest.mark.parametrize("make_flock", FLOCK_MAKERS)
@given(r=r_rows, s=s_rows, bad=bad_rows, threshold=thresholds)
@settings(max_examples=25, deadline=None)
def test_aggregate_values_identical(make_flock, r, s, bad, threshold):
    """Both runners hand back the same ``passed`` relation — survivors
    with one ``_agg{i}`` column per conjunct, what the session cache
    stores — column for column."""
    db = make_db(r, s, bad)
    step_plan = naive_step_plan(db, make_flock(threshold))
    in_memory = MemoryEngine(db).run_step(
        step_plan, need_aggregates=True
    ).passed
    with SQLiteBackend(db) as backend:
        on_sqlite = backend.run_step(step_plan, need_aggregates=True).passed
    assert in_memory.columns == on_sqlite.columns
    assert in_memory.tuples == on_sqlite.tuples


@given(r=r_rows, threshold=thresholds)
@settings(max_examples=15, deadline=None)
def test_ues_order_agrees_across_backends(r, threshold):
    """The UES order and an explicit permutation give one survivor set
    on both backends (the explicit order in memory is the dynamic
    evaluator's pinned ``join_order``)."""
    db = make_db(r, set(), set())
    flock = pair_flock(threshold)
    in_memory = evaluate_flock(db, flock)
    explicit, _ = evaluate_flock_dynamic(
        db, flock, join_order=reversed_order(db, flock)
    )
    with SQLiteBackend(db) as backend:
        on_sqlite = backend.evaluate_flock(flock)
        explicit_sqlite = backend.run_step(
            reordered_step_plan(db, flock)
        ).result
    assert in_memory.tuples == on_sqlite.tuples
    assert explicit.relation.tuples == in_memory.tuples
    assert explicit_sqlite.tuples == in_memory.tuples
