"""Differential property tests: parallel execution vs serial.

The parallel executor's contract is *bit-identical* results for any
worker count — same survivor rows, same canonical column arrays, same
per-conjunct aggregates — across strategies, backends and join orders
(the UES bound order and an explicit permutation).
Hypothesis drives random small catalogs through the full mine()
pipeline at jobs in {1, 2, 4} and compares against the serial run.

Partitioning on tiny inputs exercises the edge cases that a benchmark
workload never hits: empty partitions, single-group relations, steps
whose partition column disappears after projection.  The executor
leaves inputs this small serial, so every test takes ``force_pool``
(tests/conftest.py) to push them through the process pool; on the
SQLite backend jobs is a no-op and the equality must hold trivially.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datalog import atom, comparison, negated, rule
from repro.engine import ParallelExecutor
from repro.flocks import QueryFlock, parse_filter
from repro.flocks.executor import lower_filter_step
from repro.flocks.mining import mine
from repro.flocks.plans import single_step_plan
from repro.flocks.sqlbackend import SQLiteBackend
from repro.engine.memory import MemoryEngine
from repro.relational import database_from_dict

from tests.properties.test_engine_differential import reordered_step_plan
from tests.survivor_oracle import survivors

values = st.integers(min_value=0, max_value=4)

r_rows = st.sets(st.tuples(values, values), max_size=20)
s_rows = st.sets(st.tuples(values, values), max_size=12)
bad_rows = st.sets(st.tuples(values), max_size=4)
thresholds = st.integers(min_value=1, max_value=4)

#: ``force_pool`` is function-scoped but sets the same constant for
#: every example, so sharing it across examples is harmless.
SHARED_FIXTURE = [HealthCheck.function_scoped_fixture]


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


def negation_flock(threshold):
    query = rule(
        "answer", ["B"], [atom("r", "B", "$1"), negated("bad", "B")]
    )
    return QueryFlock(query, parse_filter(f"COUNT(answer.B) >= {threshold}"))


def join_flock(threshold):
    query = rule(
        "answer", ["B"], [atom("r", "B", "$1"), atom("s", "$1", "C")]
    )
    return QueryFlock(query, parse_filter(f"COUNT(answer.B) >= {threshold}"))


FLOCK_MAKERS = [pair_flock, join_flock, negation_flock]


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@given(r=r_rows, s=s_rows, bad=bad_rows, threshold=thresholds)
@settings(max_examples=10, deadline=None, suppress_health_check=SHARED_FIXTURE)
def test_mine_identical_across_worker_counts(
    force_pool, jobs, backend, r, s, bad, threshold
):
    db = make_db(r, s, bad)
    flock = pair_flock(threshold)
    serial, _ = mine(
        db, flock, strategy="naive", backend=backend, parallelism=1,
    )
    parallel, report = mine(
        db, flock, strategy="naive", backend=backend, parallelism=jobs,
    )
    assert parallel.tuples == serial.tuples
    assert parallel.columns == serial.columns
    assert report.parallelism_requested == jobs
    assert not [d for d in report.downgrades if d.kind == "parallelism"]


@pytest.mark.parametrize("make_flock", FLOCK_MAKERS)
@given(r=r_rows, s=s_rows, bad=bad_rows, threshold=thresholds)
@settings(max_examples=15, deadline=None, suppress_health_check=SHARED_FIXTURE)
def test_step_output_bit_identical(
    force_pool, make_flock, r, s, bad, threshold
):
    """The executor level: merged survivor *arrays* equal serial ones
    (not just the row sets) — the canonical-merge contract."""
    db = make_db(r, s, bad)
    flock = make_flock(threshold)
    step = single_step_plan(flock, name="flock").final_step
    plan = lower_filter_step(db, flock, step)

    engine = MemoryEngine(db)
    answer = engine.run_answer(plan)
    expected = engine.run_step(plan).result
    _, expected_passed = survivors(answer, plan)

    with ParallelExecutor(2, db) as executor:
        outcome = executor.run_step(plan)
        with_aggs = executor.run_step(plan, need_aggregates=True)

    assert outcome.mode == "process"
    assert outcome.result.columns == expected.columns
    assert outcome.result.columns_data() == expected.columns_data()
    assert outcome.answer_tuples == len(answer)
    assert with_aggs.passed.tuples == expected_passed.tuples


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@given(r=r_rows, threshold=thresholds)
@settings(max_examples=10, deadline=None, suppress_health_check=SHARED_FIXTURE)
def test_explicit_order_identical_across_worker_counts(
    force_pool, backend, r, threshold
):
    """A second join order — the UES order reversed, as an explicit
    permutation — gives the UES order's survivors on the pool (memory)
    and on SQLite."""
    db = make_db(r, set(), set())
    flock = pair_flock(threshold)
    expected, _ = mine(db, flock, strategy="naive", parallelism=1)
    step_plan = reordered_step_plan(db, flock)
    if backend == "memory":
        with ParallelExecutor(2, db) as executor:
            outcome = executor.run_step(step_plan)
        assert outcome.mode == "process"
    else:
        with SQLiteBackend(db) as runner:
            outcome = runner.run_step(step_plan)
    assert outcome.result.tuples == expected.tuples


@pytest.mark.parametrize("strategy", ["optimized", "dynamic"])
@given(r=r_rows, threshold=thresholds)
@settings(max_examples=8, deadline=None, suppress_health_check=SHARED_FIXTURE)
def test_strategies_agree_under_parallelism(
    force_pool, strategy, r, threshold
):
    db = make_db(r, set(), set())
    flock = pair_flock(threshold)
    serial, _ = mine(db, flock, strategy=strategy, parallelism=1)
    parallel, _ = mine(db, flock, strategy=strategy, parallelism=4)
    assert parallel.tuples == serial.tuples
