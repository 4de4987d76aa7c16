"""Differential property: the counting join against the materialised
answer.

``MemoryEngine.run_step`` counts the last join stage of a support step
instead of building its answer (``count_join``); the reference here
builds the answer (``run_answer``) and groups it with an independent
oracle (``tests/survivor_oracle.py``).  Random single-rule flocks cover
what the kernel evaluates as masks and keys: 2–3 positive subgoals,
comparisons between columns and against constants, a negated subgoal,
existential variables the COUNT target does not cover, 1–3 parameters
and support thresholds — plus SUM, MIN, MAX and conjunctions, which
materialise the answer and meet the same survivor kernel.  The dynamic
strategy's in-flight FILTERs (counted for support, grouped otherwise)
are checked against ``naive``, with plan verification on and off.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import plan_verification
from repro.datalog import atom, comparison, negated, rule
from repro.engine import ParallelExecutor
from repro.engine.memory import MemoryEngine
from repro.flocks import QueryFlock, parse_filter
from repro.flocks.dynamic import DynamicEvaluator
from repro.flocks.executor import lower_filter_step
from repro.flocks.mining import mine
from repro.flocks.optimizer import FlockOptimizer
from repro.flocks.plans import single_step_plan
from repro.relational import database_from_dict

from tests.survivor_oracle import survivors

values = st.integers(min_value=0, max_value=4)
pairs = st.sets(st.tuples(values, values), max_size=24)

#: ``force_pool`` sets the same constant for every example.
SHARED_FIXTURE = [HealthCheck.function_scoped_fixture]


@st.composite
def databases(draw):
    return database_from_dict(
        {
            "r": (("B", "I"), draw(pairs)),
            "s": (("I", "C"), draw(pairs)),
            "bad": (("B",), draw(st.sets(st.tuples(values), max_size=3))),
        }
    )


@st.composite
def flocks(draw, monotone=False):
    """A random single-rule flock with a support filter — or, with
    ``monotone``, possibly a SUM/MIN/MAX one or a conjunction."""
    params = [f"${i + 1}" for i in range(draw(st.integers(1, 3)))]
    body = [atom("r", "B", p) for p in params]
    extras = [atom("s", params[0], "C"), atom("s", "E", params[-1]),
              atom("r", "E", params[0]), atom("s", "B", "C")]
    while len(body) < 2 or (len(body) < 3 and draw(st.booleans())):
        body.append(draw(st.sampled_from(extras)))
    bound = {str(t) for a in body for t in a.terms}
    variables = sorted(v for v in bound if not v.startswith("$"))
    if len(params) > 1 and draw(st.booleans()):
        body.append(comparison(params[0], draw(st.sampled_from(["<", "!="])),
                               params[1]))
    if draw(st.booleans()):
        body.append(comparison(
            draw(st.sampled_from(params + variables)),
            draw(st.sampled_from([">", "<=", "!="])),
            draw(values),
        ))
    if draw(st.booleans()):
        body.append(negated("bad", draw(st.sampled_from(["B"] + params))))
    # Head variables; the rest (I, C or E when bound) stay existential.
    head = ["B"] + [
        v for v in variables if v != "B" and draw(st.booleans())
    ]
    target = draw(st.sampled_from(["(*)"] + [f".{v}" for v in head]))
    op = draw(st.sampled_from([">=", ">"]))
    least = 1 if op == ">=" else 0  # an empty answer must fail the filter
    condition = f"COUNT(answer{target}) {op} {draw(st.integers(least, 3))}"
    if monotone:
        other = draw(st.sampled_from(
            ["SUM(answer.B) >= {}", "MIN(answer.B) <= {}", "MAX(answer.B) >= {}"]
        )).format(draw(values))
        condition = draw(st.sampled_from(
            [condition, other, f"{condition} AND {other}"]
        ))
    return QueryFlock(rule("answer", head, body), parse_filter(condition))


def lowered(db, flock):
    return lower_filter_step(db, flock, single_step_plan(flock).final_step)


def reference(db, plan):
    engine = MemoryEngine(db)
    answer = engine.run_answer(plan)
    result, passed = survivors(answer, plan)
    return result, passed, len(answer), engine


@given(db=databases(), flock=flocks(monotone=True))
@settings(max_examples=150, deadline=None)
def test_run_step_matches_materialised_answer(db, flock):
    plan = lowered(db, flock)
    result, passed, answer_tuples, ref = reference(db, plan)
    for need_aggregates in (False, True):
        engine = MemoryEngine(db)
        outcome = engine.run_step(plan, need_aggregates=need_aggregates)
        assert outcome.result == result
        assert outcome.result.name == result.name
        # canonical order: the column arrays are sorted by row repr
        assert list(zip(*outcome.result.columns_data())) == sorted(
            result.tuples, key=repr
        )
        assert outcome.answer_tuples == answer_tuples
        assert outcome.passed == (passed if need_aggregates else None)
        assert [o.actual for o in engine.stage_log] == [
            o.actual for o in ref.stage_log
        ]


@given(db=databases(), flock=flocks())
@settings(max_examples=60, deadline=None)
def test_plan_steps_match_materialised_answer(db, flock):
    """Every step of the a-priori plans, pre-filters and the final step
    whose ok-atoms may trail as semi-joins (counted as masks)."""
    for plan in FlockOptimizer(db, flock).enumerate_plans()[:4]:
        scratch = db.scratch()
        for step in plan.steps:
            physical = lower_filter_step(scratch, flock, step)
            result, _, answer_tuples, ref = reference(scratch, physical)
            engine = MemoryEngine(scratch)
            outcome = engine.run_step(physical)
            assert outcome.result == result
            assert outcome.answer_tuples == answer_tuples
            assert [o.actual for o in engine.stage_log] == [
                o.actual for o in ref.stage_log
            ]
            scratch.add(result)


# Verification off is the library default (and what the e2e workloads
# run); the suite's autouse fixture turns it on everywhere else.
@pytest.mark.parametrize("verify", [True, False])
@given(db=databases(), flock=flocks(monotone=True))
@settings(max_examples=100, deadline=None)
def test_dynamic_counting_matches_grouping_and_naive(verify, db, flock):
    """In-flight FILTERs count a support filter's groups and aggregate
    any other filter's; both meet the survivor kernel, and dynamic must
    answer exactly what ``naive`` and the oracle do."""
    evaluator = DynamicEvaluator(db, flock)
    with plan_verification(verify):
        got = evaluator.evaluate()
    naive, _ = mine(db, flock, strategy="naive", parallelism=1)
    plan = lowered(db, flock)
    oracle, _ = survivors(MemoryEngine(db).run_answer(plan), plan)
    assert got.relation.tuples == naive.tuples == oracle.tuples
    *inflight, root = evaluator.last_trace.decisions
    assert root.node == "root" and root.size_after == len(got.relation)
    for decision in inflight:
        assert decision.size_after <= decision.size_before
        if not decision.filtered:
            assert decision.size_after == decision.size_before


@given(db=databases(), flock=flocks())
@settings(
    max_examples=12, deadline=None, suppress_health_check=SHARED_FIXTURE
)
def test_pooled_partitions_count_like_the_reference(force_pool, db, flock):
    """Under ``force_pool`` every partition counts its own share of the
    groups; the merge must equal the materialised reference."""
    plan = lowered(db, flock)
    result, passed, answer_tuples, _ = reference(db, plan)
    with ParallelExecutor(2, db) as executor:
        outcome = executor.run_step(plan, need_aggregates=True)
    assert outcome.mode == "process"
    assert outcome.result.tuples == result.tuples
    assert outcome.passed.tuples == passed.tuples
    assert outcome.answer_tuples == answer_tuples
