"""Differential property: the step body's answer against independent
references.

``MemoryEngine.run_step`` reads each rule branch's answer through its
last join's index pairs and collapses it to distinct rows only when the
output drops a pair column or several branches union.  The reference
here builds each branch's answer as a decoded row set and unions those
sets (``reference_answer``), then groups it with an independent oracle
(``tests/survivor_oracle.py``); a second test checks the literal
Section 2 semantics (``evaluate_flock_bruteforce``).  Random flocks
cover what the kernel evaluates as masks and keys: 2–3 positive
subgoals, comparisons between columns and against constants, a negated
subgoal, existential variables the head leaves out, 1–3 parameters,
constant and repeated head terms, two-branch unions, support
thresholds and SUM, MIN, MAX (over any head variable) and conjunctions.
The dynamic strategy's in-flight FILTERs are checked against ``naive``,
with plan verification on and off.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import plan_verification
from repro.datalog import UnionQuery, atom, comparison, negated, rule
from repro.engine import ParallelExecutor
from repro.engine.memory import MemoryEngine
from repro.flocks import QueryFlock, parse_filter
from repro.flocks.dynamic import DynamicEvaluator
from repro.flocks.executor import lower_filter_step
from repro.flocks.mining import mine
from repro.flocks.naive import evaluate_flock_bruteforce
from repro.flocks.optimizer import FlockOptimizer
from repro.flocks.plans import single_step_plan
from repro.relational import Relation, database_from_dict

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
def bodies(draw, params):
    """A random safe body over ``params``, and its variables."""
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
    return body, variables


@st.composite
def flocks(draw, monotone=False, union=True):
    """A random flock with a support filter — or, with ``monotone``,
    possibly a SUM/MIN/MAX one or a conjunction.  The head may repeat a
    variable or carry a constant; with ``union``, a second branch of
    the same arity may join it (then the filter is
    ``COUNT(answer(*))``, the one target a union admits)."""
    params = [f"${i + 1}" for i in range(draw(st.integers(1, 3)))]
    body, variables = draw(bodies(params))
    # Head variables; the rest (I, C or E when bound) stay existential.
    head: list = ["B"] + [
        v for v in variables if v != "B" and draw(st.booleans())
    ]
    targets = list(head)
    if draw(st.booleans()):
        head.append(draw(st.sampled_from(targets)))
    if draw(st.booleans()):
        head.insert(draw(st.integers(0, len(head))), draw(values))
    rules = [rule("answer", head, body)]
    if union and draw(st.booleans()):
        other, others = draw(bodies(params))
        rules.append(rule("answer", [
            term if isinstance(term, int) else draw(st.sampled_from(others))
            for term in head
        ], other))
    if len(rules) > 1:
        targets = []  # a union's filter targets the whole answer tuple
    target = draw(st.sampled_from(["(*)"] + [f".{v}" for v in targets]))
    op = draw(st.sampled_from([">=", ">"]))
    least = 1 if op == ">=" else 0  # an empty answer must fail the filter
    condition = f"COUNT(answer{target}) {op} {draw(st.integers(least, 3))}"
    if monotone and targets:
        other = draw(st.sampled_from(
            ["SUM(answer.{}) >= {}", "MIN(answer.{}) <= {}",
             "MAX(answer.{}) >= {}"]
        )).format(draw(st.sampled_from(targets)), draw(values))
        condition = draw(st.sampled_from(
            [condition, other, f"{condition} AND {other}"]
        ))
    query = rules[0] if len(rules) == 1 else UnionQuery(tuple(rules))
    return QueryFlock(query, parse_filter(condition))


def lowered(db, flock):
    return lower_filter_step(db, flock, single_step_plan(flock).final_step)


def reference_answer(db, plan):
    """The step's answer as the union of each branch's decoded row set,
    and the engine that built it."""
    engine = MemoryEngine(db)
    rows = set()
    for branch in plan.branches:
        rows |= engine.run_plan(branch).tuples
    return Relation("answer", plan.answer_columns, rows), engine


def reference(db, plan):
    answer, engine = reference_answer(db, plan)
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


@given(db=databases(), flock=flocks(monotone=True))
@settings(max_examples=40, deadline=None)
def test_run_step_matches_bruteforce(db, flock):
    """The literal Section 2 semantics: every parameter assignment
    instantiated, its answer built and filtered on its own."""
    outcome = MemoryEngine(db).run_step(lowered(db, flock))
    assert outcome.result.tuples == evaluate_flock_bruteforce(db, flock).tuples


@given(db=databases(), flock=flocks(union=False))
@settings(max_examples=60, deadline=None)
def test_plan_steps_match_materialised_answer(db, flock):
    """Every step of the a-priori plans (``FlockOptimizer`` plans
    single-rule flocks), pre-filters and the final step whose ok-atoms
    may trail as semi-joins (masks on the last pairs)."""
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
@given(db=databases(), flock=flocks(monotone=True, union=False))
@settings(max_examples=100, deadline=None)
def test_dynamic_counting_matches_grouping_and_naive(verify, db, flock):
    """In-flight FILTERs group the running relation once per conjunct
    and meet the survivor kernel; dynamic must answer exactly what
    ``naive`` and the oracle do."""
    evaluator = DynamicEvaluator(db, flock)
    with plan_verification(verify):
        got = evaluator.evaluate()
    naive, _ = mine(db, flock, strategy="naive", parallelism=1)
    plan = lowered(db, flock)
    oracle, _ = survivors(reference_answer(db, plan)[0], plan)
    assert got.relation.tuples == naive.tuples == oracle.tuples
    *inflight, root = evaluator.last_trace.decisions
    assert root.node == "root" and root.size_after == len(got.relation)
    for decision in inflight:
        assert decision.size_after <= decision.size_before
        if not decision.filtered:
            assert decision.size_after == decision.size_before


@given(db=databases(), flock=flocks(monotone=True))
@settings(
    max_examples=12, deadline=None, suppress_health_check=SHARED_FIXTURE
)
def test_pooled_partitions_count_like_the_reference(force_pool, db, flock):
    """Under ``force_pool`` every partition reads its own share of the
    groups; the merge must equal the reference."""
    plan = lowered(db, flock)
    result, passed, answer_tuples, _ = reference(db, plan)
    with ParallelExecutor(2, db) as executor:
        outcome = executor.run_step(plan, need_aggregates=True)
    assert outcome.mode == "process"
    assert outcome.result.tuples == result.tuples
    assert outcome.passed.tuples == passed.tuples
    assert outcome.answer_tuples == answer_tuples
