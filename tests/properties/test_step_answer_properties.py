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

A COUNT step's last stage has two bodies, index pairs and bitmaps
(AND + popcount), picked by a size rule (``memory.bitmap_pays``).  Every
generated step, and every dynamic run, goes through both — the rule is
forced each way — and must agree on survivors, aggregates, answer
tuples, stage actuals and decisions; named cases pin the bitmap body's
edge shapes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.engine.memory as memory
from repro.analysis import plan_verification
from repro.datalog import UnionQuery, atom, comparison, negated, rule
from repro.engine import ParallelExecutor
from repro.engine.memory import MemoryEngine
from repro.errors import EvaluationError
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


@st.composite
def count_flocks(draw):
    """A flock of the bitmap body's shape: head ``(B)``, one or two
    COUNT conjuncts over ``B``, one ``r(B, $i)`` per parameter (two or
    three: one parameter would be a single stage), comparisons between
    parameters and against constants, and a ``NOT bad(B)``."""
    params = [f"${i + 1}" for i in range(draw(st.integers(2, 3)))]
    body = [atom("r", "B", p) for p in params]
    if draw(st.booleans()):
        body.append(comparison(params[0], draw(st.sampled_from(["<", "!="])),
                               params[-1]))
    if draw(st.booleans()):
        body.append(comparison(draw(st.sampled_from(params)),
                               draw(st.sampled_from([">", "<=", "!="])),
                               draw(values)))
    if draw(st.booleans()):
        body.append(negated("bad", "B"))
    counts = [f"COUNT(answer{draw(st.sampled_from(['(*)', '.B']))}) >= "
              f"{draw(st.integers(1, 3))}"
              for _ in range(draw(st.integers(1, 2)))]
    return QueryFlock(rule("answer", ["B"], body),
                      parse_filter(" AND ".join(counts)))


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


def both_bodies(run):
    """``run()`` with the size rule forced to the pair body, then to the
    bitmap body (where the step's shape allows it)."""
    outcomes = []
    for body in ("pairs", "bitmap"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(memory, "bitmap_pays", lambda *_, b=body: b == "bitmap")
            outcomes.append(run())
    return outcomes


def step_run(db, plan, need_aggregates):
    """One ``run_step``: the outcome, its survivor rows in array order,
    and the stage log as (actual, kernel) pairs."""
    engine = MemoryEngine(db)
    outcome = engine.run_step(plan, need_aggregates=need_aggregates)
    rows = list(zip(*outcome.result.columns_data()))
    return outcome, rows, [(o.actual, o.kernel) for o in engine.stage_log]


def assert_bodies_agree(db, plan):
    """Both bodies answer alike; returns the bitmap run's kernels."""
    for need_aggregates in (False, True):
        (pairs, pair_rows, pair_log), (bits, bit_rows, bit_log) = both_bodies(
            lambda: step_run(db, plan, need_aggregates)
        )
        assert bit_rows == pair_rows
        assert bits.result == pairs.result
        assert bits.passed == pairs.passed
        assert bits.answer_tuples == pairs.answer_tuples
        assert [a for a, _ in bit_log] == [a for a, _ in pair_log]
        assert {k for _, k in pair_log} == {"pairs"}
    return [k for _, k in bit_log]


@given(db=databases(), flock=st.one_of(flocks(monotone=True), count_flocks()))
@settings(max_examples=150, deadline=None)
def test_both_last_stage_bodies_agree(db, flock):
    assert_bodies_agree(db, lowered(db, flock))


@given(db=databases(),
       flock=st.one_of(flocks(monotone=True, union=False), count_flocks()))
@settings(max_examples=60, deadline=None)
def test_dynamic_decides_alike_in_both_bodies(db, flock):
    def run():
        evaluator = DynamicEvaluator(db, flock)
        got = evaluator.evaluate()
        trace = evaluator.last_trace
        return got.relation.tuples, trace.decisions, trace.plan_lines

    pairs, bits = both_bodies(run)
    assert bits == pairs


B, I = "B", "I"
NAMED = {
    # One side binds no parameter: the pinned-word shape.
    "side with no parameter": ([atom("r", B, 1), atom("r", B, "$2")],
                               "COUNT(answer.B) >= 1"),
    "side with two parameters": (
        [atom("r", B, "$1"), atom("r", B, "$2"), atom("r", B, "$3")],
        "COUNT(answer.B) >= 1",
    ),
    "parameter against a constant": (
        [atom("r", B, "$1"), atom("r", B, "$2"), comparison("$2", "!=", 5)],
        "COUNT(answer.B) >= 1",
    ),
    "COUNT(answer(*)) with head (B)": (
        [atom("r", B, "$1"), atom("r", B, "$2"), comparison("$1", "<", "$2")],
        "COUNT(answer(*)) >= 2",
    ),
    "two COUNT conjuncts": (
        [atom("r", B, "$1"), atom("r", B, "$2"), comparison("$1", "<", "$2")],
        "COUNT(answer.B) >= 1 AND COUNT(answer(*)) >= 2",
    ),
    "an empty side": ([atom("r", B, "$1"), atom("none", B, "$2")],
                      "COUNT(answer.B) >= 1"),
    # An int and a string share no basket: ``$1 < $2`` would raise on
    # them, but a zero-count candidate is never compared.
    "zero-count candidates": (
        [atom("r", B, "$1"), atom("r", B, "$2"), comparison("$1", "<", "$2")],
        "COUNT(answer.B) >= 1",
    ),
}

#: ``r``'s items are ints in baskets 0-3 and strings in baskets 4-5: a
#: key pair of an int and a string shares no basket (a zero count).
MIXED = {
    "r": ((B, I), {(b, i) for b in range(4) for i in range(6) if (b + i) % 3}
          | {(b, s) for b in (4, 5) for s in "xyz"}),
    "none": ((B, I), set()),
}


@pytest.mark.parametrize("case", sorted(NAMED))
def test_named_shapes_take_the_bitmap_body(case):
    body, condition = NAMED[case]
    db = database_from_dict(MIXED)
    flock = QueryFlock(rule("answer", [B], body), parse_filter(condition))
    plan = lowered(db, flock)
    assert assert_bodies_agree(db, plan)[-1] == "bitmap"


def test_mixed_type_comparison_raises_from_both_bodies():
    db = database_from_dict({"r": ((B, I), {(0, 1), (0, "x"), (1, 2)})})
    flock = QueryFlock(
        rule("answer", [B], [atom("r", B, "$1"), atom("r", B, "$2"),
                             comparison("$1", "<", "$2")]),
        parse_filter("COUNT(answer.B) >= 1"),
    )
    plan = lowered(db, flock)

    def run():
        engine = MemoryEngine(db)
        with pytest.raises(EvaluationError):
            engine.run_step(plan)
        return [o.kernel for o in engine.stage_log]

    assert both_bodies(run) == [["pairs"], ["pairs"]]  # only stage 0 ran
