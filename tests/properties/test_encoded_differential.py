"""Differential property tests: encoded fast paths vs the row-set paths.

Every relational operator and engine kernel carries two implementations
since the columnar refactor — a vectorized path over dictionary codes
(taken when the inputs are encoded against one shared dictionary) and
the legacy path over value arrays.  Their outputs must be identical as
*sets of rows* for any input, including the inputs benchmarks never
produce: empty relations, single-column relations, and mixed non-string
value types whose Python equality semantics (``1 == 1.0 == True``) the
dictionary must reproduce exactly.

Each test builds the same logical relation twice — once encoded, once
plain — runs both through one operator, and compares.  The engine-level
test runs a full FILTER step under ``MemoryEngine(encode_scans=...)``
both ways and compares the canonical output arrays bit-for-bit.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import atom, comparison, negated, rule
from repro.engine.memory import MemoryEngine
from repro.flocks import QueryFlock, parse_filter
from repro.flocks.executor import lower_filter_step
from repro.flocks.plans import single_step_plan
from repro.relational import ValueDictionary, database_from_dict
from repro.relational.aggregates import AggregateFunction, group_aggregate
from repro.relational.operators import (
    anti_join,
    cartesian_product,
    natural_join,
    semi_join,
)
from repro.relational.relation import Relation

from tests.survivor_oracle import survivors

# Mixed types on purpose: 1 / 1.0 / True collapse under Python equality
# and must collapse identically in code space.
values = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from(["a", "b", "", "1"]),
    st.booleans(),
    st.sampled_from([1.0, 2.5]),
    st.none(),
)
numbers = st.integers(min_value=-5, max_value=5)


def encoded_copy(relation: Relation, dictionary: ValueDictionary) -> Relation:
    """The same logical relation, born on the encoded representation."""
    columns = relation.columns_data()
    return Relation.from_encoded(
        relation.name,
        relation.columns,
        [dictionary.encode_column(col) for col in columns],
        dictionary,
        count=len(relation),
    )


def assert_same(left: Relation, right: Relation) -> None:
    assert left.columns == right.columns
    assert set(left.tuples) == set(right.tuples)
    assert len(left) == len(right)


ab_rows = st.sets(st.tuples(values, values), max_size=12)
bc_rows = st.sets(st.tuples(values, values), max_size=12)


@given(left=ab_rows, right=bc_rows)
@settings(max_examples=40, deadline=None)
def test_joins_encoded_vs_legacy(left, right):
    plain_l = Relation("l", ("A", "B"), left)
    plain_r = Relation("r", ("B", "C"), right)
    dictionary = ValueDictionary()
    enc_l = encoded_copy(plain_l, dictionary)
    enc_r = encoded_copy(plain_r, dictionary)
    for op in (natural_join, semi_join, anti_join):
        assert_same(op(enc_l, enc_r), op(plain_l, plain_r))


@given(left=ab_rows, right=st.sets(st.tuples(values), max_size=4))
@settings(max_examples=25, deadline=None)
def test_cartesian_encoded_vs_legacy(left, right):
    plain_l = Relation("l", ("A", "B"), left)
    plain_r = Relation("r", ("C",), right)
    dictionary = ValueDictionary()
    assert_same(
        cartesian_product(
            encoded_copy(plain_l, dictionary), encoded_copy(plain_r, dictionary)
        ),
        cartesian_product(plain_l, plain_r),
    )


@given(rows=ab_rows, value=values)
@settings(max_examples=40, deadline=None)
def test_select_project_take_encoded_vs_legacy(rows, value):
    plain = Relation("t", ("A", "B"), rows)
    encoded = encoded_copy(plain, ValueDictionary())
    assert_same(encoded.select_eq("A", value), plain.select_eq("A", value))
    for cols in (["A"], ["B"], ["B", "A"], ["A", "B"]):
        assert_same(encoded.project(cols), plain.project(cols))
    indexes = list(range(0, len(plain), 2))
    assert_same(encoded.take(indexes), plain.take(indexes))
    assert encoded.distinct_count("A") == plain.distinct_count("A")


@given(rows=st.sets(st.tuples(values, numbers, numbers), max_size=15))
@settings(max_examples=40, deadline=None)
def test_group_aggregate_encoded_vs_legacy(rows):
    plain = Relation("t", ("G", "X", "Y"), rows)
    encoded = encoded_copy(plain, ValueDictionary())
    cases = [
        (["G"], AggregateFunction.COUNT, None),       # full-member COUNT
        (["G"], AggregateFunction.COUNT, ["X"]),      # subset COUNT
        (["G"], AggregateFunction.SUM, ["X"]),
        (["G"], AggregateFunction.MIN, ["Y"]),
        (["G"], AggregateFunction.MAX, ["X"]),
        ([], AggregateFunction.COUNT, None),          # one global group
        (["G", "X"], AggregateFunction.COUNT, None),  # multi-key
    ]
    for group_by, fn, target in cases:
        assert_same(
            group_aggregate(encoded, group_by, fn, target=target),
            group_aggregate(plain, group_by, fn, target=target),
        )


@given(rows=st.sets(st.tuples(values), max_size=8))
@settings(max_examples=25, deadline=None)
def test_single_column_and_empty_relations(rows):
    plain = Relation("t", ("A",), rows)
    encoded = encoded_copy(plain, ValueDictionary())
    assert_same(encoded.project(["A"]), plain.project(["A"]))
    empty_plain = Relation("e", ("A",), set())
    empty_encoded = encoded_copy(empty_plain, ValueDictionary())
    assert_same(
        natural_join(empty_encoded, encoded_copy(plain, ValueDictionary())),
        natural_join(empty_plain, plain),
    )
    assert_same(
        group_aggregate(empty_encoded, [], AggregateFunction.COUNT),
        group_aggregate(empty_plain, [], AggregateFunction.COUNT),
    )


# -- engine kernels: whole FILTER steps, encoded scans on vs off --------

step_values = st.integers(min_value=0, max_value=4)
r_rows = st.sets(st.tuples(step_values, step_values), max_size=20)
bad_rows = st.sets(st.tuples(step_values), max_size=4)
thresholds = st.integers(min_value=1, max_value=4)


def step_flocks(threshold):
    pair = rule(
        "answer",
        ["B"],
        [atom("r", "B", "$1"), atom("r", "B", "$2"),
         comparison("$1", "<", "$2")],
    )
    negation = rule(
        "answer", ["B"], [atom("r", "B", "$1"), negated("bad", "B")]
    )
    condition = parse_filter(f"COUNT(answer.B) >= {threshold}")
    return [QueryFlock(pair, condition), QueryFlock(negation, condition)]


@given(r=r_rows, bad=bad_rows, threshold=thresholds)
@settings(max_examples=20, deadline=None)
def test_engine_kernels_encoded_vs_legacy(r, bad, threshold):
    for flock in step_flocks(threshold):
        db = database_from_dict(
            {"r": (("B", "I"), r), "bad": (("B",), bad)}
        )
        step = single_step_plan(flock, name="flock").final_step
        plan = lower_filter_step(db, flock, step)

        legacy = MemoryEngine(db.scratch(), encode_scans=False)
        answer_legacy = legacy.run_answer(plan)
        outcome_legacy = legacy.run_step(plan, need_aggregates=True)
        survivors_legacy = outcome_legacy.result

        encoded = MemoryEngine(db.scratch(), encode_scans=True)
        answer_encoded = encoded.run_answer(plan)
        outcome_encoded = encoded.run_step(plan, need_aggregates=True)
        survivors_encoded = outcome_encoded.result

        assert set(answer_encoded.tuples) == set(answer_legacy.tuples)
        # Survivor outputs are canonical: identical *arrays*, not just
        # identical sets — the contract parallel merging relies on.
        assert survivors_encoded.columns == survivors_legacy.columns
        assert (
            survivors_encoded.columns_data()
            == survivors_legacy.columns_data()
        )
        _, expected = survivors(answer_legacy, plan)
        assert outcome_encoded.passed.tuples == expected.tuples
        assert outcome_legacy.passed.tuples == expected.tuples
