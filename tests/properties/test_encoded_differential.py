"""Differential property tests: the code-space operators against
set-comprehension references over decoded rows.

Every relational operator and engine kernel runs on dictionary codes.
Their outputs must equal, as *sets of rows*, what a plain Python set
comprehension over the decoded rows computes — for any input, including
the inputs benchmarks never produce: empty relations, single-column
relations, and mixed non-string value types whose Python equality
semantics (``1 == 1.0 == True``) the dictionary must reproduce exactly.

Operator inputs come plain, encoded, or encoded under two *different*
dictionaries (a library caller's relations); ``shared_dictionary``
brings every pair into one code space.  The engine-level test runs
whole FILTER steps and compares them with the independent survivor
oracle (``tests/survivor_oracle.py``).
"""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.datalog import atom, comparison, negated, rule
from repro.engine.memory import MemoryEngine
from repro.flocks import QueryFlock, parse_filter
from repro.flocks.executor import lower_filter_step
from repro.flocks.plans import single_step_plan
from repro.relational import ValueDictionary, database_from_dict
from repro.relational.aggregates import AggregateFunction, group_aggregate
from repro.relational.catalog import Database
from repro.relational.operators import (
    anti_join,
    cartesian_product,
    natural_join,
    semi_join,
    union_all,
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
    return Relation.from_encoded(
        relation.name,
        relation.columns,
        [dictionary.encode_column(col) for col in relation.columns_data()],
        dictionary,
        count=len(relation),
    )


def forms(relation: Relation, shared: ValueDictionary) -> list[Relation]:
    """``relation`` plain, encoded under ``shared``, and encoded under a
    dictionary of its own."""
    return [
        relation,
        encoded_copy(relation, shared),
        encoded_copy(relation, ValueDictionary()),
    ]


def assert_rows(result: Relation, columns: tuple, expected: set) -> None:
    assert result.columns == columns
    assert set(result.tuples) == expected
    assert len(result) == len(expected)


ab_rows = st.sets(st.tuples(values, values), max_size=12)
bc_rows = st.sets(st.tuples(values, values), max_size=12)


@given(left=ab_rows, right=bc_rows)
@settings(max_examples=40, deadline=None)
def test_joins_encoded_vs_legacy(left, right):
    plain_l = Relation("l", ("A", "B"), left)
    plain_r = Relation("r", ("B", "C"), right)
    joined = {(a, b, c) for a, b in plain_l for b2, c in plain_r if b == b2}
    matched = {(a, b) for a, b in plain_l if any(b == b2 for b2, _ in plain_r)}
    shared = ValueDictionary()
    for enc_l in forms(plain_l, shared):
        for enc_r in forms(plain_r, shared):
            assert_rows(natural_join(enc_l, enc_r), ("A", "B", "C"), joined)
            assert_rows(semi_join(enc_l, enc_r), ("A", "B"), matched)
            assert_rows(
                anti_join(enc_l, enc_r), ("A", "B"), set(plain_l) - matched
            )


@given(left=ab_rows, right=st.sets(st.tuples(values), max_size=4))
@settings(max_examples=25, deadline=None)
def test_cartesian_encoded_vs_legacy(left, right):
    plain_l = Relation("l", ("A", "B"), left)
    plain_r = Relation("r", ("C",), right)
    expected = {(a, b, c) for a, b in plain_l for (c,) in plain_r}
    shared = ValueDictionary()
    for enc_l in forms(plain_l, shared):
        for enc_r in forms(plain_r, shared):
            assert_rows(
                cartesian_product(enc_l, enc_r), ("A", "B", "C"), expected
            )


@given(rows=ab_rows, other=ab_rows, value=values)
@settings(max_examples=40, deadline=None)
def test_select_project_take_encoded_vs_legacy(rows, other, value):
    plain = Relation("t", ("A", "B"), rows)
    encoded = encoded_copy(plain, ValueDictionary())
    assert_rows(
        encoded.select_eq("A", value), ("A", "B"),
        {(a, b) for a, b in plain if a == value},
    )
    for cols in (["A"], ["B"], ["B", "A"], ["A", "B"]):
        positions = [plain.columns.index(c) for c in cols]
        assert_rows(
            encoded.project(cols), tuple(cols),
            {tuple(row[p] for p in positions) for row in plain},
        )
    indexes = list(range(0, len(plain), 2))
    decoded = list(zip(*encoded.columns_data()))
    assert_rows(
        encoded.take(indexes), ("A", "B"), {decoded[i] for i in indexes}
    )
    assert encoded.distinct_count("A") == len({a for a, _ in plain})
    plain_other = Relation("u", ("A", "B"), other)
    for enc_other in forms(plain_other, ValueDictionary()):
        assert_rows(
            union_all([encoded, enc_other]), ("A", "B"),
            set(plain) | set(plain_other),
        )


def reference_aggregate(relation, group_by, fn, target):
    """``{group key + (aggregate,)}`` over decoded rows: each group's
    members are its distinct non-group sub-tuples."""
    position = {c: i for i, c in enumerate(relation.columns)}
    members = [c for c in relation.columns if c not in group_by]
    target = members if target is None else target
    groups = defaultdict(set)
    for row in relation:
        key = tuple(row[position[c]] for c in group_by)
        groups[key].add(tuple(row[position[c]] for c in members))
    if not group_by and not groups and fn is AggregateFunction.COUNT:
        return {(0,)}
    fold = {"SUM": sum, "MIN": min, "MAX": max}.get(fn.name)
    out = set()
    for key, rows in groups.items():
        picked = [tuple(r[members.index(c)] for c in target) for r in rows]
        if fold is None:
            out.add(key + (len(set(picked)),))
        else:
            out.add(key + (fold(p[0] for p in picked),))
    return out


@given(rows=st.sets(st.tuples(values, numbers, numbers), max_size=15))
@settings(max_examples=40, deadline=None)
def test_group_aggregate_encoded_vs_legacy(rows):
    plain = Relation("t", ("G", "X", "Y"), rows)
    cases = [
        (["G"], AggregateFunction.COUNT, None),       # full-member COUNT
        (["G"], AggregateFunction.COUNT, ["X"]),      # subset COUNT
        (["G"], AggregateFunction.SUM, ["X"]),
        (["G"], AggregateFunction.MIN, ["Y"]),
        (["G"], AggregateFunction.MAX, ["X"]),
        ([], AggregateFunction.COUNT, None),          # one global group
        (["G", "X"], AggregateFunction.COUNT, None),  # multi-key
    ]
    for relation in forms(plain, ValueDictionary()):
        for group_by, fn, target in cases:
            assert_rows(
                group_aggregate(relation, group_by, fn, target=target),
                tuple(group_by) + ("agg",),
                reference_aggregate(plain, group_by, fn, target),
            )


@given(rows=st.sets(st.tuples(values), max_size=8))
@settings(max_examples=25, deadline=None)
def test_single_column_and_empty_relations(rows):
    plain = Relation("t", ("A",), rows)
    encoded = encoded_copy(plain, ValueDictionary())
    assert_rows(encoded.project(["A"]), ("A",), set(plain))
    empty = Relation("e", ("A",), set())
    for enc_empty in forms(empty, ValueDictionary()):
        assert_rows(natural_join(enc_empty, encoded), ("A",), set())
        assert_rows(semi_join(encoded, enc_empty), ("A",), set())
        assert_rows(anti_join(encoded, enc_empty), ("A",), set(plain))
        assert_rows(
            group_aggregate(enc_empty, [], AggregateFunction.COUNT),
            ("agg",), {(0,)},
        )


@given(rows=ab_rows)
@settings(max_examples=25, deadline=None)
def test_foreign_encoded_relation_is_recoded(rows):
    """A relation another catalog encoded reads in this catalog's code
    space, and the shared object keeps its first encoding."""
    relation = Relation("t", ("A", "B"), rows)
    first, second = Database(), Database()
    second.dictionary.extend(["x", "y", 7])
    first.add(relation)
    second.add(relation)
    assert first.encoded("t") is relation
    recoded = second.encoded("t")
    assert recoded is not relation
    assert relation.dictionary is first.dictionary
    assert recoded.dictionary is second.dictionary
    assert recoded.tuples == relation.tuples
    assert second.encoded("t") is recoded


# -- engine kernels: whole FILTER steps against the survivor oracle ----

step_values = st.integers(min_value=0, max_value=4)
r_rows = st.sets(st.tuples(step_values, step_values), max_size=20)
bad_rows = st.sets(st.tuples(step_values), max_size=4)
thresholds = st.integers(min_value=1, max_value=4)


def step_flocks(threshold):
    """(flock, its answer as (params..., B) rows from r and bad)."""
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

    def pairs(r, bad):
        return {(i, j, b) for b, i in r for b2, j in r if b == b2 and i < j}

    def unmatched(r, bad):
        return {(i, b) for b, i in r if (b,) not in bad}

    return [
        (QueryFlock(pair, condition), pairs),
        (QueryFlock(negation, condition), unmatched),
    ]


@given(r=r_rows, bad=bad_rows, threshold=thresholds)
@settings(max_examples=20, deadline=None)
def test_engine_kernels_encoded_vs_legacy(r, bad, threshold):
    for flock, expected_answer in step_flocks(threshold):
        db = database_from_dict(
            {"r": (("B", "I"), r), "bad": (("B",), bad)}
        )
        step = single_step_plan(flock, name="flock").final_step
        plan = lower_filter_step(db, flock, step)

        engine = MemoryEngine(db.scratch())
        answer = engine.run_answer(plan)
        outcome = engine.run_step(plan, need_aggregates=True)
        assert set(answer.tuples) == expected_answer(r, bad)

        expected, expected_passed = survivors(answer, plan)
        # Survivor outputs are canonical: the column arrays are the
        # oracle's rows sorted by repr — the contract parallel merging
        # relies on.
        assert outcome.result.columns == expected.columns
        assert list(zip(*outcome.result.columns_data())) == sorted(
            expected.tuples, key=repr
        )
        assert outcome.passed.tuples == expected_passed.tuples
