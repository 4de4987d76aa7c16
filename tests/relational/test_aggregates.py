"""Unit tests for grouped aggregation (the HAVING machinery)."""

import pytest

from repro.errors import FilterError
from repro.flocks import parse_filter
from repro.relational import (
    AggregateFunction,
    Database,
    Relation,
    database_from_dict,
    group_aggregate,
)
from repro.relational.aggregates import (
    relation_group_values,
    survivor_relations,
)

COUNT = AggregateFunction.COUNT


@pytest.fixture
def answer():
    """Parameter columns ($1, $2) plus the answer column (B)."""
    return Relation(
        "answer",
        ("$1", "$2", "B"),
        {
            ("beer", "diapers", 1),
            ("beer", "diapers", 2),
            ("beer", "diapers", 3),
            ("beer", "chips", 1),
        },
    )


class TestAggregateFunction:
    def test_from_name(self):
        assert AggregateFunction.from_name("count") is AggregateFunction.COUNT
        assert AggregateFunction.from_name("SUM") is AggregateFunction.SUM

    def test_unknown_raises(self):
        with pytest.raises(FilterError):
            AggregateFunction.from_name("MEDIAN")


class TestGroupedCounts:
    def test_counts_distinct_answers_per_group(self, answer):
        counts = group_aggregate(answer, ["$1", "$2"], COUNT)
        assert ("beer", "diapers", 3) in counts
        assert ("beer", "chips", 1) in counts

    def test_empty_group_by_counts_all(self, answer):
        counts = group_aggregate(answer, [], COUNT)
        assert counts.columns == ("agg",)
        assert counts.tuples == frozenset({(4,)})

    def test_empty_relation_scalar_count_zero(self):
        empty = Relation("answer", ("B",))
        counts = group_aggregate(empty, [], COUNT)
        assert counts.tuples == frozenset({(0,)})

    def test_empty_relation_grouped_is_empty(self):
        empty = Relation("answer", ("$1", "B"))
        counts = group_aggregate(empty, ["$1"], COUNT)
        assert len(counts) == 0


class TestGroupAggregate:
    def test_sum(self):
        weighted = Relation(
            "answer",
            ("$1", "B", "W"),
            {("beer", 1, 10), ("beer", 2, 5), ("chips", 1, 10)},
        )
        total = group_aggregate(
            weighted, ["$1"], AggregateFunction.SUM, target=["W"]
        )
        assert ("beer", 15) in total
        assert ("chips", 10) in total

    def test_sum_over_distinct_member_tuples(self):
        # Fig. 10 semantics: SUM ranges over distinct *answer tuples*
        # (B, W), so two distinct baskets with equal weight 5 both
        # contribute: 5 + 5 + 7 = 17.
        weighted = Relation(
            "answer", ("$1", "B", "W"), {("x", 1, 5), ("x", 2, 5), ("x", 3, 7)}
        )
        total = group_aggregate(
            weighted, ["$1"], AggregateFunction.SUM, target=["W"]
        )
        assert total.tuples == frozenset({("x", 17)})

    def test_target_must_be_non_group_column(self):
        r = Relation("r", ("$g", "a"), {("x", 1)})
        with pytest.raises(FilterError):
            group_aggregate(r, ["$g"], AggregateFunction.SUM, target=["$g"])

    def test_min_max(self):
        scores = Relation("s", ("$g", "V"), {("a", 3), ("a", 7), ("b", 5)})
        mn = group_aggregate(scores, ["$g"], AggregateFunction.MIN, target=["V"])
        mx = group_aggregate(scores, ["$g"], AggregateFunction.MAX, target=["V"])
        assert ("a", 3) in mn and ("a", 7) in mx
        assert ("b", 5) in mn and ("b", 5) in mx

    def test_sum_requires_single_target(self):
        r = Relation("r", ("$g", "a", "b"), {("x", 1, 2)})
        with pytest.raises(FilterError):
            group_aggregate(r, ["$g"], AggregateFunction.SUM, target=["a", "b"])

    def test_non_count_requires_target(self):
        r = Relation("r", ("$g", "a"), {("x", 1)})
        with pytest.raises(FilterError):
            group_aggregate(r, ["$g"], AggregateFunction.SUM)

    def test_count_explicit_target(self, answer):
        counts = group_aggregate(
            answer, ["$1"], AggregateFunction.COUNT, target=["B"]
        )
        # beer group: B values {1, 2, 3} -> 3 distinct.
        assert ("beer", 3) in counts

    def test_result_column_name(self, answer):
        counts = group_aggregate(answer, ["$1"], COUNT, result_column="support")
        assert counts.columns == ("$1", "support")


def in_code_space(relation):
    """``relation`` encoded in a catalog's code space, and that space's
    dictionary (the kernel's input contract)."""
    db = Database([relation])
    return db.encoded(relation.name), db.dictionary


class TestSurvivorRelations:
    """The one kernel that turns per-group values into survivors."""

    def values(self, answer, *conditions):
        return [
            relation_group_values(answer, ["$1", "$2"], c.aggregate, ["B"])
            for c in conditions
        ]

    def test_threshold_filter(self, answer):
        answer, dictionary = in_code_space(answer)
        condition = parse_filter("COUNT(answer.B) >= 2")
        survivors, passed = survivor_relations(
            self.values(answer, condition), [condition], ["$1", "$2"],
            "ok", dictionary,
        )
        assert survivors.columns == ("$1", "$2")
        assert survivors.tuples == frozenset({("beer", "diapers")})
        assert passed is None

    def test_every_conjunct_must_pass(self, answer):
        answer, dictionary = in_code_space(answer)
        conditions = [
            parse_filter("COUNT(answer.B) >= 1"),
            parse_filter("MAX(answer.B) >= 2"),
        ]
        survivors, passed = survivor_relations(
            self.values(answer, *conditions), conditions, ["$1", "$2"],
            "ok", dictionary, ["_agg0", "_agg1"],
        )
        assert survivors.tuples == frozenset({("beer", "diapers")})
        assert passed.columns == ("$1", "$2", "_agg0", "_agg1")
        assert passed.tuples == frozenset({("beer", "diapers", 3, 3)})

    def test_nothing_passes(self, answer):
        answer, dictionary = in_code_space(answer)
        condition = parse_filter("COUNT(answer.B) >= 100")
        survivors, _ = survivor_relations(
            self.values(answer, condition), [condition], ["$1", "$2"],
            "ok", dictionary,
        )
        assert len(survivors) == 0

    def test_canonical_order_on_encoded_keys(self):
        """Rows come out sorted by the decoded keys' repr, whatever the
        grouping order, and the keys stay encoded."""
        db = database_from_dict(
            {"r": (("$1", "B"), [("z", 1), ("a", 1), ("m", 1), ("a", 2)])}
        )
        rel = db.encoded("r")
        condition = parse_filter("COUNT(answer.B) >= 1")
        survivors, _ = survivor_relations(
            [relation_group_values(rel, ["$1"], COUNT, ["B"])], [condition],
            ["$1"], "ok", rel.dictionary,
        )
        assert survivors.is_encoded
        assert survivors.columns_data() == (["a", "m", "z"],)

    def test_scalar_count_of_nothing_is_zero(self):
        """No group columns: COUNT of no rows is 0, while SUM of no rows
        has no value — so a conjunction with SUM keeps nothing."""
        empty, dictionary = in_code_space(Relation("answer", ("B",)))
        count = parse_filter("COUNT(answer.B) >= 0")
        total = parse_filter("SUM(answer.B) >= 0")
        values = {
            c: relation_group_values(empty, [], c.aggregate, ["B"])
            for c in (count, total)
        }
        alone, passed = survivor_relations(
            [values[count]], [count], [], "ok", dictionary, ["_agg0"]
        )
        assert len(alone) == 1 and passed.tuples == frozenset({(0,)})
        both, _ = survivor_relations(
            [values[count], values[total]], [count, total], [], "ok",
            dictionary,
        )
        assert len(both) == 0
