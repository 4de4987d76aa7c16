"""Unit tests for the statistics helpers used by the cost models."""

import pytest

from repro.relational import (
    Relation,
    RelationStats,
    tuples_per_assignment,
)


class TestRelationStats:
    def test_of(self):
        rel = Relation("r", ("a", "b"), {(1, "x"), (2, "x"), (3, "y")})
        stats = RelationStats.of(rel)
        assert stats.cardinality == 3
        assert stats.distinct_count("a") == 3
        assert stats.distinct_count("b") == 2

    def test_unknown_column_distinct_zero(self):
        stats = RelationStats("r", 10, {"a": 5})
        assert stats.distinct_count("zzz") == 0

    def test_tuples_per_value(self):
        stats = RelationStats("r", 10, {"a": 5})
        assert stats.tuples_per_value("a") == 2.0

    def test_tuples_per_value_zero_distinct(self):
        stats = RelationStats("r", 10, {"a": 0})
        assert stats.tuples_per_value("a") == 0.0


class TestTuplesPerAssignmentEdges:
    def test_multi_column_assignment(self):
        rel = Relation(
            "answer",
            ("$s", "$m", "P"),
            {("a", "x", 1), ("a", "x", 2), ("b", "y", 3)},
        )
        assert tuples_per_assignment(rel, ["$s", "$m"]) == pytest.approx(1.5)
