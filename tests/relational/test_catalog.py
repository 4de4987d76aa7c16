"""Unit tests for the database catalog and statistics."""

import pytest

from repro.errors import SchemaError
from repro.relational import Relation, RelationStats, database_from_dict, tuples_per_assignment


@pytest.fixture
def db():
    return database_from_dict(
        {
            "exhibits": (("Patient", "Symptom"), [(1, "rash"), (2, "rash"), (2, "fever")]),
            "treatments": (("Patient", "Medicine"), [(1, "aspirin")]),
        }
    )


class TestDatabase:
    def test_get(self, db):
        assert len(db.get("exhibits")) == 3

    def test_unknown_relation(self, db):
        with pytest.raises(SchemaError):
            db.get("nope")

    def test_contains(self, db):
        assert "exhibits" in db
        assert "nope" not in db

    def test_names_sorted(self, db):
        assert db.names() == ["exhibits", "treatments"]

    def test_add_rows(self, db):
        db.add_rows("causes", ("Disease", "Symptom"), [("flu", "fever")])
        assert "causes" in db

    def test_replace_invalidates_stats(self, db):
        before = db.stats("exhibits").cardinality
        db.add(Relation("exhibits", ("Patient", "Symptom"), {(9, "itch")}))
        assert db.stats("exhibits").cardinality == 1
        assert before == 3

    def test_remove(self, db):
        db.remove("exhibits")
        assert "exhibits" not in db

    def test_scratch_is_isolated(self, db):
        scratch = db.scratch()
        scratch.add_rows("okS", ("$s",), [("rash",)])
        assert "okS" in scratch
        assert "okS" not in db

    def test_scratch_shares_base_relations(self, db):
        scratch = db.scratch()
        assert scratch.get("exhibits") is db.get("exhibits")

    def test_total_tuples(self, db):
        assert db.total_tuples() == 4

    def test_iter(self, db):
        assert set(db) == {"exhibits", "treatments"}


class TestStatistics:
    def test_stats_of(self, db):
        stats = db.stats("exhibits")
        assert stats.cardinality == 3
        assert stats.distinct_count("Symptom") == 2
        assert stats.distinct_count("Patient") == 2

    def test_tuples_per_value(self, db):
        stats = db.stats("exhibits")
        assert stats.tuples_per_value("Symptom") == pytest.approx(1.5)

    def test_tuples_per_value_empty(self):
        stats = RelationStats.of(Relation("empty", ("a",)))
        assert stats.tuples_per_value("a") == 0.0

    def test_stats_cached(self, db):
        assert db.stats("exhibits") is db.stats("exhibits")

    def test_tuples_per_assignment(self):
        rel = Relation(
            "answer", ("$s", "P"), {("rash", 1), ("rash", 2), ("fever", 3)}
        )
        assert tuples_per_assignment(rel, ["$s"]) == pytest.approx(1.5)

    def test_tuples_per_assignment_no_params(self):
        rel = Relation("answer", ("P",), {(1,), (2,)})
        assert tuples_per_assignment(rel, []) == 2.0

    def test_tuples_per_assignment_empty(self):
        rel = Relation("answer", ("$s", "P"))
        assert tuples_per_assignment(rel, ["$s"]) == 0.0
