"""Unit tests for repro.relational.relation."""

import pytest

from repro.errors import SchemaError
from repro.relational import Relation, relation_from_rows


@pytest.fixture
def baskets():
    return Relation(
        "baskets",
        ("BID", "Item"),
        {
            (1, "beer"),
            (1, "diapers"),
            (2, "beer"),
            (2, "chips"),
            (3, "beer"),
            (3, "diapers"),
        },
    )


class TestConstruction:
    def test_basic(self, baskets):
        assert baskets.arity == 2
        assert len(baskets) == 6

    def test_set_semantics_dedupes(self):
        r = Relation("r", ("a",), [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_width_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation("r", ("a", "b"), [(1,)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Relation("r", ("a", "a"), [])

    def test_from_rows_accepts_lists(self):
        r = relation_from_rows("r", ("a", "b"), [[1, 2], [3, 4]])
        assert (1, 2) in r

    def test_empty_relation(self):
        r = Relation("r", ("a",))
        assert len(r) == 0

    def test_zero_column_relation(self):
        unit = Relation("unit", (), {()})
        assert len(unit) == 1


class TestIntrospection:
    def test_contains(self, baskets):
        assert (1, "beer") in baskets
        assert (9, "beer") not in baskets

    def test_column_position(self, baskets):
        assert baskets.column_position("Item") == 1

    def test_unknown_column_raises(self, baskets):
        with pytest.raises(SchemaError):
            baskets.column_position("nope")

    def test_column_values(self, baskets):
        assert baskets.column_values("Item") == {"beer", "diapers", "chips"}

    def test_distinct_count(self, baskets):
        assert baskets.distinct_count("BID") == 3

    def test_equality_ignores_name(self, baskets):
        other = Relation("renamed", baskets.columns, baskets.tuples)
        assert baskets == other

    def test_equality_checks_schema(self):
        a = Relation("r", ("a",), {(1,)})
        b = Relation("r", ("b",), {(1,)})
        assert a != b

    def test_hashable(self, baskets):
        assert baskets in {baskets}


class TestOperations:
    def test_project_dedupes(self, baskets):
        items = baskets.project(["Item"])
        assert len(items) == 3
        assert items.columns == ("Item",)

    def test_project_reorders(self, baskets):
        flipped = baskets.project(["Item", "BID"])
        assert ("beer", 1) in flipped

    @pytest.mark.parametrize(
        "columns", [["Item"], ["BID"], ["Item", "BID"], ["BID", "Item"], []]
    )
    def test_project_encoded_stays_encoded(self, baskets, columns):
        """An encoded relation dedups in code space: encoded in, encoded
        out, same rows as the decoded projection, nothing decoded."""
        from repro.relational.dictionary import ValueDictionary

        decoded = Relation("b", baskets.columns, baskets.tuples)
        dictionary = ValueDictionary()
        encoded = Relation.from_encoded(
            "b",
            baskets.columns,
            [dictionary.encode_column(c) for c in decoded.columns_data()],
            dictionary,
        )
        projected = encoded.project(columns)
        assert projected.is_encoded
        assert projected.dictionary is encoded.dictionary
        assert encoded._rows is None  # the source was never decoded
        assert projected.tuples == decoded.project(columns).tuples
        assert len(projected) == len(decoded.project(columns))

    def test_select(self, baskets):
        beer = baskets.select(lambda row: row["Item"] == "beer")
        assert len(beer) == 3

    def test_select_eq(self, baskets):
        b1 = baskets.select_eq("BID", 1)
        assert len(b1) == 2

    def test_rename(self, baskets):
        renamed = baskets.rename({"BID": "B"})
        assert renamed.columns == ("B", "Item")
        assert renamed.tuples == baskets.tuples

    def test_union(self):
        a = Relation("a", ("x",), {(1,)})
        b = Relation("b", ("x",), {(1,), (2,)})
        assert len(a.union(b)) == 2

    def test_union_schema_mismatch(self):
        a = Relation("a", ("x",), {(1,)})
        b = Relation("b", ("y",), {(1,)})
        with pytest.raises(SchemaError):
            a.union(b)

    def test_difference(self):
        a = Relation("a", ("x",), {(1,), (2,)})
        b = Relation("b", ("x",), {(2,)})
        assert a.difference(b).tuples == frozenset({(1,)})

    def test_intersection(self):
        a = Relation("a", ("x",), {(1,), (2,)})
        b = Relation("b", ("x",), {(2,), (3,)})
        assert a.intersection(b).tuples == frozenset({(2,)})

    def test_operations_do_not_mutate(self, baskets):
        before = set(baskets.tuples)
        baskets.project(["Item"])
        baskets.select(lambda r: False)
        assert set(baskets.tuples) == before

    def test_pretty_truncates(self, baskets):
        text = baskets.pretty(limit=2)
        assert "and 4 more" in text


class TestPickling:
    @staticmethod
    def states(baskets):
        from repro.relational.catalog import Database
        from repro.relational.dictionary import ValueDictionary

        rows_only = Relation("b", baskets.columns, baskets.tuples)
        catalog = Database()
        catalog.add(Relation("baskets", baskets.columns, baskets.tuples))
        foreign = ValueDictionary(["padding", "chips"])
        return {
            "rows-only": rows_only,
            "encoded-in-catalog": catalog.encoded("baskets"),
            "foreign-dictionary": Relation.from_encoded(
                "f",
                baskets.columns,
                [foreign.encode_column(c) for c in baskets.columns_data()],
                foreign,
            ),
            "zero-columns-one-row": Relation("unit", (), {()}),
            "empty": Relation("e", ("A", "B"), ()),
        }

    @pytest.mark.parametrize(
        "state",
        [
            "rows-only",
            "encoded-in-catalog",
            "foreign-dictionary",
            "zero-columns-one-row",
            "empty",
        ],
    )
    def test_round_trip(self, baskets, state):
        import pickle

        original = self.states(baskets)[state]
        restored = pickle.loads(pickle.dumps(original))
        assert restored == original
        assert restored.name == original.name
        assert restored.columns == original.columns
        assert len(restored) == len(original)
