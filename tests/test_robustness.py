"""Failure-injection and robustness tests across the API surface.

Every malformed input must fail with a library exception (a subclass of
ReproError) carrying a useful message — never a bare KeyError/TypeError
from the internals, and never a silent wrong answer.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EvaluationError,
    FilterError,
    ParseError,
    PlanError,
    QueryFlock,
    ReproError,
    SafetyError,
    SchemaError,
    atom,
    comparison,
    evaluate_flock,
    negated,
    parse_flock,
    parse_query,
    rule,
    support_filter,
)
from repro.cli import main as cli_main
from repro.flocks.mining import mine
from repro.relational import Database, Relation, database_from_dict, evaluate_conjunctive


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ParseError, SchemaError, SafetyError, PlanError, FilterError,
         EvaluationError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)


class TestMissingRelations:
    def test_unknown_relation_in_flock(self):
        db = database_from_dict({"other": (("a",), [(1,)])})
        flock = QueryFlock(
            rule("answer", ["B"], [atom("baskets", "B", "$1")]),
            support_filter(1, target="B"),
        )
        with pytest.raises(SchemaError) as exc:
            evaluate_flock(db, flock)
        assert "baskets" in str(exc.value)
        assert "other" in str(exc.value)  # suggests what exists

    def test_arity_mismatch_reported(self):
        db = database_from_dict({"r": (("a", "b", "c"), [(1, 2, 3)])})
        query = rule("answer", ["X"], [atom("r", "X", "Y")])
        # With plan verification on, the IR schema checker rejects the
        # plan (PlanError) before the engine would (EvaluationError);
        # either way the message must name the arity problem.
        with pytest.raises((EvaluationError, PlanError)) as exc:
            evaluate_conjunctive(db, query)
        assert "arity" in str(exc.value)


class TestMalformedFlockText:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "QUERY: FILTER:",
            "QUERY:\nanswer(B) :- baskets(B,$1)\n",  # missing FILTER
            "FILTER:\nCOUNT(answer.B) >= 20",  # missing QUERY
            "QUERY:\nanswer(B) : baskets(B,$1)\nFILTER:\nCOUNT(answer.B) >= 20",
            "QUERY:\nanswer(B) :- baskets(B,$1)\nFILTER:\nMEAN(answer.B) >= 20",
        ],
    )
    def test_rejected_with_library_error(self, text):
        with pytest.raises(ReproError):
            parse_flock(text)

    def test_filter_threshold_must_be_numeric(self):
        with pytest.raises(ReproError):
            parse_flock(
                "QUERY:\nanswer(B) :- r(B,$1)\nFILTER:\nCOUNT(answer.B) >= lots"
            )


class TestParserFuzz:
    printable = st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=80,
    )

    @given(printable)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_crashes_unexpectedly(self, text):
        """parse_query either succeeds or raises ParseError/ValueError
        from term validation — nothing else."""
        try:
            parse_query(text)
        except (ParseError, ValueError):
            pass

    @given(printable)
    @settings(max_examples=200, deadline=None)
    def test_flock_parser_never_crashes_unexpectedly(self, text):
        try:
            parse_flock(f"QUERY:\n{text}\nFILTER:\nCOUNT(answer.B) >= 2")
        except ReproError:
            pass
        except ValueError:
            pass


class TestDegenerateData:
    def test_empty_database_flock(self):
        db = database_from_dict({"baskets": (("BID", "Item"), [])})
        flock = QueryFlock(
            rule("answer", ["B"],
                 [atom("baskets", "B", "$1"), atom("baskets", "B", "$2")]),
            support_filter(1, target="B"),
        )
        assert len(evaluate_flock(db, flock)) == 0

    def test_single_tuple_database(self):
        db = database_from_dict({"baskets": (("BID", "Item"), [(1, "x")])})
        flock = QueryFlock(
            rule("answer", ["B"],
                 [atom("baskets", "B", "$1"), atom("baskets", "B", "$2")]),
            support_filter(1, target="B"),
        )
        result = evaluate_flock(db, flock)
        assert result.tuples == frozenset({("x", "x")})

    def test_flock_with_no_parameters(self):
        # Degenerate but legal: a yes/no flock (zero-column result).
        db = database_from_dict({"r": (("a",), [(1,), (2,)])})
        flock = QueryFlock(
            rule("answer", ["X"], [atom("r", "X")]),
            support_filter(2, target="X"),
        )
        result = evaluate_flock(db, flock)
        assert result.columns == ()
        assert len(result) == 1  # "yes": 2 >= 2

    def test_flock_with_no_parameters_failing(self):
        db = database_from_dict({"r": (("a",), [(1,)])})
        flock = QueryFlock(
            rule("answer", ["X"], [atom("r", "X")]),
            support_filter(2, target="X"),
        )
        assert len(evaluate_flock(db, flock)) == 0

    def test_negation_of_empty_relation(self):
        db = database_from_dict(
            {
                "r": (("a", "b"), [(1, "x"), (2, "x")]),
                "s": (("a", "b"), []),
            }
        )
        flock = QueryFlock(
            rule("answer", ["X"],
                 [atom("r", "X", "$1"), negated("s", "X", "$1")]),
            support_filter(2, target="X"),
        )
        result = evaluate_flock(db, flock)
        assert result.tuples == frozenset({("x",)})

    def test_comparison_between_incomparable_types(self):
        # Python 3 cannot order int against str; the engine surfaces
        # that as a clean error naming the subgoal rather than silently
        # dropping rows.
        db = database_from_dict({"r": (("a", "b"), [(1, "x")])})
        query = rule(
            "answer", ["A"], [atom("r", "A", "B"), comparison("A", "<", "B")]
        )
        with pytest.raises(EvaluationError, match="A < B.*'int' and 'str'"):
            evaluate_conjunctive(db, query)


class TestIncomparableValues:
    """Values a comparison or aggregate cannot order or add (int vs str,
    as a CSV word column holding ``2024`` loads) fail every strategy
    with one :class:`EvaluationError`, never a raw ``TypeError``."""

    PAIR = (
        "QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\n"
        "\nFILTER:\nCOUNT(answer.B) >= 2\n"
    )

    @pytest.mark.parametrize("strategy", ["naive", "optimized", "dynamic"])
    def test_ordered_comparison(self, strategy):
        db = database_from_dict({"baskets": (
            ("B", "I"), {(b, i) for b in (1, 2, 3) for i in ("a", 2)},
        )})
        with pytest.raises(EvaluationError, match=r"\$1 < \$2.*'(int|str)'"):
            mine(db, parse_flock(self.PAIR), strategy=strategy)

    @pytest.mark.parametrize("strategy", ["naive", "optimized", "dynamic"])
    @pytest.mark.parametrize("aggregate", ["SUM", "MAX"])
    @pytest.mark.parametrize("rows", [
        {(1, 3), (1, "x")},  # one group mixes the types
        {(1, "x"), (2, "y")},  # MAX is text, the threshold a number
    ])
    def test_aggregate(self, strategy, aggregate, rows):
        db = database_from_dict({"w": (("G", "W"), rows)})
        flock = parse_flock(
            f"QUERY:\nanswer(W) :- w($g,W)\n\n"
            f"FILTER:\n{aggregate}(answer.W) >= 2\n"
        )
        with pytest.raises(EvaluationError, match=f"{aggregate}.*'(int|str)'"):
            mine(db, flock, strategy=strategy)

    def test_cli_reports_a_clean_error(self, tmp_path, capsys):
        (tmp_path / "pair.flock").write_text(self.PAIR)
        data = tmp_path / "data"
        data.mkdir()
        (data / "baskets.csv").write_text(
            "BID,Item\n1,beer\n1,2024\n2,beer\n2,2024\n"
        )
        code = cli_main(["run", str(tmp_path / "pair.flock"), str(data)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err


class TestRelationValidation:
    def test_heterogeneous_width_rows(self):
        with pytest.raises(SchemaError):
            Relation("r", ("a", "b"), [(1, 2), (3,)])

    def test_database_replacement_is_clean(self):
        db = Database()
        db.add_rows("r", ("a",), [(1,)])
        db.add_rows("r", ("a", "b"), [(1, 2)])  # replace with wider schema
        assert db.get("r").arity == 2
