"""Tests for EXPLAIN output: the rendering of a lowered rule plan
(what ``repro explain`` prints with a data directory)."""

import pytest

from repro.datalog import parse_rule
from repro.engine.planner import lower_rule
from repro.errors import EvaluationError
from repro.relational import database_from_dict


def explain(db, rule, join_order=None):
    return lower_rule(db, rule, join_order=join_order).render()


@pytest.fixture
def medical_db():
    return database_from_dict(
        {
            "exhibits": (("P", "S"), [(1, "rash"), (2, "rash"), (2, "fever")]),
            "treatments": (("P", "M"), [(1, "aspirin")]),
            "diagnoses": (("P", "D"), [(1, "flu"), (2, "flu")]),
            "causes": (("D", "S"), [("flu", "fever")]),
        }
    )


MEDICAL_RULE = parse_rule(
    "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
    "diagnoses(P,D) AND NOT causes(D,$s)"
)


class TestExplainConjunctive:
    def test_contains_scan_join_project(self, medical_db):
        text = explain(medical_db, MEDICAL_RULE)
        assert "scan " in text
        assert "join " in text
        assert "project (P)" in text

    def test_negation_shown_as_anti_join(self, medical_db):
        text = explain(medical_db, MEDICAL_RULE)
        assert "anti-join: NOT causes(D, $s)" in text

    def test_comparison_shown_as_filter(self, medical_db):
        rule = parse_rule(
            "answer(P) :- exhibits(P,$s) AND exhibits(P,$t) AND $s < $t"
        )
        text = explain(medical_db, rule)
        assert "then filter: $s < $t" in text

    def test_join_columns_annotated(self, medical_db):
        text = explain(medical_db, MEDICAL_RULE)
        assert "on (P)" in text

    def test_cartesian_annotated(self):
        db = database_from_dict(
            {"r": (("X",), [(1,)]), "s": (("Y",), [(2,)])}
        )
        rule = parse_rule("answer(X) :- r(X) AND s(Y)")
        text = explain(db, rule)
        assert "cartesian!" in text

    def test_ues_strategy(self, medical_db):
        assert "ues join order" in explain(medical_db, MEDICAL_RULE)
        text = explain(medical_db, MEDICAL_RULE, join_order=[2, 1, 0])
        assert "explicit join order" in text

    def test_unknown_strategy_rejected(self, medical_db):
        """Only a permutation of the positive subgoals names an order."""
        with pytest.raises(EvaluationError, match="not a permutation"):
            explain(medical_db, MEDICAL_RULE, join_order=[0, 0, 1])

    def test_estimates_present(self, medical_db):
        text = explain(medical_db, MEDICAL_RULE)
        assert "~" in text and "tuples" in text
