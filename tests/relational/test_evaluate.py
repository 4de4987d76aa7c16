"""Evaluator tests: extended CQs against small hand-checked databases."""

import pytest

from repro.datalog import atom, comparison, negated, rule
from repro.datalog.terms import Parameter, Variable
from repro.errors import EvaluationError, SafetyError
from repro.relational import database_from_dict, atom_binding_relation, evaluate_conjunctive


@pytest.fixture
def basket_db():
    return database_from_dict(
        {
            "baskets": (
                ("BID", "Item"),
                [
                    (1, "beer"), (1, "diapers"),
                    (2, "beer"), (2, "diapers"),
                    (3, "beer"), (3, "chips"),
                    (4, "chips"),
                ],
            )
        }
    )


@pytest.fixture
def medical_db():
    return database_from_dict(
        {
            "diagnoses": (("P", "D"), [(1, "flu"), (2, "flu"), (3, "cold")]),
            "exhibits": (
                ("P", "S"),
                [(1, "fever"), (1, "rash"), (2, "fever"), (3, "rash")],
            ),
            "treatments": (("P", "M"), [(1, "aspirin"), (2, "aspirin"), (3, "statin")]),
            "causes": (("D", "S"), [("flu", "fever")]),
        }
    )


class TestAtomBindingRelation:
    def test_plain_atom(self, basket_db):
        rel = atom_binding_relation(basket_db, atom("baskets", "B", "$1"))
        assert rel.columns == ("B", "$1")
        assert len(rel) == 7

    def test_constant_selection(self, basket_db):
        rel = atom_binding_relation(basket_db, atom("baskets", "B", "'beer'"))
        assert rel.columns == ("B",)
        assert rel.column_values("B") == {1, 2, 3}

    def test_repeated_variable_selection(self):
        db = database_from_dict({"arc": (("u", "v"), [(1, 1), (1, 2)])})
        rel = atom_binding_relation(db, atom("arc", "X", "X"))
        assert rel.columns == ("X",)
        assert rel.tuples == frozenset({(1,)})

    def test_arity_mismatch(self, basket_db):
        with pytest.raises(EvaluationError):
            atom_binding_relation(basket_db, atom("baskets", "B"))

    def test_projection_dedupes(self, basket_db):
        rel = atom_binding_relation(basket_db, atom("baskets", "_", "$1"))
        # '_' is a variable; both columns kept, so 7 rows.
        assert len(rel) == 7


class TestEvaluateConjunctive:
    def test_instantiated_basket_query(self, basket_db, basket_query):
        inst = basket_query.instantiate(
            {Parameter("1"): "beer", Parameter("2"): "diapers"}
        )
        result = evaluate_conjunctive(basket_db, inst)
        assert result.columns == ("B",)
        assert result.column_values("B") == {1, 2}

    def test_output_with_parameters(self, basket_db, basket_query):
        result = evaluate_conjunctive(
            basket_db,
            basket_query,
            output_terms=[Parameter("1"), Parameter("2"), Variable("B")],
        )
        assert result.columns == ("$1", "$2", "B")
        assert ("beer", "diapers", 1) in result
        # Pairs appear in both orders and as self-pairs without the
        # arithmetic tie-break.
        assert ("diapers", "beer", 1) in result
        assert ("beer", "beer", 1) in result

    def test_arithmetic_restricts(self, basket_db, basket_query_ordered):
        result = evaluate_conjunctive(
            basket_db,
            basket_query_ordered,
            output_terms=[Parameter("1"), Parameter("2"), Variable("B")],
        )
        assert ("beer", "diapers", 1) in result
        assert ("diapers", "beer", 1) not in result
        assert ("beer", "beer", 1) not in result

    def test_negation(self, medical_db, medical_query):
        result = evaluate_conjunctive(
            medical_db,
            medical_query,
            output_terms=[Parameter("s"), Parameter("m"), Variable("P")],
        )
        # Patient 1 (flu): fever explained, rash not. Patient 2 (flu):
        # fever explained. Patient 3 (cold): rash unexplained.
        assert ("rash", "aspirin", 1) in result
        assert ("fever", "aspirin", 1) not in result
        assert ("rash", "statin", 3) in result

    def test_unsafe_query_rejected(self, basket_db):
        q = rule("answer", ["X"], [atom("baskets", "B", "$1")])
        with pytest.raises(SafetyError):
            evaluate_conjunctive(basket_db, q)

    def test_explicit_join_order(self, medical_db, medical_query):
        default = evaluate_conjunctive(
            medical_db,
            medical_query,
            output_terms=[Parameter("s"), Parameter("m")],
        )
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            forced = evaluate_conjunctive(
                medical_db,
                medical_query,
                output_terms=[Parameter("s"), Parameter("m")],
                join_order=order,
            )
            assert forced == default

    def test_bad_join_order_rejected(self, medical_db, medical_query):
        with pytest.raises(EvaluationError):
            evaluate_conjunctive(medical_db, medical_query, join_order=[0, 0, 1])

    def test_empty_body_with_constant_head(self, basket_db):
        q = rule("answer", [1], [])
        result = evaluate_conjunctive(basket_db, q)
        assert result.tuples == frozenset({(1,)})

    def test_constant_only_comparison_true(self, basket_db):
        q = rule("answer", [1], [comparison(1, "<", 2)])
        assert len(evaluate_conjunctive(basket_db, q)) == 1

    def test_constant_only_comparison_false(self, basket_db):
        q = rule("answer", [1], [comparison(2, "<", 1)])
        assert len(evaluate_conjunctive(basket_db, q)) == 0

    def test_ground_negation(self, basket_db):
        q = rule("answer", [1], [negated("baskets", 1, "'beer'")])
        assert len(evaluate_conjunctive(basket_db, q)) == 0
        q2 = rule("answer", [1], [negated("baskets", 99, "'beer'")])
        assert len(evaluate_conjunctive(basket_db, q2)) == 1

    def test_disconnected_subgoals_product(self):
        db = database_from_dict(
            {"r": (("X",), [(1,), (2,)]), "s": (("Y",), [(3,)])}
        )
        q = rule("answer", ["X", "Y"], [atom("r", "X"), atom("s", "Y")])
        result = evaluate_conjunctive(db, q)
        assert len(result) == 2

    def test_path_query(self, path_query_3):
        db = database_from_dict(
            {
                "arc": (
                    ("u", "v"),
                    # node 0 -> 1 -> 2 -> 3 -> 4 (long chain) and 0 -> 9 (dead end)
                    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 9)],
                )
            }
        )
        result = evaluate_conjunctive(
            db, path_query_3, output_terms=[Parameter("1"), Variable("X")]
        )
        # $1=0, X=1: path 1->2->3->4 of length 3 exists. X=9 has none.
        assert (0, 1) in result
        assert (0, 9) not in result

    def test_repeated_head_variable(self):
        """A head that repeats a variable labels the repeat positionally."""
        db = database_from_dict({"b": (("B", "I"), [("x", 1), ("x", 2), ("y", 1)])})
        result = evaluate_conjunctive(db, rule("answer", ["B", "B"], [atom("b", "B", "I")]))
        assert result.columns == ("B", "_h1")
        assert result.tuples == {("x", "x"), ("y", "y")}
