"""Tests for intermediate predicates (the Example 2.2 extension)."""

import pytest

from repro.datalog import Program, materialize_views, negated, parse_rule, rule
from repro.errors import EvaluationError, SafetyError
from repro.flocks import QueryFlock, evaluate_flock, support_filter
from repro.relational import database_from_dict


@pytest.fixture
def multi_disease_db():
    """Patient 1 has TWO diseases; flu causes fever, pox causes rash.
    Under the naive Fig. 3 flock (one diagnosis joined per row), the
    rash would look unexplained via the flu row — the intermediate
    'explained' predicate fixes that."""
    return database_from_dict(
        {
            "diagnoses": (
                ("P", "D"),
                [(1, "flu"), (1, "pox"), (2, "flu"), (3, "flu")],
            ),
            "exhibits": (
                ("P", "S"),
                [(1, "fever"), (1, "rash"), (2, "rash"), (3, "rash")],
            ),
            "treatments": (
                ("P", "M"),
                [(1, "aspirin"), (2, "aspirin"), (3, "aspirin")],
            ),
            "causes": (("D", "S"), [("flu", "fever"), ("pox", "rash")]),
        }
    )


EXPLAINED = parse_rule("explained(P, S) :- diagnoses(P, D) AND causes(D, S)")


class TestProgramValidation:
    def test_builds(self):
        Program((EXPLAINED,))

    def test_unsafe_rule_rejected(self):
        bad = rule("v", ["X"], [negated("r", "X")])
        with pytest.raises(SafetyError):
            Program((bad,))

    def test_parameters_rejected(self):
        bad = parse_rule("v(P) :- r(P, $x)")
        with pytest.raises(SafetyError):
            Program((bad,))

    def test_arity_conflict_rejected(self):
        r1 = parse_rule("v(X) :- r(X, Y)")
        r2 = parse_rule("v(X, Y) :- r(X, Y)")
        with pytest.raises(EvaluationError):
            Program((r1, r2))

    def test_recursion_rejected(self):
        r1 = parse_rule("v(X) :- w(X)")
        r2 = parse_rule("w(X) :- v(X)")
        with pytest.raises(EvaluationError):
            Program((r1, r2))

    def test_self_recursion_rejected(self):
        r = parse_rule("v(X) :- v(X)")
        with pytest.raises(EvaluationError):
            Program((r,))


class TestMaterialize:
    def test_view_contents(self, multi_disease_db):
        scratch = materialize_views(multi_disease_db, [EXPLAINED])
        explained = scratch.get("explained")
        assert explained.columns == ("P", "S")
        assert (1, "fever") in explained
        assert (1, "rash") in explained   # via pox
        assert (2, "rash") not in explained

    def test_base_db_untouched(self, multi_disease_db):
        materialize_views(multi_disease_db, [EXPLAINED])
        assert "explained" not in multi_disease_db

    def test_union_of_rules_same_head(self):
        db = database_from_dict(
            {"r": (("X",), [(1,)]), "s": (("X",), [(2,)])}
        )
        r1 = parse_rule("v(X) :- r(X)")
        r2 = parse_rule("v(Y) :- s(Y)")
        scratch = materialize_views(db, [r1, r2])
        assert scratch.get("v").tuples == frozenset({(1,), (2,)})

    def test_repeated_head_variable(self):
        db = database_from_dict({"b": (("B", "I"), [("x", 1), ("x", 2), ("y", 1)])})
        scratch = materialize_views(db, [parse_rule("v(B,B) :- b(B,I)")])
        assert scratch.get("v").tuples == frozenset({("x", "x"), ("y", "y")})

    def test_layered_views(self):
        db = database_from_dict({"r": (("X", "Y"), [(1, 2), (2, 3)])})
        hop1 = parse_rule("hop1(X, Z) :- r(X, Y) AND r(Y, Z)")
        hop2 = parse_rule("hop2(X, Z) :- hop1(X, Y) AND r(Y, Z)")
        # Register out of order: topological sort must fix it.
        scratch = materialize_views(db, [hop2, hop1])
        assert scratch.get("hop1").tuples == frozenset({(1, 3)})
        assert len(scratch.get("hop2")) == 0

    def test_evaluation_order(self):
        hop1 = parse_rule("hop1(X, Z) :- r(X, Y) AND r(Y, Z)")
        hop2 = parse_rule("hop2(X, Z) :- hop1(X, Y) AND r(Y, Z)")
        program = Program((hop2, hop1))
        order = program.evaluation_order()
        assert order.index("hop1") < order.index("hop2")


class TestMultiDiseaseFlock:
    """The paper's motivating case for the extension."""

    def flock(self):
        query = parse_rule(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
            "NOT explained(P,$s)"
        )
        return QueryFlock(query, support_filter(2, target="P"))

    def naive_fig3_flock(self):
        query = parse_rule(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
            "diagnoses(P,D) AND NOT causes(D,$s)"
        )
        return QueryFlock(query, support_filter(2, target="P"))

    def test_view_flock_correct_for_multi_disease(self, multi_disease_db):
        scratch = materialize_views(multi_disease_db, [EXPLAINED])
        result = evaluate_flock(scratch, self.flock())
        # rash/aspirin unexplained only for patients 2 and 3 (patient
        # 1's rash is explained by pox): support 2 met.
        assert result.tuples == frozenset({("aspirin", "rash")})

    def test_naive_fig3_overcounts_multi_disease(self, multi_disease_db):
        """Demonstrates *why* the paper needs the extension: with one
        diagnosis joined per row, patient 1's rash pairs with the flu
        row and looks unexplained, inflating the count to 3."""
        from repro.engine.memory import MemoryEngine
        from repro.flocks import single_step_plan
        from repro.flocks.executor import lower_filter_step

        flock = self.naive_fig3_flock()
        answer = MemoryEngine(multi_disease_db).run_answer(
            lower_filter_step(
                multi_disease_db, flock, single_step_plan(flock).final_step
            )
        )
        rash_rows = {
            row for row in answer.tuples if row[1] == "rash"
        }
        patients = {row[2] for row in rash_rows}
        assert 1 in patients  # the spurious unexplained-rash witness
