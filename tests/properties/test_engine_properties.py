"""Property tests pairing alternative engine paths against each other.

Different join orders (the UES bound order and explicit ones) and the
arithmetic-aware containment test all must agree with ground-truth
evaluation on random inputs.
"""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import atom, comparison, contains_extended, rule
from repro.relational import (
    Database,
    Relation,
    evaluate_conjunctive,
    ues_join_order,
)


rel_rows = st.frozensets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12
)


def make_db(r_rows, s_rows, t_rows) -> Database:
    return Database(
        [
            Relation("r", ("u", "v"), r_rows),
            Relation("s", ("u", "v"), s_rows),
            Relation("t", ("u", "v"), t_rows),
        ]
    )


@st.composite
def chain_query(draw):
    """r(A,B) ⋈ s(B,C) ⋈ t(C,D) with optional comparisons."""
    body = [atom("r", "A", "B"), atom("s", "B", "C"), atom("t", "C", "D")]
    if draw(st.booleans()):
        body.append(comparison("A", draw(st.sampled_from(["<", "<=", "!="])), "D"))
    return rule("answer", ["A", "D"], body)


class TestJoinOrderIndependence:
    @given(chain_query(), rel_rows, rel_rows, rel_rows)
    @settings(max_examples=60, deadline=None)
    def test_all_orders_agree(self, query, r_rows, s_rows, t_rows):
        db = make_db(r_rows, s_rows, t_rows)
        n = len(query.positive_atoms())
        reference = evaluate_conjunctive(db, query)
        for order in permutations(range(n)):
            assert evaluate_conjunctive(db, query, join_order=list(order)) == (
                reference
            )

    @given(chain_query(), rel_rows, rel_rows, rel_rows)
    @settings(max_examples=60, deadline=None)
    def test_ues_equals_reversed_result(self, query, r_rows, s_rows, t_rows):
        db = make_db(r_rows, s_rows, t_rows)
        atoms = query.positive_atoms()
        ues = ues_join_order(db, atoms)
        assert sorted(ues) == list(range(len(atoms)))
        assert evaluate_conjunctive(db, query) == (
            evaluate_conjunctive(db, query, join_order=ues[::-1])
        )


@st.composite
def arith_query(draw):
    """One or two positive atoms over r/s plus zero..two comparisons
    among the variables A, B and small constants."""
    body = [atom("r", "A", "B")]
    if draw(st.booleans()):
        body.append(atom("s", "A", "B"))
    operands = ["A", "B", 1, 2]
    for _ in range(draw(st.integers(0, 2))):
        left = draw(st.sampled_from(operands))
        right = draw(st.sampled_from(operands))
        op = draw(st.sampled_from(["<", "<=", "=", "!="]))
        body.append(comparison(left, op, right))
    return rule("answer", ["A"], body)


class TestArithmeticContainmentSemantics:
    @given(arith_query(), arith_query(), rel_rows, rel_rows)
    @settings(max_examples=120, deadline=None)
    def test_contains_extended_sound(self, q1, q2, r_rows, s_rows):
        """If contains_extended(q1, q2), then result(q2) ⊆ result(q1)
        on every database."""
        if not contains_extended(q1, q2):
            return
        db = Database(
            [
                Relation("r", ("u", "v"), r_rows),
                Relation("s", ("u", "v"), s_rows),
            ]
        )
        res1 = evaluate_conjunctive(db, q1)
        res2 = evaluate_conjunctive(db, q2)
        assert res2.tuples <= res1.tuples, (
            f"{q1} claimed to contain {q2} but a result tuple escapes"
        )
