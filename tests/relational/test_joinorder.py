"""Tests for the pessimistic (UES) join orderer and its bound algebra."""

import pytest

from repro.datalog import atom
from repro.relational import (
    AtomBounds,
    atom_bounds,
    chain_upper_bounds,
    database_from_dict,
    evaluate_conjunctive,
    join_bounds,
    ues_join_order,
)
from repro.datalog import rule


@pytest.fixture
def chain_db():
    """A chain r(A,B)-s(B,C)-t(C,D) with a huge middle relation:
    the order should avoid starting from the middle."""
    return database_from_dict(
        {
            "r": (("A", "B"), [(i, i % 5) for i in range(20)]),
            "s": (("B", "C"), [(i % 50, i) for i in range(500)]),
            "t": (("C", "D"), [(i, 0) for i in range(10)]),
        }
    )


@pytest.fixture
def stats_db():
    """r(A,B) with known exact statistics: |r| = 5,
    A in {0,0,0,1,2} (3 distinct, max frequency 3),
    B in {0,1,2,0,1} (3 distinct, max frequency 2)."""
    return database_from_dict(
        {"r": (("A", "B"), [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)])}
    )


class TestAtomBounds:
    def test_exact_base_statistics(self, stats_db):
        bounds = atom_bounds(stats_db, atom("r", "A", "B"))
        assert bounds.card == 5.0
        assert bounds.distinct == {"A": 3.0, "B": 3.0}
        assert bounds.freq == {"A": 3.0, "B": 2.0}
        assert bounds.columns() == frozenset({"A", "B"})

    def test_runtime_filter_cap_tightens(self, stats_db):
        # A cap of k survivor keys on A certifies at most k distinct A
        # values and at most k * max_frequency(A) rows.
        bounds = atom_bounds(stats_db, atom("r", "A", "B"), caps={"A": 1})
        assert bounds.distinct["A"] == 1.0
        assert bounds.card == 3.0  # 1 key * max frequency 3

    def test_cap_on_unbound_column_is_ignored(self, stats_db):
        bounds = atom_bounds(stats_db, atom("r", "A", "B"), caps={"Z": 1})
        assert bounds.card == 5.0

    def test_per_column_bounds_never_exceed_cardinality(self, stats_db):
        bounds = atom_bounds(stats_db, atom("r", "A", "B"), caps={"B": 1})
        assert bounds.card == 2.0  # 1 key * max frequency 2
        assert all(d <= bounds.card for d in bounds.distinct.values())
        assert all(f <= bounds.card for f in bounds.freq.values())


class TestJoinBounds:
    def test_shared_column_formula(self):
        left = AtomBounds(10.0, {"A": 5.0, "B": 2.0}, {"A": 2.0, "B": 5.0})
        right = AtomBounds(8.0, {"B": 4.0, "C": 8.0}, {"B": 2.0, "C": 1.0})
        out = join_bounds(left, right)
        # min over: 10*8, min(2,4)*5*2, 10*2, 8*5.
        assert out.card == 20.0
        assert out.distinct == {"A": 5.0, "B": 2.0, "C": 8.0}
        # Shared col: product of max frequencies; non-shared: own max
        # frequency times the other side's per-row fan-out certificate.
        assert out.freq == {"A": 4.0, "B": 10.0, "C": 5.0}

    def test_cartesian_product_when_no_shared_columns(self):
        left = AtomBounds(3.0, {"A": 3.0}, {"A": 1.0})
        right = AtomBounds(4.0, {"C": 2.0}, {"C": 2.0})
        out = join_bounds(left, right)
        assert out.card == 12.0
        # Every row of one side pairs with every row of the other.
        assert out.freq == {"A": 4.0, "C": 6.0}

    def test_join_is_commutative_on_card(self):
        left = AtomBounds(10.0, {"A": 5.0, "B": 2.0}, {"A": 2.0, "B": 5.0})
        right = AtomBounds(8.0, {"B": 4.0, "C": 8.0}, {"B": 2.0, "C": 1.0})
        assert join_bounds(left, right).card == join_bounds(right, left).card


class TestUesJoinOrder:
    @pytest.fixture
    def trap_db(self):
        """The opening-move trap: ``tiny`` is the smallest relation, but
        its only join partner ``fat`` fans out 50x on the shared
        column, while ``u`` ⋈ ``v`` is certified to stay at 10 rows."""
        return database_from_dict(
            {
                "tiny": (("A",), [(0,), (1,)]),
                "fat": (("A", "B"), [(i % 2, i // 2) for i in range(100)]),
                "u": (("B", "C"), [(i, i) for i in range(10)]),
                "v": (("C", "D"), [(i, i % 3) for i in range(10)]),
            }
        )

    TRAP_ATOMS = (
        atom("tiny", "A"),
        atom("fat", "A", "B"),
        atom("u", "B", "C"),
        atom("v", "C", "D"),
    )

    def test_empty_and_single(self, trap_db):
        assert ues_join_order(trap_db, ()) == []
        assert ues_join_order(trap_db, (atom("tiny", "A"),)) == [0]

    def test_is_a_permutation(self, trap_db):
        assert sorted(ues_join_order(trap_db, self.TRAP_ATOMS)) == [0, 1, 2, 3]

    def test_opens_with_cheapest_pair_not_smallest_relation(self, trap_db):
        # Regression: a fixed smallest-relation start would open with
        # ``tiny`` and immediately join ``fat`` (bound 100); the pair
        # bound knows ``u`` ⋈ ``v`` is certified at 10 rows.
        order = ues_join_order(trap_db, self.TRAP_ATOMS)
        assert set(order[:2]) == {2, 3}

    def test_cartesian_fallback_starts_smallest(self, trap_db):
        atoms = (atom("fat", "A", "B"), atom("v", "X", "Y"))
        order = ues_join_order(trap_db, atoms)
        assert order[0] == 1  # v has 10 rows, fat has 100

    def test_scan_caps_redirect_the_order(self, trap_db):
        # Capping fat's shared column to one survivor key certifies
        # tiny ⋈ fat at <= 1 * max_frequency(A) — suddenly competitive.
        caps = {1: {"A": 1}}
        capped = chain_upper_bounds(
            trap_db, self.TRAP_ATOMS, ues_join_order(trap_db, self.TRAP_ATOMS, caps),
            caps,
        )
        uncapped = chain_upper_bounds(
            trap_db, self.TRAP_ATOMS, ues_join_order(trap_db, self.TRAP_ATOMS)
        )
        assert capped[-1] <= uncapped[-1]

    def test_avoids_starting_with_giant(self, chain_db):
        atoms = (atom("r", "A", "B"), atom("s", "B", "C"), atom("t", "C", "D"))
        order = ues_join_order(chain_db, atoms)
        assert order[0] != 1  # s is the 500-row middle

    def test_parameters_count_as_join_columns(self, chain_db):
        atoms = (atom("r", "A", "$p"), atom("s", "$p", "C"))
        order = ues_join_order(chain_db, atoms)
        assert sorted(order) == [0, 1]

    def test_star_query(self):
        """A star join: fact table with three small dimensions."""
        db = database_from_dict(
            {
                "fact": (
                    ("K1", "K2", "K3"),
                    [(i % 4, i % 3, i % 2) for i in range(100)],
                ),
                "d1": (("K1", "V1"), [(i, i) for i in range(4)]),
                "d2": (("K2", "V2"), [(i, i) for i in range(3)]),
                "d3": (("K3", "V3"), [(i, i) for i in range(2)]),
            }
        )
        atoms = (
            atom("fact", "K1", "K2", "K3"),
            atom("d1", "K1", "V1"),
            atom("d2", "K2", "V2"),
            atom("d3", "K3", "V3"),
        )
        order = ues_join_order(db, atoms)
        assert sorted(order) == [0, 1, 2, 3]
        query = rule("answer", ["V1", "V2", "V3"], list(atoms))
        assert evaluate_conjunctive(db, query, join_order=order) == (
            evaluate_conjunctive(db, query)
        )

    def test_order_produces_same_result_as_default(self, trap_db):
        query = rule(
            "answer",
            ["A", "D"],
            list(self.TRAP_ATOMS),
        )
        order = ues_join_order(trap_db, query.positive_atoms())
        assert evaluate_conjunctive(trap_db, query, join_order=order) == (
            evaluate_conjunctive(trap_db, query)
        )


class TestChainUpperBounds:
    def test_one_bound_per_stage(self, chain_db):
        atoms = (atom("r", "A", "B"), atom("s", "B", "C"), atom("t", "C", "D"))
        order = ues_join_order(chain_db, atoms)
        bounds = chain_upper_bounds(chain_db, atoms, order)
        assert len(bounds) == len(order)

    def test_first_bound_is_the_opening_scan(self, chain_db):
        atoms = (atom("r", "A", "B"), atom("s", "B", "C"))
        bounds = chain_upper_bounds(chain_db, atoms, [1, 0])
        assert bounds[0] == 500.0  # |s|

    def test_bounds_dominate_actual_output(self, chain_db):
        query = rule(
            "answer",
            ["A", "D"],
            [atom("r", "A", "B"), atom("s", "B", "C"), atom("t", "C", "D")],
        )
        atoms = query.positive_atoms()
        order = ues_join_order(chain_db, atoms)
        bounds = chain_upper_bounds(chain_db, atoms, order)
        actual = evaluate_conjunctive(chain_db, query, join_order=order)
        assert bounds[-1] >= len(actual)
