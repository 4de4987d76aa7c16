"""Physical-IR regression tests.

The load-bearing guarantee of the engine layer: ``repro explain`` output
is rendered from the *same* :class:`PhysicalPlan` object the engine
executes, so the join order it names is — by construction, and checked
here — exactly the order the joins run in.
"""

import pytest

from repro.engine import MemoryEngine, lower_rule
from repro.errors import EvaluationError
from repro.guard import ExecutionGuard
from repro.relational.evaluate import evaluate_conjunctive
from repro.workloads import generate_medical


@pytest.fixture(scope="module")
def medical():
    return generate_medical(n_patients=120, seed=7)


def reversed_ues_order(db, query) -> list[int]:
    """A second, explicit join order: the bound order backwards."""
    return list(reversed(lower_rule(db, query).order))


def rendered_atom_predicates(text: str) -> list[str]:
    """The predicates of the scan/join lines of an explain rendering,
    in the order they appear."""
    predicates = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("scan ") or stripped.startswith("join "):
            atom_text = stripped.split(None, 1)[1]
            predicates.append(atom_text.split("(", 1)[0])
    return predicates


class TestExplainNamesExecutedOrder:
    """Satellite regression: explain output == executed join order."""

    @pytest.mark.parametrize("ordered_by", ["explicit", "ues"])
    def test_render_is_the_executed_plan(
        self, medical, medical_query, ordered_by
    ):
        db = medical.db
        order = reversed_ues_order(db, medical_query) if (
            ordered_by == "explicit"
        ) else None
        plan = lower_rule(db, medical_query, join_order=order)

        # repro explain renders a fresh lowering — byte identical.
        assert (
            lower_rule(db, medical_query, join_order=order).render()
            == plan.render()
        )
        assert f"({ordered_by} join order)" in plan.render()

        # Execute the very same plan object; the guard trace records one
        # row per join stage, in execution order.
        guard = ExecutionGuard()
        MemoryEngine(db, guard=guard).run_plan(plan)
        executed = [step.name for step in guard.trace.steps]
        assert executed == [stage.node for stage in plan.stages]

        # And the explain text names that exact order.
        assert rendered_atom_predicates(plan.render()) == [
            name.split(":", 1)[1] for name in executed
        ]

    def test_explicit_and_ues_agree_on_answers(self, medical, medical_query):
        db = medical.db
        ues = evaluate_conjunctive(db, medical_query)
        explicit = evaluate_conjunctive(
            db, medical_query,
            join_order=reversed_ues_order(db, medical_query),
        )
        assert explicit == ues


class TestLowering:
    def test_first_stage_has_no_join(self, medical, medical_query):
        plan = lower_rule(medical.db, medical_query)
        assert plan.stages[0].join is None
        assert all(stage.join is not None for stage in plan.stages[1:])

    def test_explicit_order_must_be_permutation(self, medical, medical_query):
        with pytest.raises(EvaluationError, match="not a permutation"):
            lower_rule(medical.db, medical_query, join_order=[0, 0, 1])

    def test_unknown_strategy_rejected(self, medical, medical_query):
        """No orderer is selectable by name: a plan takes the UES bound
        order or an explicit permutation."""
        with pytest.raises(TypeError, match="order_strategy"):
            lower_rule(medical.db, medical_query, order_strategy="greedy")

    def test_negation_attached_once(self, medical, medical_query):
        plan = lower_rule(medical.db, medical_query)
        anti_joins = [
            op
            for stage in plan.stages
            for op in stage.filters
            if type(op).__name__ == "AntiJoin"
        ] + [
            op for op in plan.unit_filters if type(op).__name__ == "AntiJoin"
        ]
        assert len(anti_joins) == 1

    def test_explicit_order_is_followed(self, medical, medical_query):
        order = [2, 0, 1]
        plan = lower_rule(medical.db, medical_query, join_order=order)
        assert list(plan.order) == order
        assert plan.ordered_by == "explicit"
