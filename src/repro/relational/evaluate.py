"""Evaluation of extended conjunctive queries over a :class:`Database`.

This module is the public facade over the physical-plan engine
(:mod:`repro.engine`): a query is *lowered* once — join order chosen,
comparisons and negated subgoals attached to the earliest stage where
their terms are bound — and the resulting
:class:`~repro.engine.ir.PhysicalPlan` is interpreted by the columnar
in-memory engine.  ``lower_rule(...).render()`` (what ``repro explain``
prints) renders the very same plan object, so the printed plan is by
construction the executed one.

Column naming convention: a binding column is the rendered term —
``"P"`` for a variable, ``"$s"`` for a parameter — so the same term
always joins with itself across subgoals.
"""

from __future__ import annotations

from typing import Sequence

from ..datalog.query import ConjunctiveQuery
from ..datalog.safety import assert_safe
from ..datalog.terms import Term
from ..engine.memory import MemoryEngine
from ..engine.planner import lower_rule
from ..guard import GuardLike
from .binding import atom_binding_relation, term_column
from .catalog import Database
from .relation import Relation

__all__ = [
    "atom_binding_relation",
    "evaluate_conjunctive",
    "term_column",
]


def evaluate_conjunctive(
    db: Database,
    query: ConjunctiveQuery,
    output_terms: Sequence[Term] | None = None,
    join_order: Sequence[int] | None = None,
    check_safe: bool = True,
    guard: GuardLike = None,
) -> Relation:
    """Evaluate one extended conjunctive query.

    Args:
        db: the database to evaluate against.
        query: a safe extended CQ.
        output_terms: terms to project the result onto; defaults to the
            query's head terms.  Every bindable output term must occur in
            a positive subgoal.
        join_order: optional explicit ordering of the positive subgoals
            (indices into ``query.positive_atoms()``); wins over the
            UES bound order.
        check_safe: set ``False`` to skip the safety assertion when the
            caller has already checked (the optimizer's hot path).
        guard: optional :class:`~repro.guard.ExecutionGuard` (or
            :class:`~repro.guard.ResourceBudget` /
            :class:`~repro.guard.CancellationToken`) checked after every
            join step.

    Returns:
        A relation whose columns are the rendered output terms, with
        set semantics.
    """
    if check_safe:
        assert_safe(query)
    plan = lower_rule(
        db,
        query,
        output_terms=output_terms,
        join_order=join_order,
    )
    engine = MemoryEngine(db, guard=guard)
    return engine.run_plan(plan)
