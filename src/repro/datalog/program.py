"""Intermediate predicates: nonrecursive Datalog programs (views).

Example 2.2's caveat: "To include patients with several diseases
simultaneously, we would have to extend our query-flocks language to
allow intermediate predicates ... That extension is feasible but we
shall concentrate on the simpler cases."  This module implements that
feasible extension for the nonrecursive case:

* a :class:`Program` is a set of rules defining *intermediate* (IDB)
  predicates from base (EDB) relations and other intermediates;
* rules may not be recursive (the dependency graph must be acyclic) —
  flocks need materializable views, not fixpoints;
* :meth:`Program.materialize` evaluates the program bottom-up in
  topological order against a database, producing a scratch database in
  which the intermediate predicates are ordinary relations — so any
  flock (and any flock plan) can use them unchanged.

The canonical use is the multi-disease side-effect flock::

    explained(P, S) :- diagnoses(P, D) AND causes(D, S)

    QUERY:
    answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND
                 NOT explained(P,$s)
    FILTER:
    COUNT(answer.P) >= 20

which is correct even when a patient has several diagnoses: a symptom
counts as explained if *any* disease of the patient causes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from ..errors import EvaluationError, SafetyError
from ..relational.catalog import Database
from ..relational.evaluate import evaluate_conjunctive
from ..relational.operators import union_all
from ..relational.relation import Relation
from .atoms import RelationalAtom
from .query import ConjunctiveQuery
from .safety import assert_safe


@dataclass(frozen=True)
class Program:
    """A nonrecursive set of view definitions.

    Multiple rules with the same head predicate union their results
    (standard Datalog semantics).  Head terms must be variables or
    constants — parameters make no sense in a view shared by all
    parameter assignments — and every rule must be safe.
    """

    rules: tuple[ConjunctiveQuery, ...]

    def __post_init__(self) -> None:
        arities: dict[str, int] = {}
        for rule in self.rules:
            assert_safe(rule)
            if rule.parameters():
                raise SafetyError(
                    f"view rule '{rule}' uses flock parameters; intermediate "
                    "predicates are parameter-free"
                )
            previous = arities.setdefault(rule.head_name, len(rule.head_terms))
            if previous != len(rule.head_terms):
                raise EvaluationError(
                    f"predicate {rule.head_name!r} defined with arities "
                    f"{previous} and {len(rule.head_terms)}"
                )
        self._check_acyclic()

    # ------------------------------------------------------------------

    def intermediate_predicates(self) -> frozenset[str]:
        return frozenset(rule.head_name for rule in self.rules)

    def _dependencies(self) -> dict[str, set[str]]:
        """head -> set of intermediate predicates its bodies read."""
        heads = self.intermediate_predicates()
        graph: dict[str, set[str]] = {h: set() for h in heads}
        for rule in self.rules:
            for sg in rule.body:
                if isinstance(sg, RelationalAtom) and sg.predicate in heads:
                    graph[rule.head_name].add(sg.predicate)
        return graph

    def _check_acyclic(self) -> None:
        try:
            list(TopologicalSorter(self._dependencies()).static_order())
        except CycleError as error:
            raise EvaluationError(
                f"recursive view definitions are not supported: {error.args[1]}"
            ) from None

    def evaluation_order(self) -> list[str]:
        """Intermediate predicates in bottom-up (dependency) order."""
        return list(TopologicalSorter(self._dependencies()).static_order())

    # ------------------------------------------------------------------

    def materialize(self, db: Database) -> Database:
        """Evaluate every view; return a scratch database containing the
        base relations plus the materialized intermediates.

        View columns are the first rule's output labels
        (:func:`~repro.engine.planner.lower_rule`'s: the head variables,
        with positional ``_const<i>`` names for constants and ``_h<i>``
        for a repeated variable's later occurrences), so flock subgoals
        over the view join exactly as over a base relation.
        """
        scratch = db.scratch()
        by_head: dict[str, list[ConjunctiveQuery]] = {}
        for rule in self.rules:
            by_head.setdefault(rule.head_name, []).append(rule)

        for predicate in self.evaluation_order():
            branch_results: list[Relation] = []
            columns: tuple[str, ...] | None = None
            for rule in by_head[predicate]:
                result = evaluate_conjunctive(scratch, rule)
                if columns is None:
                    columns = result.columns
                # Align positionally: later rules may use different
                # variable names.
                branch_results.append(Relation(predicate, columns, result.tuples))
            assert columns is not None
            merged = union_all(branch_results, name=predicate)
            scratch.add(merged)
        return scratch


def materialize_views(
    db: Database, rules: tuple[ConjunctiveQuery, ...] | list[ConjunctiveQuery]
) -> Database:
    """One-call convenience: build a :class:`Program` and materialize."""
    return Program(tuple(rules)).materialize(db)
