"""Lowering: logical rules and FILTER steps become physical plans, once.

The planner turns one extended conjunctive query into a
:class:`~repro.engine.ir.PhysicalPlan`: pick a join order (the
pessimistic UES bound order, or a caller-supplied one), emit one
:class:`JoinStage` per positive subgoal, attach each
comparison/negation to the earliest stage where its terms are bound
(the same eager placement Sections 4.1–4.3 assume for selections),
compute System-R style size estimates *and* guaranteed UES upper bounds
per stage, push runtime semi-join filters into scans whose columns a
materialized pre-filter step already constrains, and close with a
:class:`Materialize` projection.  :func:`lower_step` wraps the
rule plans of one ``R(P) := FILTER(P, Q, C)`` step with the union /
group-aggregate / threshold-filter operators.

Both engines — in-memory (:mod:`repro.engine.memory`) and SQLite
(:mod:`repro.engine.sqlgen`) — interpret the plans built here; no
strategy or backend re-derives ordering or filter placement on its own.
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

from ..datalog.atoms import RelationalAtom
from ..datalog.query import ConjunctiveQuery
from ..datalog.terms import Term, is_bindable
from ..errors import EvaluationError
from ..relational.binding import term_column
from ..relational.catalog import Database
from ..relational.joinorder import (
    ScanCaps,
    chain_upper_bounds,
    ues_join_order,
)
from .ir import (
    AggregateSpec,
    AntiJoin,
    CompareFilter,
    GroupAggregate,
    HashJoin,
    JoinStage,
    Materialize,
    PhysicalPlan,
    Scan,
    ScanFilter,
    StepPlan,
    ThresholdFilter,
    UnionOp,
)


def order_positive_atoms(
    db: Database,
    positives: Sequence[RelationalAtom],
    join_order: Sequence[int] | None = None,
    scan_caps: ScanCaps | None = None,
) -> tuple[list[int], str]:
    """The join order to lower with, and the label it renders under.

    An explicit ``join_order`` (indices into ``positives``) wins over
    the UES bound order; it must be a permutation.  ``scan_caps``
    carries the runtime-filter key counts the bounds read.
    """
    if join_order is None:
        return ues_join_order(db, positives, scan_caps), "ues"
    order = list(join_order)
    if sorted(order) != list(range(len(positives))):
        raise EvaluationError(
            f"join_order {order} is not a permutation of the "
            f"{len(positives)} positive subgoals"
        )
    return order, "explicit"


def scan_columns(atom: RelationalAtom) -> tuple[str, ...]:
    """The binding-relation columns of one subgoal: rendered bindable
    terms, first occurrence only (constants/repeats are selections)."""
    seen: set[str] = set()
    columns: list[str] = []
    for term in atom.terms:
        if is_bindable(term):
            column = term_column(term)
            if column not in seen:
                seen.add(column)
                columns.append(column)
    return tuple(columns)


def _column_for(db: Database, atom: RelationalAtom, rendered: str) -> str:
    """The base-relation column an atom binds for a rendered term name."""
    columns = db.get(atom.predicate).columns
    for position, term in enumerate(atom.terms):
        if term_column(term) == rendered and position < len(columns):
            return columns[position]
    return rendered


def scan_filter_map(
    db: Database,
    positives: Sequence[RelationalAtom],
    runtime_filters: Collection[str] | None,
) -> dict[str, ScanFilter]:
    """Rendered column → the tightest runtime semi-join filter for it.

    ``runtime_filters`` names materialized pre-filter results (``ok``
    relations of earlier plan steps) present in ``db``.  A filter on
    column ``c`` sourced from ``S`` is *sound* for this rule only
    because some positive subgoal of the rule is an ``S``-atom binding
    ``c`` — the join with ``S`` would discard non-survivor rows anyway,
    so the scan-time semi-join is pure work removal.  When two sources
    cover the same column the smaller survivor set wins.
    """
    if not runtime_filters:
        return {}
    filters: dict[str, ScanFilter] = {}
    for atom in positives:
        if atom.predicate not in runtime_filters or atom.predicate not in db:
            continue
        source = db.get(atom.predicate)
        keys = len(source)
        for position, term in enumerate(atom.terms):
            if not is_bindable(term) or position >= len(source.columns):
                continue
            column = term_column(term)
            incumbent = filters.get(column)
            if incumbent is None or keys < incumbent.keys:
                filters[column] = ScanFilter(
                    column=column,
                    source=atom.predicate,
                    source_column=source.columns[position],
                    keys=keys,
                )
    return filters


def _scan_caps(
    positives: Sequence[RelationalAtom],
    filters: Mapping[str, ScanFilter],
) -> dict[int, dict[str, int]]:
    """Per-atom column caps for the UES bound algebra, mirroring exactly
    the scan filters :func:`lower_rule` will attach."""
    caps: dict[int, dict[str, int]] = {}
    for index, atom in enumerate(positives):
        entry = {
            column: filters[column].keys
            for column in scan_columns(atom)
            if column in filters and filters[column].source != atom.predicate
        }
        if entry:
            caps[index] = entry
    return caps


def lower_rule(
    db: Database,
    query: ConjunctiveQuery,
    output_terms: Sequence[Term] | None = None,
    output_columns: Sequence[str] | None = None,
    join_order: Sequence[int] | None = None,
    runtime_filters: Collection[str] | None = None,
) -> PhysicalPlan:
    """Lower one rule to a physical plan.

    Args:
        db: catalog supplying cardinalities and distinct counts.
        query: a safe extended conjunctive query.
        output_terms: terms to project onto; defaults to the head terms.
        output_columns: labels for the output columns; defaults to the
            rendered terms (constants become ``_const{i}``, and a
            repeated term's later occurrences ``_h{i}``).
        join_order: explicit positive-subgoal order (wins over the UES
            bound order).
        runtime_filters: names of materialized pre-filter results whose
            survivor keys may be pushed into later scans as
            :class:`~repro.engine.ir.ScanFilter` operators (sideways
            information passing).
    """
    positives = query.positive_atoms()
    filters_by_column = scan_filter_map(db, positives, runtime_filters)
    caps = _scan_caps(positives, filters_by_column)
    order, ordered_by = order_positive_atoms(
        db, positives, join_order=join_order, scan_caps=caps,
    )
    # Guaranteed output bounds along the chosen order — explicit orders
    # included — so EXPLAIN can print estimate vs bound.
    stage_bounds = chain_upper_bounds(db, positives, order, caps)
    pending_comparisons = list(query.comparisons())
    pending_negations = list(query.negated_atoms())

    stages: list[JoinStage] = []
    bound: set[str] = set()
    running = 1.0
    prev_columns: tuple[str, ...] = ()

    def attach_bound_filters(columns: tuple[str, ...]):
        attached: list = []
        progress = True
        while progress:
            progress = False
            for comp in list(pending_comparisons):
                if all(term_column(t) in bound for t in comp.bindable_terms()):
                    attached.append(CompareFilter(comp, columns))
                    pending_comparisons.remove(comp)
                    progress = True
            for neg in list(pending_negations):
                if all(term_column(t) in bound for t in neg.bindable_terms()):
                    attached.append(AntiJoin(neg, columns))
                    pending_negations.remove(neg)
                    progress = True
        return tuple(attached)

    for position, idx in enumerate(order):
        atom = positives[idx]
        stats = db.stats(atom.predicate)
        columns = scan_columns(atom)
        scan = Scan(atom, columns, stats.cardinality)
        atom_column_set = set(columns)
        if position == 0:
            join = None
            running = float(stats.cardinality)
            stage_columns = columns
        else:
            shared = sorted(bound & atom_column_set)
            # Independence estimate with the running size as the left
            # side; join-column distincts bounded by the right relation's.
            size = running * stats.cardinality
            for shared_column in shared:
                base_column = _column_for(db, atom, shared_column)
                size /= max(stats.distinct_count(base_column), 1)
            running = size
            stage_columns = prev_columns + tuple(
                c for c in columns if c not in set(prev_columns)
            )
            join = HashJoin(tuple(shared), stage_columns, running)
        bound |= atom_column_set
        filters = attach_bound_filters(stage_columns)
        stage_scan_filters = tuple(
            filters_by_column[column]
            for column in columns
            if column in filters_by_column
            and filters_by_column[column].source != atom.predicate
        )
        stages.append(
            JoinStage(
                scan,
                join,
                filters,
                f"join:{atom.predicate}",
                scan_filters=stage_scan_filters,
                bound=stage_bounds[position],
            )
        )
        prev_columns = stage_columns

    # Queries with no positive atoms still must apply constant-only
    # subgoals (safety allows e.g. `answer(1) :- 1 < 2`).
    unit_filters = attach_bound_filters(prev_columns)
    if pending_comparisons or pending_negations:
        left = pending_comparisons + pending_negations
        raise EvaluationError(
            f"subgoals never became bound: {[str(s) for s in left]} "
            "(query should have failed the safety check)"
        )

    root = _lower_materialize(
        query, output_terms, output_columns, bound, name=query.head_name
    )
    plan = PhysicalPlan(
        query=query,
        ordered_by=ordered_by,
        order=tuple(order),
        stages=tuple(stages),
        unit_filters=unit_filters,
        root=root,
    )
    _verify_lowered(plan, db)
    return plan


def _verify_lowered(plan, db: Database) -> None:
    """Schema-check a freshly lowered plan when the ambient verification
    switch (``mine(verify_plans=True)``, or the test suite's fixture) is
    on.  This covers every lowering path — static strategies, the naive
    evaluator, and the dynamic strategy's explicit-order re-lowering."""
    from ..analysis.verification import plan_verification_enabled

    if plan_verification_enabled():
        from ..analysis.schema import assert_physical_plan

        assert_physical_plan(plan, db=db)


def _lower_materialize(
    query: ConjunctiveQuery,
    output_terms: Sequence[Term] | None,
    output_columns: Sequence[str] | None,
    bound: set[str],
    name: str,
) -> Materialize:
    terms = tuple(
        output_terms if output_terms is not None else query.head_terms
    )
    labels: list[str] = []
    for i, term in enumerate(terms):
        if is_bindable(term):
            column = term_column(term)
            if column not in bound:
                raise EvaluationError(
                    f"output term {term} is not bound by any positive subgoal"
                )
            # A repeated term keeps its labels unique positionally.
            labels.append(column if column not in labels else f"_h{i}")
        else:
            labels.append(f"_const{i}")
    if output_columns is not None:
        if len(output_columns) != len(terms):
            raise EvaluationError(
                f"output_columns has {len(output_columns)} names for "
                f"{len(terms)} output terms"
            )
        labels = list(output_columns)
    return Materialize(name=name, output_terms=terms, columns=tuple(labels))


def lower_step(
    db: Database,
    rules: Sequence[ConjunctiveQuery],
    output_terms_per_rule: Sequence[Sequence[Term]],
    answer_columns: Sequence[str],
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    conditions: Sequence[tuple[object, str]],
    result_name: str,
    runtime_filters: Collection[str] | None = None,
) -> StepPlan:
    """Lower one FILTER step: union the rule plans, group by the
    parameter columns, aggregate one column per filter conjunct, apply
    the threshold filter, and materialize the survivors."""
    branches = tuple(
        lower_rule(
            db,
            rule,
            output_terms=terms,
            output_columns=answer_columns,
            runtime_filters=runtime_filters,
        )
        for rule, terms in zip(rules, output_terms_per_rule)
    )
    specs = tuple(aggregates)
    group_columns = tuple(group_by) + tuple(spec.column for spec in specs)
    group = GroupAggregate(tuple(group_by), specs, group_columns)
    threshold = ThresholdFilter(tuple(conditions), group_columns)
    root = Materialize(
        name=result_name, output_terms=(), columns=tuple(group_by)
    )
    plan = StepPlan(
        branches=branches,
        union=UnionOp(tuple(answer_columns)),
        answer_columns=tuple(answer_columns),
        group=group,
        threshold=threshold,
        root=root,
    )
    _verify_lowered(plan, db)
    return plan
