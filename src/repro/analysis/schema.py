"""Schema checking for the physical IR (:mod:`repro.engine.ir`).

:func:`check_physical_plan` types every operator of a lowered
:class:`~repro.engine.ir.PhysicalPlan` or
:class:`~repro.engine.ir.StepPlan` by flowing column sets through the
operator DAG — Scan (± ScanFilter) → HashJoin → AntiJoin/CompareFilter →
GroupAggregate → ThresholdFilter → Union → Materialize — exactly the
way the engines consume them:

* a scan's columns must be the binding-relation columns of its subgoal;
* a runtime scan filter (sideways information passing) may only
  restrict a column its scan binds, must name a catalogued source
  relation and column, and must be *justified*: the plan's query has to
  join that source on the same column, so the semi-join can only drop
  rows the join would discard anyway;
* every hash-join key must exist on **both** sides (a dangling key would
  silently turn the join into a cartesian product in SQL, or a KeyError
  in the columnar engine);
* a filter may only test terms already bound at its attachment point;
* union branches must agree on the answer schema positionally;
* aggregates may only consume answer columns, and threshold conditions
  only aggregate columns the group stage actually produces;
* the columnar engine's duplicate-free invariant is tracked per
  operator: the final Materialize must keep every group key, because
  the survivor kernel builds the step result from the group keys with
  no dedup pass on the strength of that invariant;
* a :class:`~repro.engine.ir.PartitionedStepPlan` additionally requires
  its Partition column to be a group key bound by every branch (so
  per-partition groups are disjoint and complete) and its Merge schema
  to match the step's materialization.

A malformed plan is reported as :class:`~repro.analysis.diagnostics.Diagnostic`
errors *before* execution rather than failing mid-join;
:func:`assert_physical_plan` raises :class:`~repro.errors.PlanError`.
"""

from __future__ import annotations

from typing import Optional

from ..datalog.terms import is_bindable
from ..engine.ir import (
    AntiJoin,
    CompareFilter,
    PartitionedStepPlan,
    PhysicalPlan,
    StepPlan,
)
from ..engine.planner import scan_columns
from ..errors import PlanError
from ..relational.binding import term_column
from ..relational.catalog import Database
from .diagnostics import Diagnostic, DiagnosticReport, error


def _check_atom_catalog(
    atom, db: Optional[Database], location: str, out: list[Diagnostic]
) -> None:
    """Catalog checks for one relational atom (when a db is supplied)."""
    if db is None:
        return
    if atom.predicate not in db:
        out.append(
            error(
                "ir-unknown-relation",
                f"relation {atom.predicate!r} is not in the catalog",
                location=location,
            )
        )
        return
    width = len(db.get(atom.predicate).columns)
    if atom.arity != width:
        out.append(
            error(
                "ir-arity-mismatch",
                f"{atom.predicate} has {width} column(s) but the plan "
                f"scans it with arity {atom.arity}",
                location=location,
            )
        )


def _check_filters(
    filters,
    bound: set[str],
    stage_columns: tuple[str, ...],
    db: Optional[Database],
    location: str,
    out: list[Diagnostic],
) -> None:
    for op in filters:
        if isinstance(op, CompareFilter):
            label = f"{location} / filter {op.comparison}"
            terms = op.comparison.bindable_terms()
        elif isinstance(op, AntiJoin):
            label = f"{location} / anti-join {op.atom}"
            terms = op.atom.bindable_terms()
            _check_atom_catalog(op.atom, db, label, out)
        else:  # pragma: no cover - IR has exactly two filter operators
            out.append(
                error(
                    "ir-unknown-operator",
                    f"unknown filter operator {type(op).__name__}",
                    location=location,
                )
            )
            continue
        for term in terms:
            if term_column(term) not in bound:
                out.append(
                    error(
                        "ir-unbound-filter-term",
                        f"term {term} is not bound at this point in the "
                        "plan (filters attach only once their terms are "
                        "joined in)",
                        location=label,
                    )
                )
        if tuple(op.columns) != tuple(stage_columns):
            out.append(
                error(
                    "ir-filter-columns",
                    f"filter carries columns {list(op.columns)} but the "
                    f"running result has {list(stage_columns)}",
                    location=label,
                )
            )


def _check_scan_filters(
    stage,
    plan: PhysicalPlan,
    db: Optional[Database],
    location: str,
    out: list[Diagnostic],
) -> None:
    """Type and *justify* a stage's runtime semi-join filters.

    A :class:`~repro.engine.ir.ScanFilter` restricts scan rows by
    membership of one scan column in a source relation's column.  It is
    sound only when the plan's own query joins that source atom on the
    same column (the filter then merely front-loads a join the plan
    performs anyway) — ``ir-scanfilter-unjustified`` is the legality
    certificate for sideways information passing, checked like every
    other operator invariant.
    """
    scan_cols = set(stage.scan.columns)
    for sf in stage.scan_filters:
        label = f"{location} / scan filter {sf.column} IN {sf.source}"
        if sf.column not in scan_cols:
            out.append(
                error(
                    "ir-scanfilter-column",
                    f"scan filter restricts column {sf.column!r} but the "
                    f"scan of {stage.scan.atom} only binds "
                    f"{list(stage.scan.columns)}",
                    location=label,
                )
            )
        justified = any(
            atom.predicate == sf.source and sf.column in scan_columns(atom)
            for atom in plan.query.positive_atoms()
        )
        if not justified:
            out.append(
                error(
                    "ir-scanfilter-unjustified",
                    f"scan filter from {sf.source!r} on {sf.column!r} has "
                    "no justifying positive subgoal: the query must join "
                    "that source on the same column for the semi-join to "
                    "be sound",
                    location=label,
                    hint="runtime filters may only come from ok-atoms "
                    "already present in the rule body",
                )
            )
        if db is None:
            continue
        if sf.source not in db:
            out.append(
                error(
                    "ir-scanfilter-source",
                    f"scan-filter source relation {sf.source!r} is not in "
                    "the catalog",
                    location=label,
                )
            )
            continue
        if sf.source_column not in db.get(sf.source).columns:
            out.append(
                error(
                    "ir-scanfilter-source-column",
                    f"scan-filter source {sf.source!r} has no column "
                    f"{sf.source_column!r}; columns are "
                    f"{list(db.get(sf.source).columns)}",
                    location=label,
                )
            )


def _check_rule_plan(
    plan: PhysicalPlan,
    db: Optional[Database],
    prefix: str,
    out: list[Diagnostic],
) -> set[str]:
    """Flow column sets through one rule plan; returns the bound set."""
    bound: set[str] = set()
    prev_columns: tuple[str, ...] = ()
    for index, stage in enumerate(plan.stages):
        location = f"{prefix}stage {index} ({stage.node})"
        atom = stage.scan.atom
        _check_atom_catalog(atom, db, location, out)
        expected_scan = scan_columns(atom)
        if tuple(stage.scan.columns) != expected_scan:
            out.append(
                error(
                    "ir-scan-columns",
                    f"scan of {atom} declares columns "
                    f"{list(stage.scan.columns)} but its binding relation "
                    f"has {list(expected_scan)}",
                    location=location,
                )
            )
        if index == 0:
            if stage.join is not None:
                out.append(
                    error(
                        "ir-unexpected-join",
                        "the first stage joins against nothing; its join "
                        "must be None",
                        location=location,
                    )
                )
            stage_columns = tuple(stage.scan.columns)
        else:
            if stage.join is None:
                out.append(
                    error(
                        "ir-missing-join",
                        "a non-initial stage must join the running result "
                        "with its scan",
                        location=location,
                    )
                )
                stage_columns = prev_columns + tuple(
                    c for c in stage.scan.columns if c not in set(prev_columns)
                )
            else:
                scan_cols = set(stage.scan.columns)
                for key in stage.join.on:
                    if key not in bound or key not in scan_cols:
                        side = (
                            "the running result"
                            if key not in bound
                            else f"the scan of {atom}"
                        )
                        out.append(
                            error(
                                "ir-dangling-join-key",
                                f"join key {key!r} does not exist on "
                                f"{side}",
                                location=f"{location} / HashJoin",
                                hint="join keys must be columns shared by "
                                "both join inputs",
                            )
                        )
                expected = prev_columns + tuple(
                    c for c in stage.scan.columns if c not in set(prev_columns)
                )
                if tuple(stage.join.columns) != expected:
                    out.append(
                        error(
                            "ir-join-columns",
                            f"join declares output columns "
                            f"{list(stage.join.columns)} but a natural join "
                            f"of the inputs produces {list(expected)}",
                            location=f"{location} / HashJoin",
                        )
                    )
                stage_columns = tuple(stage.join.columns)
        bound |= set(stage.scan.columns)
        _check_scan_filters(stage, plan, db, location, out)
        _check_filters(stage.filters, bound, stage_columns, db, location, out)
        prev_columns = stage_columns

    _check_filters(
        plan.unit_filters, bound, prev_columns, db,
        f"{prefix}unit filters", out,
    )

    root = plan.root
    location = f"{prefix}Materialize {root.name}"
    if len(root.output_terms) != len(root.columns):
        out.append(
            error(
                "ir-materialize-width",
                f"materialize projects {len(root.output_terms)} term(s) "
                f"under {len(root.columns)} label(s)",
                location=location,
            )
        )
    for term in root.output_terms:
        if is_bindable(term) and term_column(term) not in bound:
            out.append(
                error(
                    "ir-unbound-output",
                    f"output term {term} is never bound by a positive "
                    "subgoal of the plan",
                    location=location,
                )
            )
    return bound


def _check_step_plan(
    step: StepPlan, db: Optional[Database], out: list[Diagnostic]
) -> None:
    if not step.branches:
        out.append(
            error("ir-empty-step", "a step plan needs at least one branch")
        )
        return
    answer = tuple(step.answer_columns)
    for index, branch in enumerate(step.branches):
        prefix = f"branch {index} / "
        _check_rule_plan(branch, db, prefix, out)
        if tuple(branch.root.columns) != answer:
            out.append(
                error(
                    "ir-union-schema",
                    f"branch materializes columns "
                    f"{list(branch.root.columns)} but the union's answer "
                    f"schema is {list(answer)}",
                    location=f"branch {index} / Materialize",
                    hint="union branches are aligned positionally; every "
                    "branch must project onto the answer columns",
                )
            )
    if tuple(step.union.columns) != answer:
        out.append(
            error(
                "ir-union-schema",
                f"the union operator carries columns "
                f"{list(step.union.columns)} but the answer schema is "
                f"{list(answer)}",
                location="UnionOp",
            )
        )

    answer_set = set(answer)
    group = step.group
    for column in group.group_by:
        if column not in answer_set:
            out.append(
                error(
                    "ir-group-key",
                    f"group-by column {column!r} is not an answer column "
                    f"(answer schema: {list(answer)})",
                    location="GroupAggregate",
                )
            )
    spec_columns: list[str] = []
    for spec in group.aggregates:
        label = f"GroupAggregate / {spec.column}"
        for target in spec.target:
            if target not in answer_set:
                out.append(
                    error(
                        "ir-aggregate-target",
                        f"aggregate {spec.fn.name} consumes column "
                        f"{target!r}, which is not an answer column",
                        location=label,
                        hint="aggregates may only reference columns the "
                        "union produces",
                    )
                )
        if spec.column in answer_set or spec.column in spec_columns:
            out.append(
                error(
                    "ir-aggregate-column",
                    f"aggregate output column {spec.column!r} collides "
                    "with an existing column",
                    location=label,
                )
            )
        spec_columns.append(spec.column)
    expected_group_columns = tuple(group.group_by) + tuple(spec_columns)
    if tuple(group.columns) != expected_group_columns:
        out.append(
            error(
                "ir-group-columns",
                f"group stage declares columns {list(group.columns)} but "
                f"produces {list(expected_group_columns)} "
                "(group keys then one column per aggregate)",
                location="GroupAggregate",
            )
        )

    threshold = step.threshold
    if tuple(threshold.columns) != tuple(group.columns):
        out.append(
            error(
                "ir-threshold-columns",
                f"threshold filter carries columns "
                f"{list(threshold.columns)} but its input has "
                f"{list(group.columns)}",
                location="ThresholdFilter",
            )
        )
    produced = set(spec_columns)
    for _condition, column in threshold.conditions:
        if column not in produced:
            out.append(
                error(
                    "ir-threshold-column",
                    f"threshold condition tests column {column!r}, which "
                    "no aggregate produces",
                    location="ThresholdFilter",
                    hint="every threshold conjunct must test one of the "
                    "group stage's aggregate columns",
                )
            )

    root = step.root
    group_columns = set(group.columns)
    for column in root.columns:
        if column not in group_columns:
            out.append(
                error(
                    "ir-unbound-output",
                    f"step materializes column {column!r}, which the group "
                    "stage does not produce",
                    location=f"Materialize {root.name}",
                )
            )
    # Duplicate-free invariant: the survivor relation is built from the
    # group keys without a dedup pass
    # (relational.aggregates.survivor_relations), which is sound only
    # when every group key survives the projection.
    missing_keys = [c for c in group.group_by if c not in set(root.columns)]
    if missing_keys:
        out.append(
            error(
                "ir-distinctness",
                f"materialize drops group key(s) {missing_keys}; the "
                "result would no longer be duplicate-free and the "
                "engines skip deduplication here",
                location=f"Materialize {root.name}",
            )
        )


def _check_partitioned_plan(
    plan: PartitionedStepPlan, db: Optional[Database], out: list[Diagnostic]
) -> None:
    """Partition/Merge typing over the wrapped step plan.

    The partition column must be a group key bound by a positive subgoal
    in *every* branch — that is what makes per-partition groups disjoint
    and complete, so the merge of partition survivors equals the serial
    survivors.  The merge schema must match the step's materialization.
    """
    _check_step_plan(plan.step, db, out)
    partition = plan.partition
    if partition.parts < 1:
        out.append(
            error(
                "ir-partition-parts",
                f"a partitioned plan needs at least 1 part, got "
                f"{partition.parts}",
                location="Partition",
            )
        )
    group_by = set(plan.step.group.group_by)
    if partition.column not in group_by:
        out.append(
            error(
                "ir-partition-column",
                f"partition column {partition.column!r} is not a group key "
                f"(group keys: {list(plan.step.group.group_by)})",
                location="Partition",
                hint="partitioning on a non-key column would split groups "
                "across partitions and break threshold counting",
            )
        )
    else:
        for index, branch in enumerate(plan.step.branches):
            if not any(
                partition.column in stage.scan.columns
                for stage in branch.stages
            ):
                out.append(
                    error(
                        "ir-partition-column",
                        f"partition column {partition.column!r} is not bound "
                        f"by any positive subgoal of branch {index}; its "
                        "scans cannot be restricted to one partition",
                        location=f"Partition / branch {index}",
                    )
                )
    if tuple(plan.merge.columns) != tuple(plan.step.root.columns):
        out.append(
            error(
                "ir-merge-columns",
                f"merge carries columns {list(plan.merge.columns)} but the "
                f"step materializes {list(plan.step.root.columns)}",
                location="Merge",
            )
        )


def check_physical_plan(
    plan: PhysicalPlan | StepPlan | PartitionedStepPlan,
    db: Optional[Database] = None,
) -> DiagnosticReport:
    """Type-check one lowered plan; returns a report of every violation.

    ``db`` adds catalog checks (relation existence and arity).  A clean
    report means every operator's column flow is consistent and the plan
    is executable by both engines.
    """
    out: list[Diagnostic] = []
    if isinstance(plan, PartitionedStepPlan):
        _check_partitioned_plan(plan, db, out)
    elif isinstance(plan, StepPlan):
        _check_step_plan(plan, db, out)
    elif isinstance(plan, PhysicalPlan):
        _check_rule_plan(plan, db, "", out)
    else:
        out.append(
            error(
                "ir-unknown-plan",
                f"not a physical plan: {type(plan).__name__}",
            )
        )
    return DiagnosticReport(tuple(out))


def assert_physical_plan(
    plan: PhysicalPlan | StepPlan | PartitionedStepPlan,
    db: Optional[Database] = None,
) -> None:
    """Raise :class:`~repro.errors.PlanError` when the plan is malformed."""
    report = check_physical_plan(plan, db=db)
    if not report.ok:
        details = "; ".join(str(d) for d in report.errors)
        raise PlanError(f"malformed physical plan: {details}")
