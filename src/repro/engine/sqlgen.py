"""SQL rendering of physical step plans — the one SQL renderer.

The SQLite backend executes what this module renders, and
:mod:`repro.flocks.sql` prints the same text for the Fig. 1 / Section
1.3 artifacts.  The same :class:`~repro.engine.ir.StepPlan` the
in-memory engine executes is rendered as one SQL statement: each rule
branch becomes a ``SELECT DISTINCT`` whose ``FROM`` clause lists the
scans *in the plan's join-stage order*, comparisons and
constant/repeated-term checks become ``WHERE`` conjuncts, anti-joins
become ``NOT EXISTS``, the union operator becomes ``UNION``, and the
group-aggregate/threshold pair becomes ``GROUP BY``/``HAVING``.  Neither
ordering nor filter placement is re-derived: the planner decided both,
once, for every backend.

Column naming: answer columns ``$p`` and ``_h{i}`` are not valid bare
SQL identifiers, so they are mapped to ``p_{p}`` and ``a_{i}``; anything
else (aggregate columns like ``_agg0``) passes through unchanged.  Step
tables carry those mapped names (:func:`column_source`).
"""

from __future__ import annotations

from typing import Callable, Collection, Sequence

from ..datalog.terms import Constant, Term
from ..errors import PlanError
from ..relational.aggregates import AggregateFunction
from ..relational.binding import term_column
from .ir import AntiJoin, CompareFilter, PhysicalPlan, StepPlan

#: Resolves a predicate to its table's column names.
ColumnSource = Callable[[str], Sequence[str]]


def sql_literal(value: object) -> str:
    """Render one constant as a SQL literal."""
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return str(value)


def safe_column(column: str) -> str:
    """A bare-identifier-safe name for an answer column."""
    if column.startswith("$"):
        return f"p_{column[1:]}"
    if column.startswith("_h"):
        return f"a_{column[2:]}"
    return column


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


class _BranchRenderer:
    """Renders one rule's :class:`PhysicalPlan` as a SELECT statement."""

    def __init__(self, plan: PhysicalPlan, columns_of: ColumnSource):
        self.plan = plan
        self.columns_of = columns_of
        self.aliases: list[tuple[str, str]] = []  # (alias, table)
        self.bindings: dict[Term, str] = {}  # term -> first alias.column
        self.where: list[str] = []
        self._build()

    def _build(self) -> None:
        for i, stage in enumerate(self.plan.stages):
            atom = stage.scan.atom
            alias = f"t{i}"
            self.aliases.append((alias, atom.predicate))
            columns = self.columns_of(atom.predicate)
            for position, term in enumerate(atom.terms):
                ref = f"{alias}.{columns[position]}"
                if isinstance(term, Constant):
                    self.where.append(f"{ref} = {sql_literal(term.value)}")
                elif term in self.bindings:
                    self.where.append(f"{self.bindings[term]} = {ref}")
                else:
                    self.bindings[term] = ref
            for sf in stage.scan_filters:
                self._attach_scan_filter(sf, alias, atom, columns)
            for op in stage.filters:
                self._attach_filter(op)
        for op in self.plan.unit_filters:
            self._attach_filter(op)

    def _attach_scan_filter(
        self,
        sf,
        alias: str,
        atom,
        columns: Sequence[str],
    ) -> None:
        """Render one runtime semi-join filter as an ``IN (SELECT ...)``
        conjunct on this stage's scan alias.

        The source is a materialized pre-filter table whose columns were
        created under :func:`safe_column` names; the membership subquery
        is re-evaluated at execution time, so the filter stays correct
        even when the lowering-time catalog only held an empty
        placeholder for the source (``keys`` is advisory).
        """
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                continue
            if term_column(term) == sf.column:
                self.where.append(
                    f"{alias}.{columns[position]} IN "
                    f"(SELECT {safe_column(sf.source_column)} "
                    f"FROM {sf.source})"
                )
                return
        raise PlanError(
            f"scan filter column {sf.column!r} is not bound by {atom}; "
            "the lowered plan is inconsistent"
        )

    def _attach_filter(self, op: CompareFilter | AntiJoin) -> None:
        if isinstance(op, CompareFilter):
            comp = op.comparison
            self.where.append(
                f"{self._term_sql(comp.left)} {comp.op.value} "
                f"{self._term_sql(comp.right)}"
            )
            return
        atom = op.atom
        columns = self.columns_of(atom.predicate)
        alias = "n"
        conditions = []
        for position, term in enumerate(atom.terms):
            ref = f"{alias}.{columns[position]}"
            if isinstance(term, Constant):
                conditions.append(f"{ref} = {sql_literal(term.value)}")
            else:
                conditions.append(f"{ref} = {self._term_sql(term)}")
        condition_sql = " AND ".join(conditions) or "TRUE"
        self.where.append(
            f"NOT EXISTS (SELECT 1 FROM {atom.predicate} {alias} "
            f"WHERE {condition_sql})"
        )

    def _term_sql(self, term: Term) -> str:
        if isinstance(term, Constant):
            return sql_literal(term.value)
        try:
            return self.bindings[term]
        except KeyError:
            raise PlanError(
                f"term {term} is unbound in the lowered plan; "
                "the rule is unsafe"
            ) from None

    def select_sql(self) -> str:
        root = self.plan.root
        select_items = [
            f"{self._term_sql(term)} AS {safe_column(label)}"
            for term, label in zip(root.output_terms, root.columns)
        ]
        sql = f"SELECT DISTINCT {', '.join(select_items)}"
        if self.aliases:
            from_items = ", ".join(
                f"{table} {alias}" for alias, table in self.aliases
            )
            sql += f"\nFROM {from_items}"
        if self.where:
            sql += "\nWHERE " + "\n  AND ".join(self.where)
        return sql


def _aggregate_sql(spec) -> str:
    """One aggregate over the answer.  COUNT counts distinct answer
    tuples (``COUNT(DISTINCT ...)``); SUM/MIN/MAX aggregate per answer
    row — the branch ``SELECT DISTINCT`` already made answer rows
    unique, and DISTINCT inside the aggregate would wrongly collapse
    equal values from different answers."""
    inner = ", ".join(safe_column(c) for c in spec.target)
    if spec.fn is AggregateFunction.COUNT:
        return f"COUNT(DISTINCT {inner})"
    return f"{spec.fn.value}({inner})"


def render_step(
    step: StepPlan,
    columns_of: ColumnSource,
    include_aggregates: bool = False,
) -> str:
    """Render one FILTER step plan as a single SELECT statement
    (no trailing semicolon).

    ``include_aggregates=True`` appends the aggregate value of every
    threshold conjunct to the SELECT list (column per
    :class:`~repro.engine.ir.AggregateSpec`), mirroring the in-memory
    engine's ``passed`` relation — what the session cache stores and
    what the differential tests compare.
    """
    from ..analysis.verification import plan_verification_enabled

    if plan_verification_enabled():
        # Same pre-execution gate as the in-memory engine: reject a
        # malformed step before any SQL reaches the database.  Catalog
        # checks are skipped here — the SQL backend resolves relations
        # against its own schema at execution time.
        from ..analysis.schema import assert_physical_plan

        assert_physical_plan(step)
    inner = "\nUNION\n".join(
        _BranchRenderer(branch, columns_of).select_sql()
        for branch in step.branches
    )
    group_names = [safe_column(c) for c in step.root.columns]
    select_items = list(group_names)
    if include_aggregates:
        select_items += [
            f"{_aggregate_sql(spec)} AS {spec.column}"
            for spec in step.group.aggregates
        ]
    spec_by_column = {spec.column: spec for spec in step.group.aggregates}
    having = " AND ".join(  # one conjunct per threshold condition
        f"{_aggregate_sql(spec_by_column[column])} "
        f"{condition.op.value} {condition.threshold}"
        for condition, column in step.threshold.conditions
    )
    return (
        f"SELECT {', '.join(select_items)}\n"
        f"FROM (\n{_indent(inner)}\n) answer\n"
        f"GROUP BY {', '.join(group_names)}\n"
        f"HAVING {having}"
    )


def materialize_step(
    step: StepPlan, columns_of: ColumnSource, include_aggregates: bool = False
) -> str:
    """Render one step as a materialized table.

    ``CREATE TABLE ... AS`` rather than a view: a view would be
    re-expanded by most engines, losing the point of computing the
    filter once (Section 1.3).
    """
    body = render_step(step, columns_of, include_aggregates=include_aggregates)
    return f"CREATE TABLE {step.root.name} AS\n{_indent(body)}"


def column_source(db, step_tables: Collection[str]) -> ColumnSource:
    """A :data:`ColumnSource` over a catalog: a base relation keeps its
    own column names, a step table named in ``step_tables`` has the
    :func:`safe_column` names of its catalog columns (``$p`` labels are
    not bare SQL identifiers).  The one naming rule for every step table
    — rendered, materialized or mirrored."""

    def columns_of(predicate: str) -> Sequence[str]:
        columns = db.get(predicate).columns
        if predicate in step_tables:
            return [safe_column(c) for c in columns]
        return list(columns)

    return columns_of
