"""The physical plan IR: a small DAG of operators shared by every
strategy and backend.

A :class:`PhysicalPlan` is the lowered form of one conjunctive rule: a
linear sequence of :class:`JoinStage` nodes (left-deep, matching the
join orders Section 4 assumes) followed by a :class:`Materialize`
projection.  Each stage bundles the :class:`Scan` of one subgoal's
binding relation, the :class:`HashJoin` against the running result, and
the :class:`CompareFilter` / :class:`AntiJoin` operators that attach as
soon as their terms are bound.  Keeping the stages linearized (rather
than a recursive tree) is deliberate: guard checkpoints, trace rows and
fault-injection trip points fire per stage with exact input/output
sizes, the same instrumentation every strategy previously re-implemented.

A :class:`StepPlan` lowers one ``R(P) := FILTER(P, Q, C)`` step: the
union of its rules' plans, a :class:`GroupAggregate` per filter
conjunct, a :class:`ThresholdFilter`, and a final :class:`Materialize`
onto the step's parameter columns.

Plans are built once by :mod:`repro.engine.planner` and interpreted by
both the in-memory engine and the SQLite renderer, so
:meth:`PhysicalPlan.render` — which backs ``repro explain`` — describes
exactly what runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..relational.relation import CODE_BYTES

if TYPE_CHECKING:  # imported for annotations only; no runtime dependency
    from ..datalog.atoms import Comparison, RelationalAtom
    from ..datalog.query import ConjunctiveQuery
    from ..datalog.terms import Term
    from ..relational.aggregates import AggregateFunction


@dataclass(frozen=True)
class Scan:
    """Scan one positive subgoal's binding relation.

    ``columns`` are the rendered bindable terms in first-occurrence
    order (constants and repeated terms are handled inside the scan by
    selection); ``cardinality`` is the base relation's size from the
    catalog statistics.
    """

    atom: "RelationalAtom"
    columns: tuple[str, ...]
    cardinality: int


@dataclass(frozen=True)
class HashJoin:
    """Natural hash join of the running result with a stage's scan.

    ``on`` holds the shared columns (sorted, for stable rendering);
    empty ``on`` means a cartesian product.  ``estimate`` is the
    System-R style size estimate computed at lowering time, shown next
    to the stage's bound and actual size in EXPLAIN and ``stage_rows``.
    """

    on: tuple[str, ...]
    columns: tuple[str, ...]
    estimate: float


@dataclass(frozen=True)
class ScanFilter:
    """A sideways-information-passing semi-join filter pushed into a scan.

    After a pre-filter step materializes its ``ok`` relation, later
    scans that bind one of its parameter columns only need the rows
    whose value appears among the survivors: ``column IN (SELECT
    source_column FROM source)``.  The filter is legal precisely because
    the step's query already contains the ``source`` ok-atom binding the
    same column — the a-priori rewrite guarantees the join would discard
    the other rows anyway, so pre-pruning the scan changes nothing but
    the work.

    ``keys`` records the survivor-key count at lowering time; it feeds
    the UES bound (a scan capped to ``k`` keys on ``c`` has at most
    ``k * max_frequency(c)`` rows) and the EXPLAIN output, not
    execution.
    """

    column: str
    source: str
    source_column: str
    keys: int


@dataclass(frozen=True)
class CompareFilter:
    """An arithmetic subgoal applied once all its terms are bound."""

    comparison: "Comparison"
    columns: tuple[str, ...]


@dataclass(frozen=True)
class AntiJoin:
    """A negated subgoal applied as an anti-join once fully bound.

    ``atom`` keeps its negative polarity (it renders as ``NOT p(...)``);
    interpreters scan ``atom.with_positive_polarity()``.
    """

    atom: "RelationalAtom"
    columns: tuple[str, ...]


@dataclass(frozen=True)
class JoinStage:
    """One left-deep join step plus the filters that attach to it.

    ``join`` is ``None`` for the first stage (joining the unit relation
    is the identity).  ``node`` is the guard/trace label — the single
    place checkpoints and trace rows are emitted for this stage.

    ``scan_filters`` are runtime semi-join filters applied to the scan
    *before* the join (they restrict rows, never the schema, so the
    stage's column invariants are untouched).  ``bound`` is the
    guaranteed output-size upper bound from the UES bound algebra
    (:func:`repro.relational.joinorder.chain_upper_bounds`), recorded
    for every order so EXPLAIN prints estimate and bound side by side.
    """

    scan: Scan
    join: HashJoin | None
    filters: tuple[CompareFilter | AntiJoin, ...]
    node: str
    scan_filters: tuple[ScanFilter, ...] = ()
    bound: float | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        if self.filters:
            return self.filters[-1].columns
        if self.join is not None:
            return self.join.columns
        return self.scan.columns

    @property
    def estimate(self) -> float:
        return (
            float(self.scan.cardinality)
            if self.join is None
            else self.join.estimate
        )

    @property
    def estimated_bytes(self) -> float:
        """Flat-buffer size of this stage's output in the
        dictionary-encoded layout (8 bytes per column slot) — the unit
        the parallel executor budgets shared-memory transport in."""
        return self.estimate * CODE_BYTES * len(self.columns)


@dataclass(frozen=True)
class Materialize:
    """Project the running result onto the output terms and name it.

    ``output_terms`` may include constants (re-inserted positionally as
    ``_const{i}`` columns); ``columns`` are the final labels.
    """

    name: str
    output_terms: tuple["Term", ...]
    columns: tuple[str, ...]


@dataclass(frozen=True)
class UnionOp:
    """Set union of the step's rule branches (positionally aligned)."""

    columns: tuple[str, ...]


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column of a :class:`GroupAggregate`.

    ``target`` lists the answer columns the aggregate consumes
    (all head columns for ``COUNT(answer(*))``); ``column`` is the
    produced column label (``_agg{i}``).
    """

    fn: "AggregateFunction"
    target: tuple[str, ...]
    column: str


@dataclass(frozen=True)
class GroupAggregate:
    """Group the answer relation by the parameter columns and compute
    one aggregate column per filter conjunct."""

    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    columns: tuple[str, ...]


@dataclass(frozen=True)
class ThresholdFilter:
    """Keep the groups whose aggregates satisfy every filter conjunct.

    ``conditions`` pairs each :class:`~repro.flocks.filters.FilterCondition`
    with the aggregate column it tests.  This is the paper's ``C`` made
    a first-class operator rather than a post-hoc filter.
    """

    conditions: tuple[tuple[object, str], ...]
    columns: tuple[str, ...]


@dataclass
class PhysicalPlan:
    """The lowered physical plan of one conjunctive rule."""

    query: "ConjunctiveQuery"
    #: ``"ues"`` (the bound order) or ``"explicit"`` (a caller's).
    ordered_by: str
    order: tuple[int, ...]
    stages: tuple[JoinStage, ...]
    unit_filters: tuple[CompareFilter | AntiJoin, ...]
    root: Materialize

    @property
    def join_sequence(self) -> tuple[str, ...]:
        """The predicates in execution order — what actually joins."""
        return tuple(stage.scan.atom.predicate for stage in self.stages)

    def render(self) -> str:
        """The EXPLAIN text: scan/join/filter/project lines with size
        estimates.  This *is* the plan the engines execute."""
        lines = [f"EXPLAIN ({self.ordered_by} join order) for: {self.query}"]
        for stage in self.stages:
            atom = stage.scan.atom
            bound = (
                f", <={stage.bound:,.0f} bound"
                if stage.bound is not None
                else ""
            )
            if stage.join is None:
                lines.append(
                    f"  scan {atom}  (~{stage.scan.cardinality} tuples{bound})"
                )
            else:
                on = (
                    f" on ({', '.join(stage.join.on)})"
                    if stage.join.on
                    else " (cartesian!)"
                )
                lines.append(
                    f"  join {atom}{on}  (~{stage.join.estimate:,.0f} "
                    f"tuples{bound}, ~{stage.estimated_bytes:,.0f} B encoded)"
                )
            for sf in stage.scan_filters:
                lines.append(
                    f"    scan filter: {sf.column} IN {sf.source}."
                    f"{sf.source_column}  ({sf.keys} keys)"
                )
            for op in stage.filters:
                if isinstance(op, CompareFilter):
                    lines.append(f"    then filter: {op.comparison}")
                else:
                    lines.append(f"    then anti-join: {op.atom}")
        for op in self.unit_filters:
            if isinstance(op, CompareFilter):
                lines.append(f"    then filter: {op.comparison}")
            else:
                lines.append(f"    then anti-join: {op.atom}")
        head = ", ".join(str(t) for t in self.query.head_terms)
        lines.append(f"  project ({head})")
        return "\n".join(lines)


@dataclass
class StepPlan:
    """The lowered physical plan of one FILTER step (or final flock
    answer): union the rule branches, aggregate per conjunct, apply the
    threshold filter, and materialize the surviving parameter tuples."""

    branches: tuple[PhysicalPlan, ...]
    union: UnionOp
    answer_columns: tuple[str, ...]
    group: GroupAggregate
    threshold: ThresholdFilter
    root: Materialize

    @property
    def result_name(self) -> str:
        return self.root.name

    def render(self) -> str:
        parts = [branch.render() for branch in self.branches]
        group = ", ".join(self.group.group_by)
        aggs = ", ".join(
            f"{spec.column}={spec.fn.name}({', '.join(spec.target)})"
            for spec in self.group.aggregates
        )
        parts.append(f"  group by ({group}) computing {aggs}")
        conds = " AND ".join(str(cond) for cond, _ in self.threshold.conditions)
        parts.append(f"  threshold filter: {conds}")
        parts.append(f"  materialize {self.root.name}({group})")
        return "\n".join(parts)


@dataclass(frozen=True)
class Partition:
    """Hash-partition a step's work on one group-key column.

    ``column`` must be a group key bound by every branch; restricting
    each branch's scans that bind it to ``stable_hash(v) % parts ==
    index`` yields exactly the answer rows of partition ``index``, and —
    because the column is a group key — every group falls entirely
    inside one partition, so per-partition threshold filtering is exact.
    """

    column: str
    parts: int


@dataclass(frozen=True)
class Merge:
    """Union the partitions' survivor relations in canonical row order.

    Partitions are disjoint by construction (the partition column is a
    group key), so the merge is a plain concatenation followed by the
    canonical sort that makes parallel output bit-identical to serial.
    """

    columns: tuple[str, ...]


@dataclass
class PartitionedStepPlan:
    """A :class:`StepPlan` fanned out into independent partition tasks.

    The wrapped ``step`` is executed once per partition with its scans
    restricted by the :class:`Partition` predicate; the :class:`Merge`
    operator recombines the per-partition survivors.  Built by
    :func:`repro.engine.partition.partition_step` and executed by
    :class:`repro.engine.parallel.ParallelExecutor`.
    """

    step: StepPlan
    partition: Partition
    merge: Merge

    @property
    def result_name(self) -> str:
        return self.step.result_name

    def render(self) -> str:
        lines = [
            f"PARTITION on {self.partition.column} "
            f"into {self.partition.parts} parts"
        ]
        lines.append(self.step.render())
        lines.append(f"  merge partitions on ({', '.join(self.merge.columns)})")
        return "\n".join(lines)


@dataclass(frozen=True)
class StageObservation:
    """What one executed join stage actually did, next to what the
    planner predicted: the System-R estimate, the UES guaranteed bound
    (when computed), and the observed output rows.  Collected by the
    in-memory engine per stage and surfaced through
    :class:`repro.flocks.mining.MiningReport` so estimate quality and
    bound tightness are inspectable per run.  ``kernel`` names the body
    that ran the stage: ``"pairs"`` (index pairs and masks) or
    ``"bitmap"`` (a COUNT step's last join counted by AND + popcount);
    ``actual`` is the same row count either way."""

    node: str
    estimated: float
    bound: float | None
    actual: int
    kernel: str = "pairs"

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "node": self.node,
            "estimated": self.estimated,
            "actual": self.actual,
        }
        if self.bound is not None:
            data["bound"] = self.bound
        if self.kernel != "pairs":
            data["kernel"] = self.kernel
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "StageObservation":
        bound = data.get("bound")
        return cls(
            node=str(data.get("node", "")),
            estimated=float(data.get("estimated", 0.0)),  # type: ignore[arg-type]
            bound=None if bound is None else float(bound),  # type: ignore[arg-type]
            actual=int(data.get("actual", 0)),  # type: ignore[arg-type]
            kernel=str(data.get("kernel", "pairs")),
        )
