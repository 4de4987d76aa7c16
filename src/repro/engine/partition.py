"""Hash partitioning of step plans for parallel execution.

The a-priori rewrite makes every FILTER step an independent
scan-join-aggregate over a reduced parameter space — embarrassingly
parallel across partitions of the candidate parameters.  This module
picks the partitioning column, builds the :class:`~repro.engine.ir.Partition`
/ :class:`~repro.engine.ir.Merge` wrapper plan, and restricts binding
relations to one partition.

Correctness argument (why per-partition execution is exact):

* the partition column is a *group key* that every branch binds through
  a positive subgoal, so every answer row carries a value for it;
* restricting each scan whose binding relation contains the column to
  ``stable_hash(v) % parts == index`` keeps precisely the scan rows that
  can contribute to partition ``index``'s answer rows — rows with other
  values cannot join into an answer row of this partition, because the
  column's value flows unchanged from scan to answer (negated subgoals
  are safe too: an anti-join only matches rows agreeing on the shared
  column, which is in this partition);
* each group's key includes the partition column, so a group's answer
  rows land entirely in one partition — per-partition GroupAggregate /
  ThresholdFilter see *complete* groups, and the union of the
  partitions' survivors equals the serial survivors exactly.

Hashing uses :func:`stable_hash` (CRC-32 of ``repr``), NOT the built-in
``hash()``: Python seed-randomizes ``hash()`` per process, which would
assign different partitions in different pool workers.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..datalog.atoms import RelationalAtom
from ..relational.catalog import Database
from ..relational.dictionary import stable_hash
from ..relational.operators import shared_dictionary
from ..relational.relation import Relation
from .ir import Merge, Partition, PartitionedStepPlan, StepPlan

__all__ = [
    "ScanRestrictor",
    "choose_partition_column",
    "partition_index",
    "partition_restrictor",
    "partition_step",
    "restrict_to_partition",
    "stable_hash",
    "step_cost_estimate",
]

#: A hook restricting a freshly built binding relation to one partition
#: (installed on :class:`~repro.engine.memory.MemoryEngine`).
ScanRestrictor = Callable[[RelationalAtom, Relation], Relation]


def partition_index(value: object, parts: int) -> int:
    """The partition one column value belongs to."""
    return stable_hash(value) % parts


def choose_partition_column(step: StepPlan) -> Optional[str]:
    """The column a step partitions on, or ``None`` when no group key is
    bound by a positive subgoal in every branch (then the step must run
    serially — nothing guarantees disjoint, complete groups)."""
    for column in step.group.group_by:
        if all(
            any(column in stage.scan.columns for stage in branch.stages)
            for branch in step.branches
        ):
            return column
    return None


def partition_step(
    step: StepPlan,
    parts: int,
    db: Database,
    column: Optional[str] = None,
) -> Optional[PartitionedStepPlan]:
    """Wrap a step plan for ``parts``-way partitioned execution over
    ``db``.

    Returns ``None`` when partitioning is impossible (fewer than two
    parts, or no suitable column).  The wrapped plan is schema-checked
    under the ambient verification switch, same as any lowered plan.
    """
    if parts < 2:
        return None
    if column is None:
        column = choose_partition_column(step)
    if column is None:
        return None
    plan = PartitionedStepPlan(
        step=step,
        partition=Partition(column=column, parts=parts),
        merge=Merge(columns=step.root.columns),
    )
    from ..analysis.verification import plan_verification_enabled

    if plan_verification_enabled():
        from ..analysis.schema import assert_physical_plan

        assert_physical_plan(plan, db=db)
    return plan


def restrict_to_partition(
    relation: Relation, column: str, parts: int, index: int
) -> Relation:
    """The rows of ``relation`` whose ``column`` value hashes into
    partition ``index`` (the relation unchanged when it lacks the
    column)."""
    if column not in relation.columns:
        return relation
    dictionary, (relation,) = shared_dictionary(relation)
    # Per-code partition table: ``repr`` + CRC-32 runs once per
    # *distinct value* (cached on the dictionary), and each row costs
    # one list lookup — bit-identical to ``partition_index`` per row.
    table = dictionary.partition_table(parts)
    codes = relation.code_columns()[relation.column_position(column)]
    keep = [i for i, c in enumerate(codes) if table[c] == index]
    if len(keep) == len(relation):
        return relation
    return relation.take(keep)


def partition_restrictor(column: str, parts: int, index: int) -> ScanRestrictor:
    """A :data:`ScanRestrictor` for one partition task."""

    def restrict(atom: RelationalAtom, relation: Relation) -> Relation:
        return restrict_to_partition(relation, column, parts, index)

    return restrict


def step_cost_estimate(step: StepPlan) -> float:
    """The planner's System-R estimate of a step's answer size — the
    signal the parallel executor compares with its threshold (forking
    and the merge only pay off on large steps)."""
    total = 0.0
    for branch in step.branches:
        if branch.stages:
            total += float(branch.stages[-1].estimate)
    return total
