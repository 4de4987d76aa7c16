"""Backend-agnostic physical plan IR and its interpreters.

The paper's contribution is a *plan* notation — ``R(P) := FILTER(P, Q,
C)`` (Section 4.1) — and this package is where those logical plans
become physical ones, exactly once.  :mod:`repro.engine.planner` lowers
a logical rule / filter step into a small DAG of physical operators
(:mod:`repro.engine.ir`); :mod:`repro.engine.memory` interprets that DAG
over columnar in-memory relations, and :mod:`repro.engine.sqlgen`
renders the same DAG to SQLite SQL.  Every strategy (naive, optimized,
stats, dynamic) and both backends execute through this IR, so the plan
we can print (:meth:`~repro.engine.ir.PhysicalPlan.render`) is by
construction the plan we run.

Parallel execution rides the same IR: :mod:`repro.engine.partition`
wraps a step plan in :class:`~repro.engine.ir.Partition` /
:class:`~repro.engine.ir.Merge` operators, and
:mod:`repro.engine.parallel` fans the partitions of large steps out on
a process pool — bit-identical to serial execution for any worker count.
"""

from .ir import (
    AggregateSpec,
    AntiJoin,
    CompareFilter,
    GroupAggregate,
    HashJoin,
    JoinStage,
    Materialize,
    Merge,
    Partition,
    PartitionedStepPlan,
    PhysicalPlan,
    Scan,
    StepPlan,
    ThresholdFilter,
    UnionOp,
)
from .memory import MemoryEngine, StepResult
from .parallel import ParallelExecutor, resolve_jobs
from .partition import (
    choose_partition_column,
    partition_step,
    stable_hash,
    step_cost_estimate,
)
from .planner import lower_rule, lower_step, order_positive_atoms

__all__ = [
    "AggregateSpec",
    "AntiJoin",
    "CompareFilter",
    "GroupAggregate",
    "HashJoin",
    "JoinStage",
    "Materialize",
    "MemoryEngine",
    "Merge",
    "ParallelExecutor",
    "Partition",
    "PartitionedStepPlan",
    "PhysicalPlan",
    "Scan",
    "StepPlan",
    "StepResult",
    "ThresholdFilter",
    "UnionOp",
    "choose_partition_column",
    "lower_rule",
    "lower_step",
    "order_positive_atoms",
    "partition_step",
    "resolve_jobs",
    "stable_hash",
    "step_cost_estimate",
]
