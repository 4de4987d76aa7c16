"""The in-memory interpreter for physical plans, over columnar relations.

Executes a :class:`~repro.engine.ir.PhysicalPlan` stage by stage —
batch-at-a-time columnar hash joins, comparison filters and anti-joins —
with one trace row and observation per stage; the last stage of a
support step is counted per group, never materialised
(:meth:`MemoryEngine.count_join`).  Binding relations are cached per
engine instance, so a union's branches (or a dynamic re-plan) never
rebuild the same scan twice.  Every relation the engine touches is in
its catalog's code space (:meth:`~repro.relational.catalog.Database.encoded`):
joins, grouping and membership tests compare integer codes, and only
comparisons and SUM/MIN/MAX decode the columns they read.

The Section 4.4 dynamic strategy is a decision object handed to
:meth:`MemoryEngine.run_step`: the one stage loop asks it for each
stage's leaf, each intermediate join result and the remaining stages —
the engine itself never decides to filter.
"""

# conlint: hot-module — loops here are engine kernels; the
# cancellation-responsiveness pass requires each hot loop to poll
# the execution guard (see docs/CONCURRENCY.md).

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import not_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..datalog.atoms import RelationalAtom
from ..datalog.terms import Constant, Term, is_bindable
from ..guard import ExecutionGuard, GuardLike, as_guard
from ..relational.aggregates import (
    count_groups,
    relation_group_values,
    survivor_relations,
)
from ..relational.binding import (
    apply_comparison,
    atom_binding_relation,
    term_column,
    unit_relation,
)
from ..relational.catalog import Database
from ..relational.operators import (
    anti_join,
    join_indexes,
    key_reader,
    natural_join,
)
from ..relational.relation import Relation
from ..testing.faults import trip
from .ir import (
    AntiJoin,
    CompareFilter,
    JoinStage,
    Materialize,
    PhysicalPlan,
    ScanFilter,
    StageObservation,
    StepPlan,
)


@dataclass
class StepResult:
    """What one step runner produced for one FILTER step.

    ``result`` is the materialized survivor relation; ``passed`` keeps
    the surviving groups *with* their aggregate columns (what the
    session cache stores) and is ``None`` unless the caller asked for
    aggregates; ``answer_tuples`` is the size of the unioned rule result
    (counted, not materialised, for a support step).  ``mode`` and
    ``partition_sizes`` say how a partitioned runner executed it.
    """

    result: Relation
    passed: Optional[Relation]
    answer_tuples: int
    mode: str = "serial"  # "process" | "serial"
    partition_sizes: tuple[int, ...] = ()


class MemoryEngine:
    """Interpret physical plans over the columnar in-memory relations.

    Args:
        db: the database plans were lowered against.
        guard: optional execution guard; each join stage notes a trace
            row and checkpoints through it.
        scan_restrict: optional hook applied to every freshly built
            binding relation — the parallel executor installs a
            partition predicate here
            (:func:`repro.engine.partition.partition_restrictor`), so
            one engine instance interprets one partition of the plan.
    """

    def __init__(
        self,
        db: Database,
        guard: GuardLike = None,
        scan_restrict: Optional[
            Callable[[RelationalAtom, Relation], Relation]
        ] = None,
    ):
        self.db = db
        self.guard: ExecutionGuard | None = as_guard(guard)
        self.scan_restrict = scan_restrict
        self._bindings: dict[RelationalAtom, Relation] = {}
        self._filtered_scans: dict[
            tuple[RelationalAtom, tuple[ScanFilter, ...]], Relation
        ] = {}
        #: Per-stage estimate/bound/actual observations, appended by
        #: :meth:`run_stage` across every plan this engine runs.
        self.stage_log: list[StageObservation] = []
        #: Total scan rows pruned by runtime semi-join filters.
        self.rows_pruned: int = 0

    def _verify_before_execution(self, plan: PhysicalPlan | StepPlan) -> None:
        """Reject a malformed plan before running its first join, when
        the ambient verification switch is on.  Plans straight out of
        :mod:`repro.engine.planner` are checked at lowering already; this
        catches hand-built or hand-modified plans handed to the engine."""
        from ..analysis.verification import plan_verification_enabled

        if plan_verification_enabled():
            from ..analysis.schema import assert_physical_plan

            assert_physical_plan(plan, db=self.db)

    # ------------------------------------------------------------------
    # Leaf and filter operators
    # ------------------------------------------------------------------

    def scan_atom(self, atom: RelationalAtom) -> Relation:
        """The (cached) binding relation of one positive subgoal."""
        cached = self._bindings.get(atom)
        if cached is None:
            cached = atom_binding_relation(self.db, atom)
            if self.scan_restrict is not None:
                cached = self.scan_restrict(atom, cached)
            self._bindings[atom] = cached
        return cached

    def apply_scan_filter(self, rel: Relation, sf: ScanFilter) -> Relation:
        """Semi-join one scan against a runtime filter's survivor keys —
        a code membership test (codes are equality-faithful, so code
        membership is value membership)."""
        source = self.db.encoded(sf.source)
        position = source.column_position(sf.source_column)
        keys = set(source.code_columns()[position])
        column = rel.code_columns()[rel.column_position(sf.column)]
        keep = [i for i, v in enumerate(column) if v in keys]
        if len(keep) == len(rel):
            return rel
        return rel.take(keep, name=rel.name)

    def _filtered_scan(
        self, stage: JoinStage, leaf: Relation | None
    ) -> Relation:
        """The stage's scan with its runtime filters applied (cached per
        (atom, filters) so union branches and re-plans prune once)."""
        base = leaf if leaf is not None else self.scan_atom(stage.scan.atom)
        if not stage.scan_filters:
            return base
        key = (stage.scan.atom, stage.scan_filters)
        if leaf is None:
            cached = self._filtered_scans.get(key)
            if cached is not None:
                return cached
        rel = base
        for sf in stage.scan_filters:
            before = len(rel)
            rel = self.apply_scan_filter(rel, sf)
            self.rows_pruned += before - len(rel)
            if self.guard is not None:
                self.guard.checkpoint(rows=len(rel), node=stage.node)
        if leaf is None:
            self._filtered_scans[key] = rel
        return rel

    def apply_filter(
        self, current: Relation, op: CompareFilter | AntiJoin
    ) -> Relation:
        """Apply one attached filter operator to the running result."""
        if isinstance(op, CompareFilter):
            return apply_comparison(current, op.comparison)
        neg = op.atom
        neg_rel = self.scan_atom(neg.with_positive_polarity())
        if neg.bindable_terms():
            return anti_join(current, neg_rel, name=current.name)
        # Ground negation: NOT p(c1,...,ck) empties the result iff the
        # selected relation is nonempty.
        if len(neg_rel):
            return current.take([])
        return current

    # ------------------------------------------------------------------
    # Rule plans
    # ------------------------------------------------------------------

    def run_stage(
        self,
        current: Relation,
        stage: JoinStage,
        leaf: Relation | None = None,
    ) -> Relation:
        """One join stage: trip, join, attached filters, guard note.

        ``leaf`` overrides the scan with an already-reduced binding
        relation (a dynamically filtered leaf).  Against the unit
        relation (no columns, one row: the join's identity) the stage
        starts from the scan in place, in its code space.
        """
        trip("relational.join")
        started = time.perf_counter()
        before = len(current)
        scan_rel = self._filtered_scan(stage, leaf)
        if current.columns or before != 1:
            current = natural_join(current, scan_rel)
        else:
            current = scan_rel
        for op in stage.filters:
            current = self.apply_filter(current, op)
            if self.guard is not None:
                self.guard.checkpoint(rows=len(current), node=stage.node)
        self._observe(stage, before, len(current), started)
        return current

    def count_join(
        self,
        current: Relation,
        stage: JoinStage,
        leaf: Relation | None,
        group_by: Sequence[str],
        target: Sequence[str],
        semi_joins: Sequence[JoinStage] = (),
    ) -> tuple[Counter, int]:
        """:meth:`run_stage` for the last stage of a support step,
        counted instead of materialised: ``(COUNT of distinct target
        sub-tuples per group key, output rows)``.

        The hash join yields its index pairs only; each attached
        comparison decodes its columns once per side into a keep-mask,
        each anti-join is a key-membership mask, and the surviving
        rows' group keys go straight into one Counter (see
        :func:`~repro.relational.aggregates.count_groups`) — no joined
        relation is built.  ``semi_joins`` are trailing stages that
        bind no new column (a static plan's ok-atoms): each is one more
        membership mask.  Keys are codes.  Trace rows, observations
        (``actual`` = output rows) and checkpoints are :meth:`run_stage`'s.
        """
        trip("relational.join")
        started = time.perf_counter()
        left, before = current, len(current)
        right = self._filtered_scan(stage, leaf)
        dictionary = self.db.dictionary
        left_idx, right_idx = join_indexes(left, right)

        def gathered(column: str, decode: bool = False) -> Iterator:
            """One output column, read through the surviving pairs."""
            rel, idx = (
                (left, left_idx) if column in left.columns
                else (right, right_idx)
            )
            codes = rel.code_columns()[rel.column_position(column)]
            data = dictionary.decode_column(codes) if decode else codes
            if isinstance(idx, range):
                return iter(data)
            return map(data.__getitem__, idx)

        def keep(mask: Iterable[bool]) -> None:
            nonlocal left_idx, right_idx
            selected = list(mask)
            left_idx = list(compress(left_idx, selected))
            right_idx = list(compress(right_idx, selected))

        for op in stage.filters:
            keep(self._filter_mask(op, gathered, len(left_idx)))
            if self.guard is not None:
                self.guard.checkpoint(rows=len(left_idx), node=stage.node)
        self._observe(stage, before, len(left_idx), started)
        for semi in semi_joins:
            trip("relational.join")
            started, before = time.perf_counter(), len(left_idx)
            scan = self._filtered_scan(semi, None)
            keep(self._members(scan, gathered))
            self._observe(semi, before, len(left_idx), started)
        rows = len(left_idx)
        counts = count_groups(
            gathered, group_by, target, left.columns + right.columns, rows
        )
        return counts, rows

    def _filter_mask(
        self,
        op: CompareFilter | AntiJoin,
        gathered: Callable[..., Iterator],
        rows: int,
    ) -> Iterator[bool]:
        """One attached filter as a keep-mask over :meth:`count_join`'s
        output rows (``gathered(column, decode)`` reads one column)."""
        if isinstance(op, CompareFilter):
            comp = op.comparison

            def operand(term: Term) -> Iterator:
                # Ordered comparisons need real values: codes are
                # equality-faithful, not order-faithful.
                if isinstance(term, Constant):
                    return repeat(term.value, rows)
                return gathered(term_column(term), True)

            return map(comp.op.fn, operand(comp.left), operand(comp.right))
        neg_rel = self.scan_atom(op.atom.with_positive_polarity())
        if not op.atom.bindable_terms():
            # Ground negation: NOT p(c1,...,ck) keeps nothing iff the
            # selected relation is nonempty.
            return repeat(not len(neg_rel), rows)
        return map(not_, self._members(neg_rel, gathered))

    @staticmethod
    def _members(
        rel: Relation, gathered: Callable[..., Iterator]
    ) -> Iterator[bool]:
        """Whether each output row, read on ``rel``'s columns, is a row
        of ``rel`` (a code-tuple membership test)."""
        rows = set(key_reader(rel, rel.columns))
        cols = [gathered(c) for c in rel.columns]
        return map(rows.__contains__, cols[0] if len(cols) == 1 else zip(*cols))

    def _observe(
        self, stage: JoinStage, before: int, actual: int, started: float
    ) -> None:
        """A finished stage's duties: its estimate/bound/actual
        observation, the guard's trace row, and a checkpoint."""
        self.stage_log.append(
            StageObservation(
                node=stage.node,
                estimated=stage.estimate,
                bound=stage.bound,
                actual=actual,
            )
        )
        if self.guard is not None:
            self.guard.note_step(
                name=stage.node,
                description=str(stage.scan.atom),
                input_tuples=before,
                output_assignments=actual,
                seconds=time.perf_counter() - started,
                filtered=False,
            )
            self.guard.checkpoint(rows=actual, node=stage.node)

    def _run_stages(
        self, branch: PhysicalPlan, stop: int, dynamic=None
    ) -> tuple[Relation, PhysicalPlan]:
        """The one loop over join stages: ``branch``'s stages before
        position ``stop``, from the unit relation.

        A ``dynamic`` decision object (see :meth:`run_step`) supplies
        each stage's leaf, may FILTER each join result, and may swap in
        a re-lowered branch that keeps the executed prefix; the branch
        the loop ended on is returned.
        """
        current = unit_relation()
        for position in range(stop):
            stage = branch.stages[position]
            current = self.run_stage(
                current, stage, self._leaf(branch, position, dynamic)
            )
            if dynamic is not None:
                current, branch = dynamic.joined(self, branch, position, current)
        return current, branch

    def _leaf(self, branch: PhysicalPlan, position: int, dynamic):
        return None if dynamic is None else dynamic.leaf(self, branch, position)

    def run_plan(self, plan: PhysicalPlan, dynamic=None) -> Relation:
        """Execute one rule plan end to end, including materialization
        (under ``dynamic``'s decisions when given, see :meth:`run_step`)."""
        self._verify_before_execution(plan)
        current, plan = self._run_stages(plan, len(plan.stages), dynamic)
        for op in plan.unit_filters:
            current = self.apply_filter(current, op)
            if self.guard is not None:
                self.guard.checkpoint(rows=len(current), node="unit filter")
        return self.materialize(current, plan.root)

    def materialize(self, current: Relation, root: Materialize) -> Relation:
        """Project onto the output terms under the plan's labels,
        re-inserting constant head terms positionally (interned, so the
        output stays in code space)."""
        dictionary = self.db.dictionary
        cols = current.code_columns()
        n = len(current)
        positions: list[int] = []
        constants: list[tuple[int, int]] = []  # (output index, code)
        for i, term in enumerate(root.output_terms):
            if isinstance(term, Constant):
                constants.append((i, dictionary.intern(term.value)))
            else:
                positions.append(current.column_position(term_column(term)))

        if len(set(positions)) == len(cols):
            # Output covers every column: rows stay distinct.
            codes = [cols[p] for p in positions]
            for i, code in constants:
                codes.insert(i, [code] * n)
            return Relation.from_encoded(
                root.name, root.columns, codes, dictionary, count=n
            )

        # The projection drops columns: deduplicate the bindable part
        # (codes are equality-faithful, so code-distinct is
        # value-distinct), then re-insert constants (which cannot split
        # groups).
        if not positions:
            rows: set[tuple] = {()} if n else set()
        elif len(positions) == 1:
            rows = {(v,) for v in cols[positions[0]]}
        else:
            rows = set(zip(*(cols[p] for p in positions)))
        if constants:
            out_rows = set()
            for row in rows:
                values = list(row)
                for i, code in constants:
                    values.insert(i, code)
                out_rows.add(tuple(values))
            rows = out_rows
        return Relation.from_code_rows(
            root.name, root.columns, rows, dictionary
        )

    # ------------------------------------------------------------------
    # Step plans (FILTER steps / flock answers)
    # ------------------------------------------------------------------

    def run_answer(self, step: StepPlan) -> Relation:
        """The unioned answer relation of a step's rule branches (the
        guard is polled after each branch of a union).  A union's
        branches merge as code tuples, so its answer stays in code space
        like every other step's."""
        if len(step.branches) == 1:
            return self.run_plan(step.branches[0]).with_name("answer")
        rows: set[tuple[int, ...]] = set()
        for branch in step.branches:
            rows.update(self.run_plan(branch).code_rows())
            if self.guard is not None:
                self.guard.checkpoint(
                    rows=len(rows), node=f"union:{step.result_name}"
                )
        return Relation.from_code_rows(
            "answer", step.answer_columns, rows, self.db.dictionary
        )

    def run_step(
        self, step: StepPlan, need_aggregates: bool = False, dynamic=None
    ) -> StepResult:
        """Execute one FILTER step end to end — the serial step body
        every in-memory path shares.

        A support step (:func:`support_shape`) runs its join stages but
        counts the last one (:meth:`count_join`): its answer is never
        materialised.  Any other step materialises the answer and
        aggregates it once per conjunct.  Either way
        :func:`~repro.relational.aggregates.survivor_relations` picks the
        surviving groups; ``passed`` (survivors with their ``_agg``
        columns) is built only when ``need_aggregates``.

        ``dynamic`` is the Section 4.4 decision policy
        (:class:`~repro.flocks.dynamic.DynamicEvaluator`) for a
        single-rule step: ``begin(step)`` starts it and may re-lower the
        branch; the stage loop asks ``leaf(engine, branch, position)``
        for each stage's (possibly FILTERed) binding relation and
        ``joined(engine, branch, position, current)`` for the (possibly
        FILTERed) join result and the (possibly re-lowered) remaining
        stages; ``root(rows, survivors)`` closes it.  A re-plan may
        reorder the suffix, so only the last stage is counted then (no
        semi-join tail).
        """
        self._verify_before_execution(step)
        if dynamic is not None:
            step = dynamic.begin(step)
        shape = support_shape(step)
        conditions = step.threshold.conditions
        if shape is None:
            answer = (
                self.run_answer(step) if dynamic is None
                else self.run_plan(step.branches[0], dynamic)
            )
            rows = answer_tuples = len(answer)
            self._step_checkpoint(step, rows)
            spec = {s.column: s for s in step.group.aggregates}
            values = []
            for _, column in conditions:
                values.append(relation_group_values(
                    answer, step.group.group_by, spec[column].fn,
                    spec[column].target,
                ))
                if self.guard is not None:
                    self.guard.checkpoint(rows=len(values[-1]), node=column)
        else:
            group_by, target = shape
            branch = step.branches[0]
            counted = len(branch.stages) - 1
            if dynamic is None:
                counted -= _semi_join_tail(branch.stages)
            current, branch = self._run_stages(branch, counted, dynamic)
            counts, rows = self.count_join(
                current, branch.stages[counted],
                self._leaf(branch, counted, dynamic), group_by, target,
                branch.stages[counted + 1:],
            )
            answer_tuples = sum(counts.values())  # one per (key, target)
            self._step_checkpoint(step, answer_tuples)
            values = [counts]
        result, passed = survivor_relations(
            values, [condition for condition, _ in conditions],
            step.root.columns, step.root.name, self.db.dictionary,
            [column for _, column in conditions] if need_aggregates else None,
        )
        outcome = StepResult(result, passed, answer_tuples)
        if dynamic is not None:
            dynamic.root(rows, len(outcome.result))
        return outcome

    def _step_checkpoint(self, step: StepPlan, answer_tuples: int) -> None:
        if self.guard is not None:
            self.guard.checkpoint(
                rows=answer_tuples, node=f"step:{step.result_name}"
            )


def _semi_join_tail(stages: Sequence[JoinStage]) -> int:
    """How many trailing stages bind no new column (a static plan's
    ok-atoms): semi-joins the counting join applies as masks."""
    n = 0
    while n + 1 < len(stages):
        stage, before = stages[-1 - n], stages[-2 - n]
        columns = set(stage.scan.columns)
        if not columns or stage.filters or not columns <= set(before.columns):
            break
        n += 1
    return n


def support_shape(step: StepPlan) -> tuple[list[str], list[str]] | None:
    """``(group columns, COUNT target columns)`` in the last join
    stage's column names when the step is counted, else ``None`` — a
    property of the lowered plan.

    Counted: one rule branch with join stages, a threshold of one
    support conjunct (``COUNT >= k`` / ``COUNT > k``), and a COUNT
    target that is the whole answer tuple beyond the group key, so each
    distinct (key, target) pair is one answer tuple.  Unions, other
    filters and narrower targets materialise the answer.
    """
    conditions = step.threshold.conditions
    if len(conditions) != 1 or len(step.branches) != 1:
        return None
    support = getattr(conditions[0][0], "is_support_condition", False)
    (branch,) = step.branches
    column_of = {
        label: term_column(term)
        for label, term in zip(branch.root.columns, branch.root.output_terms)
        if is_bindable(term)
    }
    if not support or not branch.stages or not all(
        c in column_of for c in step.group.group_by
    ):
        return None
    group_by = [column_of[c] for c in step.group.group_by]

    def underlying(labels: Sequence[str]) -> set[str]:
        return {column_of[c] for c in labels if c in column_of} - set(group_by)

    target = underlying(step.group.aggregates[0].target)
    if target != underlying(step.answer_columns):
        return None
    return group_by, sorted(target)


class MemoryRunner:
    """The serial in-memory step runner: a fresh :class:`MemoryEngine`
    interprets each step (under ``dynamic``'s decisions when given, see
    :meth:`MemoryEngine.run_step`).  Accumulates the engines'
    observability data over the run: join-stage observations and scan
    rows pruned by runtime filters."""

    def __init__(self, guard: ExecutionGuard | None = None, dynamic=None) -> None:
        self.guard = guard
        self.dynamic = dynamic
        self.observations: list[StageObservation] = []
        self.rows_pruned: int = 0

    def run_step(
        self, step_plan: StepPlan, db: Database, need_aggregates: bool = False
    ) -> StepResult:
        engine = MemoryEngine(db, guard=self.guard)
        outcome = engine.run_step(step_plan, need_aggregates, self.dynamic)
        self.observations.extend(engine.stage_log)
        self.rows_pruned += engine.rows_pruned
        return outcome
