"""The in-memory interpreter for physical plans, over columnar relations.

Executes a :class:`~repro.engine.ir.PhysicalPlan` stage by stage —
batch-at-a-time columnar hash joins, comparison filters and anti-joins —
with the guard checkpoint, trace row and fault-injection trip point for
each stage emitted in exactly one place.  Binding relations are cached
per engine instance, so a union's branches (or a dynamic re-plan) never
rebuild the same scan twice.
"""

# conlint: hot-module — loops here are engine kernels; the
# cancellation-responsiveness pass requires each hot loop to poll
# the execution guard (see docs/CONCURRENCY.md).

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, Sequence

from ..datalog.atoms import RelationalAtom
from ..datalog.terms import is_bindable
from ..guard import ExecutionGuard, GuardLike, as_guard
from ..relational.aggregates import group_aggregate
from ..relational.binding import (
    apply_comparison,
    atom_binding_relation,
    term_column,
    unit_relation,
)
from ..relational.catalog import Database
from ..relational.operators import anti_join, natural_join
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
    session cache stores) and is only computed when the caller asked
    for aggregates — otherwise survivorship is early-exit-counted;
    ``answer_tuples`` is the size of the unioned rule result.  ``mode``
    and ``partition_sizes`` say how a partitioned runner executed it.
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
        trip_site: the fault-injection site tripped once per join stage
            (``"relational.join"`` for the shared evaluator,
            ``"dynamic.join"`` when the dynamic strategy drives stages).
        scan_restrict: optional hook applied to every freshly built
            binding relation — the parallel executor installs a
            partition predicate here
            (:func:`repro.engine.partition.partition_restrictor`), so
            one engine instance interprets one partition of the plan.
        encode_scans: intern every scanned base relation against the
            database's shared dictionary so joins, grouping, and
            threshold filters run on integer code columns (the default).
            ``False`` forces the legacy value-array data plane — kept
            for the encoded-vs-legacy differential tests.
    """

    def __init__(
        self,
        db: Database,
        guard: GuardLike = None,
        trip_site: str = "relational.join",
        scan_restrict: Optional[
            Callable[[RelationalAtom, Relation], Relation]
        ] = None,
        encode_scans: bool = True,
    ):
        self.db = db
        self.guard: ExecutionGuard | None = as_guard(guard)
        self.trip_site = trip_site
        self.scan_restrict = scan_restrict
        self.encode_scans = encode_scans
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
            cached = atom_binding_relation(self.db, atom, encode=self.encode_scans)
            if self.scan_restrict is not None:
                cached = self.scan_restrict(atom, cached)
            self._bindings[atom] = cached
        return cached

    def apply_scan_filter(self, rel: Relation, sf: ScanFilter) -> Relation:
        """Semi-join one scan against a runtime filter's survivor keys.

        When both sides are encoded against the *same* dictionary object
        the membership test runs over integer codes (codes are
        equality-faithful, so code membership is value membership);
        otherwise — e.g. in a process worker whose pickled relations
        carry distinct dictionary copies — it falls back to decoded
        values, which is always correct.
        """
        source = self.db.get(sf.source)
        source_pos = source.column_position(sf.source_column)
        pos = rel.column_position(sf.column)
        if (
            rel.is_encoded
            and source.is_encoded
            and rel.dictionary is source.dictionary
        ):
            keys = set(source.code_columns()[source_pos])
            column: Sequence = rel.code_columns()[pos]
        else:
            keys = set(source.columns_data()[source_pos])
            column = rel.columns_data()[pos]
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
            return Relation(current.name, current.columns)
        return current

    # ------------------------------------------------------------------
    # Rule plans
    # ------------------------------------------------------------------

    def run_stage(
        self,
        current: Relation | None,
        stage: JoinStage,
        leaf: Relation | None = None,
        join_name: str = "join",
    ) -> Relation:
        """One join stage: trip, join, attached filters, guard note.

        ``current=None`` makes the stage's scan the running result (the
        dynamic strategy's first stage; the shared evaluator passes the
        unit relation instead so the trace reports 1 input tuple).
        ``leaf`` overrides the scan with an already-reduced binding
        relation (a dynamically filtered leaf); ``join_name`` names the
        join result (``temp{n}`` under the dynamic strategy).
        """
        trip(self.trip_site)
        started = time.perf_counter()
        before = len(current) if current is not None else 0
        scan_rel = self._filtered_scan(stage, leaf)
        if current is None:
            current = scan_rel
        else:
            current = natural_join(current, scan_rel, name=join_name)
        for op in stage.filters:
            current = self.apply_filter(current, op)
            if self.guard is not None:
                self.guard.checkpoint(rows=len(current), node=stage.node)
        self.stage_log.append(
            StageObservation(
                node=stage.node,
                estimated=stage.estimate,
                bound=stage.bound,
                actual=len(current),
            )
        )
        if self.guard is not None:
            self.guard.note_step(
                name=stage.node,
                description=str(stage.scan.atom),
                input_tuples=before,
                output_assignments=len(current),
                seconds=time.perf_counter() - started,
                filtered=False,
            )
            self.guard.checkpoint(rows=len(current), node=stage.node)
        return current

    def run_plan(self, plan: PhysicalPlan) -> Relation:
        """Execute one rule plan end to end, including materialization."""
        self._verify_before_execution(plan)
        current = unit_relation()
        for stage in plan.stages:
            current = self.run_stage(current, stage)
        for op in plan.unit_filters:
            current = self.apply_filter(current, op)
            if self.guard is not None:
                self.guard.checkpoint(rows=len(current), node="unit filter")
        return self.materialize(current, plan.root)

    def materialize(self, current: Relation, root: Materialize) -> Relation:
        """Project onto the output terms under the plan's labels,
        re-inserting constant head terms positionally."""
        dictionary = current.dictionary if current.is_encoded else None
        cols: Sequence[Sequence] = (
            current.code_columns() if dictionary is not None
            else current.columns_data()
        )
        n = len(current)
        entries: list[object] = []  # column position | ("const", value)
        positions: list[int] = []
        for term in root.output_terms:
            if is_bindable(term):
                p = current.column_position(term_column(term))
                positions.append(p)
                entries.append(p)
            else:
                entries.append(("const", term.value))  # type: ignore[union-attr]

        if len(set(positions)) == len(cols):
            # Output covers every column: rows stay distinct.  On the
            # encoded path a constant head term is interned so the
            # output stays in code space.
            if dictionary is not None:
                codes = [
                    cols[e] if isinstance(e, int)
                    else [dictionary.intern(e[1])] * n
                    for e in entries
                ]
                return Relation.from_encoded(
                    root.name, root.columns, codes, dictionary, count=n
                )
            arrays = [
                cols[e] if isinstance(e, int) else [e[1]] * n for e in entries
            ]
            return Relation.from_columns(root.name, root.columns, arrays, count=n)

        # The projection drops columns: deduplicate the bindable part
        # (in code space when encoded — codes are equality-faithful, so
        # code-distinct is value-distinct), then re-insert constants
        # (which cannot split groups).
        if not positions:
            rows: set[tuple] = {()} if n else set()
        elif len(positions) == 1:
            rows = {(v,) for v in cols[positions[0]]}
        else:
            rows = set(zip(*(cols[p] for p in positions)))
        const_inserts = [
            (
                i,
                dictionary.intern(e[1]) if dictionary is not None else e[1],
            )
            for i, e in enumerate(entries)
            if not isinstance(e, int)
        ]
        if const_inserts:
            out_rows = set()
            for row in rows:
                values = list(row)
                for i, v in const_inserts:
                    values.insert(i, v)
                out_rows.add(tuple(values))
            rows = out_rows
        if dictionary is not None:
            code_arrays = (
                [list(col) for col in zip(*rows)]
                if rows
                else [[] for _ in root.columns]
            )
            return Relation.from_encoded(
                root.name, root.columns, code_arrays, dictionary,
                count=len(rows),
            )
        return Relation.from_distinct_rows(root.name, root.columns, rows)

    # ------------------------------------------------------------------
    # Step plans (FILTER steps / flock answers)
    # ------------------------------------------------------------------

    def run_answer(self, step: StepPlan) -> Relation:
        """The unioned answer relation of a step's rule branches (the
        guard is polled after each branch of a union)."""
        if len(step.branches) == 1:
            return self.run_plan(step.branches[0]).with_name("answer")
        rows: set[tuple] = set()
        for branch in step.branches:
            rows |= self.run_plan(branch).tuples
            if self.guard is not None:
                self.guard.checkpoint(
                    rows=len(rows), node=f"union:{step.result_name}"
                )
        return Relation.from_distinct_rows(
            "answer", step.answer_columns, rows
        )

    def group_filter(
        self,
        answer: Relation,
        group_by,
        aggregates,
        conditions,
        name: str = "ok",
    ) -> Relation:
        """GroupAggregate + ThresholdFilter: the surviving groups with
        their aggregate value columns (one ``_agg{i}`` per conjunct)."""
        grouped: Relation | None = None
        for spec in aggregates:
            agg = group_aggregate(
                answer,
                list(group_by),
                spec.fn,
                target=list(spec.target),
                result_column=spec.column,
            )
            grouped = (
                agg if grouped is None else natural_join(grouped, agg, name="agg")
            )
            if self.guard is not None:
                self.guard.checkpoint(rows=len(grouped), node=spec.column)
        assert grouped is not None
        return grouped.take(self._threshold_keep(grouped, conditions), name=name)

    @staticmethod
    def _threshold_keep(grouped: Relation, conditions) -> list[int]:
        """Row indexes of ``grouped`` passing every threshold conjunct.

        Vectorized: on an encoded relation each condition is evaluated
        once per *distinct* aggregate code (the passing-code set), then
        rows are kept by integer set membership; on a plain relation the
        condition's batch evaluator scans the value column directly.
        Either way no per-row ``passes()`` method call remains.
        """
        keep: list[int] | None = None
        dictionary = grouped.dictionary if grouped.is_encoded else None
        for cond, column in conditions:
            pos = grouped.column_position(column)
            if dictionary is not None:
                col = grouped.code_columns()[pos]
                values = dictionary.values
                passes = cond.passes
                passing = {c for c in set(col) if passes(values[c])}
                if keep is None:
                    keep = [i for i, c in enumerate(col) if c in passing]
                else:
                    keep = [i for i in keep if col[i] in passing]
            else:
                col = grouped.columns_data()[pos]
                if keep is None:
                    keep = cond.passing_indexes(col)
                else:
                    passes = cond.passes
                    keep = [i for i in keep if passes(col[i])]
        if keep is None:
            keep = list(range(len(grouped)))
        return keep

    def run_group_filter(self, answer: Relation, step: StepPlan) -> Relation:
        return self.group_filter(
            answer,
            step.group.group_by,
            step.group.aggregates,
            step.threshold.conditions,
            name=step.root.name,
        )

    @staticmethod
    def _early_exit_cap(conditions: Sequence[tuple]) -> int | None:
        """The distinct-count bound at which a group's survival is
        decided, when early-exit counting applies: exactly one
        threshold conjunct, of support shape (``COUNT >= k`` /
        ``COUNT > k``).  ``None`` means exact aggregates are needed."""
        if len(conditions) != 1:
            return None
        condition, _column = conditions[0]
        if not getattr(condition, "is_support_condition", False):
            return None
        cap = max(1, math.floor(float(condition.threshold)))
        while not condition.passes(cap):
            cap += 1
        return cap

    def survivor_filter(
        self,
        answer: Relation,
        group_by: Sequence[str],
        aggregates: Sequence,
        conditions: Sequence[tuple],
        name: str = "ok",
    ) -> Relation:
        """The surviving group keys only — no aggregate value columns.

        For the common support filter (a single ``COUNT >= k``
        conjunct) this counts with early exit: a group stops counting —
        and stops accumulating its distinct-target set — the moment it
        reaches the bound, since only survivorship is needed.  Other
        filters fall back to :meth:`group_filter` plus a projection.

        Rows come out canonically sorted, like :meth:`project_unique`.
        """
        cap = self._early_exit_cap(conditions)
        if cap is None:
            passed = self.group_filter(
                answer, group_by, aggregates, conditions, name=name
            )
            return self.project_unique(passed, list(group_by), name)
        spec = aggregates[0]
        dictionary = answer.dictionary if answer.is_encoded else None
        cols: Sequence[Sequence] = (
            answer.code_columns() if dictionary is not None
            else answer.columns_data()
        )
        key_positions = [answer.column_position(c) for c in group_by]
        target_positions = [answer.column_position(c) for c in spec.target]
        key_arrays = [cols[p] for p in key_positions]
        group_set = set(group_by)
        covers_members = set(spec.target) == {
            c for c in answer.columns if c not in group_set
        }

        # Counting runs entirely in C: rows are distinct (set
        # semantics), so when the COUNT target covers every non-group
        # column the distinct-target count per group is simply the
        # group's row count — one Counter over the key columns.  For a
        # strict subset target, distinct (key, target) pairs collapse
        # through a set first, then the keys are counted.
        nk = len(key_positions)
        counts: Counter
        if nk == 0:
            # No parameters: the whole answer is one group.
            if covers_members:
                total = len(answer)
            else:
                total = len(set(zip(*(cols[p] for p in target_positions))))
            counts = Counter({(): total} if total else {})
        elif covers_members:
            if nk == 1:
                counts = Counter(key_arrays[0])
            else:
                counts = Counter(zip(*key_arrays))
        else:
            target_arrays = [cols[p] for p in target_positions]
            pairs = set(zip(*key_arrays, *target_arrays))
            picker = (
                itemgetter(0) if nk == 1 else itemgetter(slice(0, nk))
            )
            counts = Counter(map(picker, pairs))

        survivor_keys = [key for key, c in counts.items() if c >= cap]
        coded_rows = (
            [(key,) for key in survivor_keys] if nk == 1 else survivor_keys
        )
        if dictionary is not None:
            # Canonical order sorts by the *decoded* repr (identical to
            # the legacy path); only survivors pay the decode.
            values = dictionary.values
            coded_rows.sort(
                key=lambda row: repr(tuple(values[c] for c in row))
            )
            arrays = (
                [list(column) for column in zip(*coded_rows)]
                if coded_rows
                else [[] for _ in group_by]
            )
            return Relation.from_encoded(
                name, tuple(group_by), arrays, dictionary,
                count=len(coded_rows),
            )
        rows = sorted(coded_rows, key=repr)
        arrays = (
            [list(column) for column in zip(*rows)]
            if rows
            else [[] for _ in group_by]
        )
        return Relation.from_columns(
            name, tuple(group_by), arrays, count=len(rows)
        )

    def run_survivors(self, answer: Relation, step: StepPlan) -> Relation:
        """Survivors of one step when only the ok-relation is needed
        (no session sink wants the aggregate values)."""
        return self.survivor_filter(
            answer,
            step.group.group_by,
            step.group.aggregates,
            step.threshold.conditions,
            name=step.root.name,
        )

    def project_unique(self, rel: Relation, columns, name: str) -> Relation:
        """Project onto ``columns`` when they are known to stay unique
        (e.g. group keys after aggregation) — no dedup pass.

        Rows come out canonically sorted (by ``repr``), never in dict or
        set iteration order: serial and parallel runs, and memory and
        SQLite backends, must produce identical column arrays so result
        diffs are stable.
        """
        data = rel.columns_data()
        arrays = [data[rel.column_position(c)] for c in columns]
        n = len(rel)
        if n > 1 and arrays:
            rows = sorted(zip(*arrays), key=repr)
            arrays = [list(column) for column in zip(*rows)]
        return Relation.from_columns(name, tuple(columns), arrays, count=n)

    def finalize_step(self, passed: Relation, step: StepPlan) -> Relation:
        """Materialize the survivor relation (group columns only).

        Group keys are unique in the aggregated relation, so dropping
        the aggregate columns preserves distinctness.
        """
        return self.project_unique(passed, step.root.columns, step.root.name)

    def run_step(
        self, step: StepPlan, need_aggregates: bool = False
    ) -> StepResult:
        """Execute one FILTER step end to end — the serial step body
        every in-memory path shares."""
        self._verify_before_execution(step)
        answer = self.run_answer(step)
        if self.guard is not None:
            self.guard.checkpoint(
                rows=len(answer), node=f"step:{step.result_name}"
            )
        if not need_aggregates:
            return StepResult(self.run_survivors(answer, step), None, len(answer))
        passed = self.run_group_filter(answer, step)
        return StepResult(self.finalize_step(passed, step), passed, len(answer))


class MemoryRunner:
    """The serial in-memory step runner: a fresh :class:`MemoryEngine`
    interprets each step.  Accumulates the engines' observability data
    over the run: join-stage observations and scan rows pruned by
    runtime filters."""

    def __init__(self, guard: ExecutionGuard | None = None) -> None:
        self.guard = guard
        self.observations: list[StageObservation] = []
        self.rows_pruned: int = 0

    def run_step(
        self, step_plan: StepPlan, db: Database, need_aggregates: bool = False
    ) -> StepResult:
        engine = MemoryEngine(db, guard=self.guard)
        outcome = engine.run_step(step_plan, need_aggregates=need_aggregates)
        self.observations.extend(engine.stage_log)
        self.rows_pruned += engine.rows_pruned
        return outcome
