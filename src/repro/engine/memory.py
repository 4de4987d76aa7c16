"""The in-memory interpreter for physical plans, over columnar relations.

Executes a :class:`~repro.engine.ir.PhysicalPlan` stage by stage, each
stage through one body: the join's row-index pairs
(:class:`~repro.relational.operators.JoinPairs`), one keep-mask per
attached filter (:meth:`MemoryEngine._filter_mask`: comparison mask,
membership mask, ground negation), one trace row and observation.
Every stage but a branch's last is gathered
(:meth:`MemoryEngine.run_stage`) for the next join; the last is kept as
index pairs (:meth:`MemoryEngine._run_branch`) and the branch's output
is read through them (:meth:`MemoryEngine._answer`): a FILTER step
groups those rows where they are, and a rule plan gathers them once.
A COUNT step's last stage of the right shape may instead be counted
by bitmap AND + popcount (:meth:`MemoryEngine._stage_counts`), picked by
an exact size rule (:func:`bitmap_pays`) with every count unchanged:
one build for two sides with the same code columns (the pair flock's
self-join), and under ``$1 < $2`` only the key pairs it admits.
Binding relations are cached per engine instance, so a union's branches
never rebuild the same scan twice.  Every relation the engine touches
is in its catalog's code space
(:meth:`~repro.relational.catalog.Database.encoded`): joins, grouping
and membership tests compare integer codes, and only comparisons and
SUM/MIN/MAX decode the columns they read.

The Section 4.4 dynamic strategy is a decision object handed to
:meth:`MemoryEngine.run_step`: the one stage loop asks it for each
stage's leaf and each intermediate join result — the engine itself
never decides to filter, and the stages run in their lowered order.
"""

# conlint: hot-module — loops here are engine kernels; the
# cancellation-responsiveness pass requires each hot loop to poll
# the execution guard (see docs/CONCURRENCY.md).

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, mul, not_
from typing import Any, Callable, Iterable, Optional, Sequence

from ..datalog.atoms import ComparisonOp, RelationalAtom
from ..datalog.terms import Constant, Parameter, is_bindable
from ..guard import ExecutionGuard, GuardLike, as_guard
from ..relational.aggregates import (
    AggregateFunction,
    group_values,
    survivor_relations,
)
from ..relational.binding import (
    atom_binding_relation,
    comparison_mask,
    term_column,
    unit_relation,
)
from ..relational.catalog import Database
from ..relational.operators import ColumnReader, JoinPairs, member_mask
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

#: Candidate key pairs the bitmap body ANDs between two guard polls (at
#: least one poll per left key).
POPCOUNT_CHUNK = 4096

#: The span of ascending ``values`` that ``left <op> value`` admits.
_SPANS = {
    ComparisonOp.LT: lambda values, left: (bisect_right(values, left), len(values)),
    ComparisonOp.LE: lambda values, left: (bisect_left(values, left), len(values)),
    ComparisonOp.GT: lambda values, left: (0, bisect_left(values, left)),
    ComparisonOp.GE: lambda values, left: (0, bisect_right(values, left)),
}


def bitmap_pays(candidates: int, rows: int, pairs: int) -> bool:
    """The size rule between a COUNT step's two last-stage bodies: count
    by bitmaps when the candidate key pairs (one AND + popcount each)
    plus the join's input rows (each read into a bitmap) are no more
    than the join's pairs before any mask (one index pair, one mask
    entry and one Counter increment each).  Every term is exact, from
    one Counter per join side.

    The rows term is measured, not tuned: ``mine()`` on the
    ``words_cold`` corpus, each body forced (2 vCPUs, best of three
    medians of 7), ms pairs / bitmaps.  The pair flock at support
    10 / 20 / 40 (candidates 197k / 28.9k / 4.6k, rows 25k / 18k / 13k,
    pairs 330k / 174k / 89k): 149 / 126, 85 / 48, 42 / 19.  The
    pinned-word flock (444 candidates, 13k rows, pairs 11.8k down to
    448): the pair body wins by 0.8-3.6 ms at every pair count — there
    the candidates alone are fewer than the pairs, the candidates plus
    the rows are not."""
    return candidates + rows <= pairs


@dataclass
class StepResult:
    """What one step runner produced for one FILTER step.

    ``result`` is the materialized survivor relation; ``passed`` keeps
    the surviving groups *with* their aggregate columns (what the
    session cache stores) and is ``None`` unless the caller asked for
    aggregates; ``answer_tuples`` is the number of distinct rows of the
    unioned rule result.  ``mode`` and
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
        column = rel.code_columns()[rel.column_position(sf.column)]
        mask = member_mask(
            self.db.encoded(sf.source), (sf.source_column,), (column,)
        )
        keep = list(compress(range(len(rel)), mask))
        if len(keep) == len(rel):
            return rel
        return rel.take(keep, name=rel.name)

    def _filtered_scan(
        self, stage: JoinStage, leaf: Relation | None
    ) -> Relation:
        """The stage's scan with its runtime filters applied (cached per
        (atom, filters) so union branches prune once)."""
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

    # ------------------------------------------------------------------
    # Rule plans
    # ------------------------------------------------------------------

    def run_stage(
        self,
        current: Relation,
        stage: JoinStage,
        leaf: Relation | None = None,
    ) -> Relation:
        """One join stage, materialised: :meth:`_stage_pairs` gathered.

        ``leaf`` overrides the scan with an already-reduced binding
        relation (a dynamically filtered leaf).  Against the unit
        relation (no columns, one row: the join's identity) an
        unfiltered stage returns the scan in place, in its code space.
        """
        return self._stage_pairs(current, stage, leaf).relation()

    def _stage_pairs(
        self,
        current: Relation,
        stage: JoinStage,
        leaf: Relation | None,
        count: tuple[str, tuple[str, ...]] | None = None,
    ) -> JoinPairs | _Counted:
        """The one stage body: trip, scan, the join's index pairs, one
        keep-mask per attached filter (each followed by a checkpoint),
        then the stage's observation.  Nothing is gathered.

        ``count`` marks a COUNT step's last stage (:func:`_count_shape`):
        then :meth:`_stage_counts` may count it by bitmaps instead."""
        trip("relational.join")
        started = time.perf_counter()
        scan = self._filtered_scan(stage, leaf)
        if count is not None:
            counted = self._stage_counts(current, scan, stage, count, started)
            if counted is not None:
                return counted
        pairs = JoinPairs(current, scan, self.db.dictionary)
        self._keep_filters(pairs, stage.filters, stage.node)
        self._observe(stage, len(current), len(pairs), started)
        return pairs

    def _stage_counts(
        self,
        left: Relation,
        right: Relation,
        stage: JoinStage,
        count: tuple[str, tuple[str, ...]],
        started: float,
    ) -> _Counted | None:
        """The bitmap body of a COUNT step's last stage: each group's
        COUNT as ``(left bitmap & right bitmap).bit_count()``, or
        ``None`` when the stage's shape or :func:`bitmap_pays` wants the
        pair body.

        The shape: the stage joins on exactly the counted column ``x``,
        both sides bind only ``x`` and parameters, and every attached
        filter compares parameters and constants.  Then each pair is one
        distinct (left key, right key, ``x``) row, so a key pair's pair
        count is the number of ``x`` values its two bitmaps share — what
        the pair body counts, for every survivor, aggregate and row
        count.  Bit positions are the dense positions of the ``x`` codes
        both sides hold (a row with any other ``x`` matches nothing);
        sides holding the same code columns share one build.
        The popcounts come first and zero counts are dropped, so each
        filter reads exactly the key pairs the pair body's masks read
        (mixed types raise alike); after each mask the guard sees the
        pair body's row count, the kept counts' sum.  A first filter
        ordering the sides' keys (:meth:`_ordered`) is no mask: each left
        key ANDs only the right keys it admits, bisected from one sort.
        """
        x, group = count
        params = set(group)
        if set(left.columns) & set(right.columns) != {x} or (
            set(left.columns) | set(right.columns) != params | {x}
        ) or not all(
            isinstance(op, CompareFilter)
            and {term_column(t) for t in op.comparison.bindable_terms()}
            <= params
            for op in stage.filters
        ):
            return None
        (left_keys, left_xs), (right_keys, right_xs) = (
            _key_columns(rel, x) for rel in (left, right)
        )
        # Sides holding the same code columns (a self-join's scans, or a
        # dynamic leaf FILTERed once and relabelled) share one build.
        same = left_xs is right_xs and [*map(id, left_keys)] == [*map(id, right_keys)]
        inputs = len(left) + len(right)
        small, large = sorted((left_xs, right_xs), key=len)
        small_per_x = Counter(small)
        # The pairs are at most the larger side's rows times the smaller
        # side's largest x count: when no grid passes against that, the
        # rule (monotone in both) fails without the larger Counter.
        most = max(small_per_x.values(), default=0)
        if not bitmap_pays(0, inputs, len(large) * most):
            return None
        large_per_x = small_per_x if same else Counter(large)
        pairs = sum(map(mul, small_per_x.values(),
                        map(large_per_x.__getitem__, small_per_x)))
        grid = _distinct(left_keys, len(left)) * _distinct(right_keys, len(right))
        if not bitmap_pays(grid, inputs, pairs):
            return None

        shared = filter(large_per_x.__contains__, small_per_x)
        position = {code: i for i, code in enumerate(shared)}
        left_bits = _bitmaps(left_keys, left_xs, position)
        right_bits = left_bits if same else _bitmaps(right_keys, right_xs, position)
        # A candidate's key is its left key's codes then its right key's.
        names = [c for rel in (left, right) for c in rel.columns if c != x]
        lefts, rights = list(left_bits.items()), list(right_bits.items())
        filters = list(stage.filters)
        spans = self._ordered(filters[:1], names, len(left.columns) - 1,
                              lefts, rights)
        if spans:  # the first filter is the enumeration below
            del filters[0]
        right_keys, right_maps = [k for k, _ in rights], [b for _, b in rights]

        keys: list[tuple] = []
        counts: list[int] = []
        for (key, bits), (low, high) in zip(lefts, spans or repeat((0, len(rights)))):
            for start in range(low, high, POPCOUNT_CHUNK):
                end = min(start + POPCOUNT_CHUNK, high)
                got = list(map(int.bit_count, map(bits.__and__, right_maps[start:end])))
                keys += compress(map(key.__add__, right_keys[start:end]), got)
                counts += filter(None, got)
                if self.guard is not None:
                    self.guard.checkpoint(node=stage.node)
        if spans and self.guard is not None:
            self.guard.checkpoint(rows=sum(counts), node=stage.node)

        def column(name: str, decode: bool = False) -> Iterable:
            values = map(itemgetter(names.index(name)), keys)
            return self.db.dictionary.decode_column(values) if decode else values

        for op in filters:
            keep = list(self._filter_mask(op, column, len(keys)))
            keys = list(compress(keys, keep))
            counts = list(compress(counts, keep))
            if self.guard is not None:
                self.guard.checkpoint(rows=sum(counts), node=stage.node)
        rows = sum(counts)
        self._observe(stage, len(left), rows, started, "bitmap")
        # count_groups' key shapes: a scalar, a tuple, or () for none.
        at = [names.index(c) for c in group]
        in_place = len(at) > 1 and at == sorted(at)
        by = keys if in_place else map(itemgetter(*at), keys) if at else repeat(())
        return _Counted(dict(zip(by, counts)), rows)

    def _ordered(
        self, first: list, names: list[str], split: int, lefts: list, rights: list
    ) -> list[tuple[int, int]] | None:
        """When ``first`` orders a left key column (of ``names[:split]``)
        against a right one, over values all ``str`` or all ``int``:
        ``rights`` sorted by value in place, and per left key the span
        of them it admits.  Else ``None``."""
        if not first or first[0].comparison.op not in _SPANS:
            return None
        comparison = first[0].comparison
        at = [names.index(term_column(t)) if is_bindable(t) else -1
              for t in (comparison.left, comparison.right)]
        op = comparison.op
        if at[0] >= split and 0 <= at[1] < split:
            at, op = at[::-1], op.flipped()
        if not (0 <= at[0] < split <= at[1]):
            return None
        decode = self.db.dictionary.decode_column
        left_values = decode(key[at[0]] for key, _ in lefts)
        right_values: list[Any] = decode(key[at[1] - split] for key, _ in rights)
        types = set(map(type, left_values)) | set(map(type, right_values))
        if not (types <= {str} or types <= {int}):
            return None
        order = sorted(range(len(rights)), key=right_values.__getitem__)
        rights[:] = map(rights.__getitem__, order)
        right_values = list(map(right_values.__getitem__, order))
        span = _SPANS[op]
        return [span(right_values, value) for value in left_values]

    def _keep_filters(
        self,
        pairs: JoinPairs,
        filters: Sequence[CompareFilter | AntiJoin],
        node: str,
    ) -> None:
        """Narrow ``pairs`` by each filter's mask, checkpointing after
        each under ``node``."""
        for op in filters:
            pairs.keep(self._filter_mask(op, pairs.column, len(pairs)))
            if self.guard is not None:
                self.guard.checkpoint(rows=len(pairs), node=node)

    def _filter_mask(
        self, op: CompareFilter | AntiJoin, column: ColumnReader, rows: int
    ) -> Iterable[bool]:
        """One attached filter as a keep-mask over ``rows`` rows whose
        columns ``column`` reads — the one place an attached filter is
        interpreted."""
        if isinstance(op, CompareFilter):
            return comparison_mask(op.comparison, column, rows)
        neg_rel = self.scan_atom(op.atom.with_positive_polarity())
        if not op.atom.bindable_terms():
            # Ground negation: NOT p(c1,...,ck) keeps nothing iff the
            # selected relation is nonempty.
            return repeat(not len(neg_rel), rows)
        keys = neg_rel.columns
        return map(not_, member_mask(neg_rel, keys, [column(c) for c in keys]))

    def _observe(
        self,
        stage: JoinStage,
        before: int,
        actual: int,
        started: float,
        kernel: str = "pairs",
    ) -> None:
        """A finished stage's duties: its estimate/bound/actual
        observation (naming the body that ran it), the guard's trace
        row, and a checkpoint."""
        self.stage_log.append(
            StageObservation(
                node=stage.node,
                estimated=stage.estimate,
                bound=stage.bound,
                actual=actual,
                kernel=kernel,
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
    ) -> Relation:
        """The one loop over join stages: ``branch``'s stages before
        position ``stop``, from the unit relation.

        A ``dynamic`` decision object (see :meth:`run_step`) supplies
        each stage's leaf and may FILTER each join result.
        """
        current = unit_relation()
        for position in range(stop):
            stage = branch.stages[position]
            current = self.run_stage(
                current, stage, self._leaf(branch, position, dynamic)
            )
            if dynamic is not None:
                current = dynamic.joined(self, branch, position, current)
        return current

    def _leaf(self, branch: PhysicalPlan, position: int, dynamic):
        return None if dynamic is None else dynamic.leaf(self, branch, position)

    def _run_branch(
        self,
        branch: PhysicalPlan,
        dynamic=None,
        count: tuple[str, tuple[str, ...]] | None = None,
    ) -> JoinPairs | _Counted:
        """One rule branch up to its last join, left as index pairs:
        the stage loop, the last stage's body, then each trailing stage
        that binds no new column (a static plan's ok-atoms) as one more
        membership mask with its own observation.  A dynamic branch
        takes no such tail: its policy is offered every stage's leaf,
        and a stage run as a mask would hide its leaf from the policy.
        A branch with no stages is the unit relation's one pair; its
        unit filters are masks like any other.

        With ``count`` (a COUNT step's shape, :func:`_count_shape`), a
        branch with no tail and no unit filters offers its last stage
        to the bitmap body, which returns the groups' counts instead."""
        last = len(branch.stages) - 1
        if dynamic is None:
            last -= _semi_join_tail(branch.stages)
        if last < 0:
            pairs = JoinPairs(unit_relation(), unit_relation(), self.db.dictionary)
        else:
            current = self._run_stages(branch, last, dynamic)
            if last < len(branch.stages) - 1 or branch.unit_filters:
                count = None
            pairs = self._stage_pairs(
                current, branch.stages[last],
                self._leaf(branch, last, dynamic), count,
            )
            if isinstance(pairs, _Counted):
                return pairs
        for semi in branch.stages[last + 1:]:
            trip("relational.join")
            started, before = time.perf_counter(), len(pairs)
            scan = self._filtered_scan(semi, None)
            pairs.keep(member_mask(
                scan, scan.columns, [pairs.column(c) for c in scan.columns]
            ))
            self._observe(semi, before, len(pairs), started)
        self._keep_filters(pairs, branch.unit_filters, "unit filter")
        return pairs

    def _output(self, pairs: JoinPairs, root: Materialize) -> ColumnReader:
        """``root``'s output columns read through ``pairs`` by label:
        a variable's pair column, or a constant repeated (interned, so
        the output stays in code space).  Rows may repeat when the
        output drops a pair column."""
        terms = dict(zip(root.columns, root.output_terms))
        dictionary = self.db.dictionary

        def column(name: str, decode: bool = False) -> Iterable:
            term = terms[name]
            if not isinstance(term, Constant):
                return pairs.column(term_column(term), decode)
            codes = repeat(dictionary.intern(term.value), len(pairs))
            return dictionary.decode_column(codes) if decode else codes

        return column

    def _answer(
        self, parts: Sequence[tuple[JoinPairs, Materialize]]
    ) -> tuple[ColumnReader, int]:
        """The distinct output rows of ``parts`` (branches run by
        :meth:`_run_branch`, whose roots share their column labels), as
        a column reader and a row count.

        One branch whose output keeps every pair column is read in
        place: a join of sets is a set.  Otherwise the branches' rows
        collapse into one set of code tuples (codes are
        equality-faithful, so code-distinct is value-distinct): that
        drops existential variables' extra witnesses — what makes a SUM
        over the rows the paper's set aggregate, not a bag one — and
        across branches it *is* the union.  The set's columns are read
        in place, one ``itemgetter`` pass each.
        """
        if len(parts) == 1 and _covers(*parts[0]):
            pairs, root = parts[0]
            return self._output(pairs, root), len(pairs)
        rows: set[tuple[int, ...]] = set()
        for pairs, root in parts:
            read = self._output(pairs, root)
            columns = [read(c) for c in root.columns]
            rows.update(zip(*columns) if columns else repeat((), len(pairs)))
        position = {c: i for i, c in enumerate(parts[0][1].columns)}
        decode_column = self.db.dictionary.decode_column

        def column(name: str, decode: bool = False) -> Iterable:
            codes = map(itemgetter(position[name]), rows)
            return decode_column(codes) if decode else codes

        return column, len(rows)

    def run_plan(self, plan: PhysicalPlan) -> Relation:
        """Execute one rule plan end to end: its distinct output rows
        (:meth:`_answer`) gathered once, under the plan's labels."""
        self._verify_before_execution(plan)
        root = plan.root
        column, rows = self._answer([(self._run_branch(plan), root)])
        return Relation.from_encoded(
            root.name, root.columns, [list(column(c)) for c in root.columns],
            self.db.dictionary, count=rows,
        )

    # ------------------------------------------------------------------
    # Step plans (FILTER steps / flock answers)
    # ------------------------------------------------------------------

    def run_answer(self, step: StepPlan) -> Relation:
        """The unioned answer relation of a step's rule branches, built
        through :meth:`run_plan` — the materialised reference the tests
        compare :meth:`run_step` against; no engine path calls it."""
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

        Each rule branch runs to its last join's index pairs
        (:meth:`_run_branch`); the answer is read through them — in
        place, or collapsed to its distinct rows (:meth:`_answer`) —
        and never gathered.  One
        :func:`~repro.relational.aggregates.group_values` map per filter
        conjunct (a guard checkpoint after each) feeds
        :func:`~repro.relational.aggregates.survivor_relations`, which
        picks the surviving groups; ``passed`` (survivors with their
        ``_agg`` columns) is built only when ``need_aggregates``.  A
        COUNT step of the bitmap shape (:func:`_count_shape`) may have
        its last stage counted instead (:meth:`_stage_counts`): its one
        count map then serves every conjunct, and its count of pairs is
        the answer tuples.

        ``dynamic`` is the Section 4.4 decision policy
        (:class:`~repro.flocks.dynamic.DynamicEvaluator`) for a
        single-rule step: ``begin(step)`` starts it (re-lowering the
        branch only for an explicit join order); the stage loop asks
        ``leaf(engine, branch, position)`` for each stage's (possibly
        FILTERed) binding relation and ``joined(engine, branch,
        position, current)`` for the (possibly FILTERed) join result;
        ``root(rows, survivors)`` closes it with the last stage's pair
        count.
        """
        self._verify_before_execution(step)
        if dynamic is not None:
            step = dynamic.begin(step)
        count = _count_shape(step)
        parts = [
            (self._run_branch(branch, dynamic, count), branch.root)
            for branch in step.branches
        ]
        counted = parts[0][0]
        if isinstance(counted, _Counted):
            answer_tuples = len(counted)
        else:
            column, answer_tuples = self._answer(parts)
        if self.guard is not None:
            self.guard.checkpoint(
                rows=answer_tuples, node=f"step:{step.result_name}"
            )
        spec = {s.column: s for s in step.group.aggregates}
        conditions = step.threshold.conditions
        values = []
        for _, name in conditions:
            if isinstance(counted, _Counted):
                values.append(counted.counts)  # every conjunct's COUNT
            else:
                values.append(group_values(
                    column, step.group.group_by, spec[name].fn,
                    spec[name].target, step.answer_columns, answer_tuples,
                ))
            if self.guard is not None:
                self.guard.checkpoint(rows=len(values[-1]), node=name)
        result, passed = survivor_relations(
            values, [condition for condition, _ in conditions],
            step.root.columns, step.root.name, self.db.dictionary,
            [name for _, name in conditions] if need_aggregates else None,
        )
        outcome = StepResult(result, passed, answer_tuples)
        if dynamic is not None:
            dynamic.root(len(parts[0][0]), len(outcome.result))
        return outcome


@dataclass
class _Counted:
    """The bitmap body's answer for a COUNT step: each group's count
    (a group of none is absent), and as its length the rows the pair
    body would have kept — the step's answer tuples."""

    counts: dict
    rows: int

    def __len__(self) -> int:
        return self.rows


def _count_shape(step: StepPlan) -> tuple[str, tuple[str, ...]] | None:
    """For a one-branch step whose every aggregate counts its one
    non-parameter answer column ``X`` (``COUNT(answer.X)``, or
    ``COUNT(answer(*))`` with head ``(X)``): ``X``'s pair column and the
    group columns' pair columns, in group order.  Otherwise ``None``:
    the step runs the pair body only."""
    if len(step.branches) != 1:
        return None
    group = step.group.group_by
    others = [c for c in step.answer_columns if c not in group]
    if len(others) != 1 or not all(
        spec.fn is AggregateFunction.COUNT and spec.target == tuple(others)
        for spec in step.group.aggregates
    ):
        return None
    root = step.branches[0].root
    terms = dict(zip(root.columns, root.output_terms))
    if isinstance(terms[others[0]], (Constant, Parameter)) or any(
        isinstance(terms[c], Constant) for c in group
    ):
        return None
    return term_column(terms[others[0]]), tuple(
        term_column(terms[c]) for c in group
    )


def _key_columns(rel: Relation, x: str) -> tuple[list[list[int]], list[int]]:
    """``rel``'s key code columns (every column but ``x``) and its ``x``
    code column."""
    codes = rel.code_columns()
    keys = [codes[i] for i, c in enumerate(rel.columns) if c != x]
    return keys, codes[rel.column_position(x)]


def _distinct(keys: list[list[int]], rows: int) -> int:
    """How many distinct keys ``rows`` rows of key columns hold."""
    if not keys:
        return min(rows, 1)
    return len(set(keys[0] if len(keys) == 1 else zip(*keys)))


def _bitmaps(
    keys: list[list[int]], xs: list[int], position: dict[int, int]
) -> dict[tuple, int]:
    """One int per key (a tuple of codes): bit ``position[x]`` set for
    each of its rows' ``x``; a row whose ``x`` has no position matches
    nothing, and is dropped before the one Python-level loop."""
    kept = list(map(position.__contains__, xs))
    rows = compress(zip(*keys) if keys else repeat(()), kept)
    bits: dict[tuple, int] = {}
    for key, at in zip(rows, map(position.__getitem__, compress(xs, kept))):
        bits[key] = bits.get(key, 0) | 1 << at
    return bits


def _semi_join_tail(stages: Sequence[JoinStage]) -> int:
    """How many trailing stages bind no new column (a static plan's
    ok-atoms): semi-joins :meth:`MemoryEngine._run_branch` applies as
    masks."""
    n = 0
    while n + 1 < len(stages):
        stage, before = stages[-1 - n], stages[-2 - n]
        columns = set(stage.scan.columns)
        if not columns or stage.filters or not columns <= set(before.columns):
            break
        n += 1
    return n


def _covers(pairs: JoinPairs, root: Materialize) -> bool:
    """Whether ``root``'s output keeps every column of ``pairs`` — then
    its rows are as distinct as the pairs."""
    kept = {
        term_column(t) for t in root.output_terms if not isinstance(t, Constant)
    }
    return kept >= set(pairs.columns)


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
