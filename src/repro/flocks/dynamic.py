"""Dynamic selection of filter steps (Section 4.4).

Instead of fixing the FILTER steps in advance, the dynamic strategy
lowers the flock's rule to the same physical plan every other strategy
runs (:func:`repro.engine.planner.lower_rule`), then *watches the sizes
of intermediate relations* while interpreting its stages and decides
after each join whether inserting a FILTER step would pay:

* when a set of parameters appears for the first time (including the
  single-subgoal leaves), compare the number of tuples per parameter
  assignment with the support threshold — **low** means many assignments
  will be eliminated, so filter; **high** means filtering would remove
  little, so skip;
* when the same parameter set has been seen before, filter only if the
  tuples-per-assignment ratio dropped significantly since the last
  filter opportunity for that set;
* the root must always be filtered — that final FILTER *is* the flock's
  answer.

Watching sizes enables one more dynamic move the static strategies
cannot make: when the observed size of an intermediate relation
diverges badly from the stage's estimate, the *remaining* stages are
re-planned from the observed size
(:func:`repro.engine.planner.complete_order`) and the evaluator swaps
in the re-lowered plan suffix — same IR, new operator order.

A filter step is sound here for the same reason as in the static case:
the subgoals joined so far form a safe subquery of the flock query (the
evaluator only offers the decision when the filter's count target is
bound), so its per-assignment answer set is a superset of the full
query's and a monotone filter that fails on it fails on the whole flock.

The evaluator returns the flock result, a decision log, and a rendered
plan in the Fig. 9 style showing which joins and FILTERs actually ran.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..analysis.verification import plan_verification_enabled
from ..errors import FilterError, PlanError
from ..datalog.atoms import RelationalAtom
from ..datalog.query import ConjunctiveQuery
from ..datalog.safety import assert_safe
from ..engine.ir import CompareFilter, JoinStage, PhysicalPlan
from ..engine.memory import MemoryEngine
from ..engine.planner import complete_order, lower_rule
from ..guard import GuardLike, as_guard
from ..relational.aggregates import relation_group_counts, survivor_relations
from ..relational.catalog import Database
from ..relational.operators import semi_join
from ..relational.relation import Relation
from .filters import STAR, iter_conditions, plan_aggregate_specs
from .flock import QueryFlock
from .result import FlockResult

if TYPE_CHECKING:
    from ..analysis.certify import BranchCertificate


@dataclass(frozen=True)
class DynamicDecision:
    """One filter/don't-filter decision at a node of the join tree."""

    node: str
    parameter_columns: tuple[str, ...]
    tuples_per_assignment: float
    filtered: bool
    reason: str
    size_before: int
    size_after: int

    def __str__(self) -> str:
        verdict = "FILTER" if self.filtered else "skip"
        params = ",".join(self.parameter_columns) or "-"
        return (
            f"{verdict:6s} at {self.node} [params {params}] "
            f"ratio={self.tuples_per_assignment:.2f} "
            f"{self.size_before} -> {self.size_after} tuples ({self.reason})"
        )


@dataclass
class DynamicTrace:
    """The full decision log plus the executed step list (Fig. 9 form).

    With plan verification on (see :mod:`repro.analysis.verification`),
    ``certificates`` carries one
    :class:`~repro.analysis.certify.BranchCertificate` per FILTER
    actually applied — the safety report and containment witness of the
    in-flight safe subquery, making dynamic decisions as auditable as a
    static plan's pre-filter steps.
    """

    decisions: list[DynamicDecision] = field(default_factory=list)
    plan_lines: list[str] = field(default_factory=list)
    seconds: float = 0.0
    certificates: tuple["BranchCertificate", ...] = ()

    def filters_applied(self) -> int:
        return sum(1 for d in self.decisions if d.filtered)

    def render_plan(self) -> str:
        return "\n".join(self.plan_lines)

    def __str__(self) -> str:
        return "\n".join(str(d) for d in self.decisions)


class DynamicEvaluator:
    """Evaluates a single-rule flock with size-driven FILTER insertion.

    Args:
        decision_factor: filter a *new* parameter set when its
            tuples-per-assignment ratio is below
            ``decision_factor * threshold`` (the paper wants the ratio
            "somewhat below" the threshold; 1.0 reproduces the literal
            comparison with the support level).
        improvement_factor: filter an *already-seen* parameter set when
            the ratio fell below ``improvement_factor`` times the best
            ratio observed for that set.
    """

    #: Re-plan the remaining stages when the observed size of an
    #: intermediate relation is off from the stage estimate by this
    #: factor in either direction (and at least two stages remain).
    REPLAN_FACTOR = 4.0

    def __init__(
        self,
        db: Database,
        flock: QueryFlock,
        decision_factor: float = 1.0,
        improvement_factor: float = 0.5,
        guard: GuardLike = None,
        sink=None,
    ):
        if flock.is_union:
            raise PlanError("dynamic evaluation handles single-rule flocks")
        if not flock.filter.is_monotone:
            raise FilterError(
                f"dynamic filtering needs a monotone filter, got {flock.filter}"
            )
        self.db = db
        self.flock = flock
        self.guard = as_guard(guard)
        #: Optional session sink: every FILTER decision that actually
        #: filters materializes the exact survivor set of the safe
        #: subquery absorbed so far — instead of discarding it, publish
        #: it so later sessions can reuse it as a pruning bound.
        self.sink = sink
        self.rule: ConjunctiveQuery = flock.rules[0]
        assert_safe(self.rule)
        self.decision_factor = decision_factor
        self.improvement_factor = improvement_factor
        self._param_cols = set(flock.parameter_columns)
        self._conditions = iter_conditions(flock.filter)
        self._decision_threshold = self._pick_decision_threshold()
        #: Set for a one-conjunct support filter: then every FILTER
        #: counts groups and the root is a counted join.
        self._cap = flock.filter.support_cap
        self._engine = MemoryEngine(db, guard=guard, trip_site="dynamic.join")

    def _pick_decision_threshold(self) -> float:
        """The threshold the tuples-per-assignment ratio compares with:
        the support (COUNT lower-bound) conjunct when present, else the
        first conjunct's threshold."""
        for condition in self._conditions:
            if condition.is_support_condition:
                return float(condition.threshold)
        return float(self._conditions[0].threshold)

    def _condition_targets(self, columns: Sequence[str]):
        """Per-condition target columns among ``columns``, or None when
        some condition's target is not yet bound."""
        head_cols = [str(t) for t in self.rule.head_terms]
        resolved: dict = {}
        for condition in self._conditions:
            if condition.target == STAR:
                targets = head_cols
            else:
                targets = [condition.target]
            if not all(c in columns for c in targets):
                return None
            resolved[condition] = targets
        return resolved

    # ------------------------------------------------------------------

    def evaluate(
        self,
        join_order: list[int] | None = None,
        order_strategy: str = "greedy",
    ) -> FlockResult:
        """Run the dynamic strategy; returns result + :class:`DynamicTrace`
        (exposed as ``result.trace`` is the static type, so the dynamic
        trace is returned via :attr:`last_trace`).

        ``order_strategy`` selects the join order when ``join_order`` is
        not given: ``"greedy"`` (default), ``"selinger"`` (the [G*79]
        DP orderer — the paper: "Any of a number of models and
        approaches to selecting this join order may be used, our idea is
        independent of how the join order is actually chosen"), or
        ``"ues"`` (the pessimistic bound-minimal order).  With no
        explicit ``join_order``, the remaining stages may be re-planned
        mid-flight when observed sizes diverge from the estimates (or
        from the guaranteed bounds, whichever is tighter).
        """
        started = time.perf_counter()
        trace = DynamicTrace()
        positives = self.rule.positive_atoms()
        if not positives:
            raise PlanError("flock query has no positive subgoals")
        plan = lower_rule(
            self.db,
            self.rule,
            join_order=join_order,
            order_strategy=order_strategy,
        )
        # Body indices per subgoal, so each FILTER decision knows the
        # exact safe subquery it materialized (for the session cache).
        positive_body_idx = [
            i for i, sg in enumerate(self.rule.body)
            if isinstance(sg, RelationalAtom) and not sg.negated
        ]
        absorbed: set[int] = set()
        best_ratio_per_set: dict[frozenset[str], float] = {}

        current: Relation | None = None
        temp_counter = 0
        position = 0
        while True:
            stage = plan.stages[position]
            atom = stage.scan.atom
            leaf = self._engine.scan_atom(atom)
            leaf_name = str(atom)
            atom_idx = plan.order[position]
            # Leaf-level decision (the Fig. 8 leaves: okS on exhibits).
            leaf = self._maybe_filter(
                leaf, leaf_name, trace, best_ratio_per_set, force=False,
                subquery_indices=(positive_body_idx[atom_idx],),
            )
            join_name = f"temp{temp_counter}"
            if current is not None:
                trace.plan_lines.append(
                    f"{join_name}({', '.join(stage.columns)}) := "
                    f"JOIN with {leaf_name}"
                )
            if position == len(plan.stages) - 1:
                break
            if current is not None:
                temp_counter += 1
            current = self._engine.run_stage(
                current, stage, leaf=leaf, join_name=join_name
            )
            absorbed.add(positive_body_idx[atom_idx])
            for op in stage.filters:
                body_index = self._filter_body_index(op)
                if body_index is not None:
                    absorbed.add(body_index)
            if current.name.startswith("temp"):
                current = self._maybe_filter(
                    current,
                    current.name,
                    trace,
                    best_ratio_per_set,
                    force=False,
                    subquery_indices=tuple(sorted(absorbed)),
                )
            if join_order is None:
                plan = self._maybe_replan(
                    plan, position, stage, current, trace
                )
            position += 1

        # The root: "We must filter at the root, simply because that
        # filtering is necessary to find the answer to the query flock."
        # It joins the last stage itself (no unit filters remain: every
        # subgoal attaches to the stage that binds it).
        result = self._final_filter(current, stage, leaf, trace)
        trace.seconds = time.perf_counter() - started
        self.last_trace = trace
        if self.guard is not None:
            self.guard.check_answer(len(result))
        return FlockResult(
            result,
            stage_rows=tuple(self._engine.stage_log),
            runtime_filter_rows_pruned=self._engine.rows_pruned,
        )

    # ------------------------------------------------------------------

    def _filter_body_index(self, op) -> int | None:
        """The body index of a stage filter's subgoal (comparison or
        negated atom), for safe-subquery bookkeeping."""
        subgoal = op.comparison if isinstance(op, CompareFilter) else op.atom
        for i, sg in enumerate(self.rule.body):
            if sg is subgoal:
                return i
        for i, sg in enumerate(self.rule.body):
            if sg == subgoal:
                return i
        return None

    def _maybe_replan(
        self,
        plan: PhysicalPlan,
        position: int,
        stage: JoinStage,
        current: Relation,
        trace: DynamicTrace,
    ) -> PhysicalPlan:
        """Swap in a re-lowered plan suffix when the observed size of
        the running result diverges from the stage's estimate.

        The executed prefix is kept (its stages and filter placements
        are deterministic given the order prefix, so the re-lowered plan
        agrees with what already ran); only the remaining join order
        changes, re-ordered greedily from the *observed* size.
        """
        if len(plan.stages) - position - 1 < 2:
            return plan
        # Compare the observation against the tighter of the System-R
        # estimate and the guaranteed UES bound: an in-flight filter (or
        # a runtime scan filter) that proved far more selective than the
        # bound is exactly the signal the remaining order should exploit.
        reference = float(stage.estimate)
        if stage.bound is not None:
            reference = min(reference, float(stage.bound))
        estimate = max(reference, 1.0)
        observed = float(max(len(current), 1))
        if max(observed / estimate, estimate / observed) < self.REPLAN_FACTOR:
            return plan
        positives = self.rule.positive_atoms()
        prefix = list(plan.order[: position + 1])
        new_order = complete_order(self.db, positives, prefix, len(current))
        if new_order == list(plan.order):
            return plan
        trace.plan_lines.append(
            f"replan: join order {list(plan.order)} -> {new_order} "
            f"(observed {len(current)} vs ~{estimate:.0f} tuples)"
        )
        return lower_rule(self.db, self.rule, join_order=new_order)

    def _maybe_filter(
        self,
        relation: Relation,
        node: str,
        trace: DynamicTrace,
        best_ratio_per_set: dict[frozenset[str], float],
        force: bool,
        subquery_indices: tuple[int, ...] = (),
    ) -> Relation:
        params = tuple(c for c in relation.columns if c in self._param_cols)
        targets = self._condition_targets(relation.columns)
        if not params or targets is None:
            return relation

        # A support filter counts each assignment's tuples once: the
        # Counter's size is the assignment count, its values decide.
        counts: Counter | None = None
        if self._cap is not None:
            (target,) = targets.values()
            counts = relation_group_counts(relation, params, target)
            assignments = len(counts)
        else:
            assignments = len(relation.project(list(params)))
        ratio = len(relation) / assignments if assignments else 0.0
        key = frozenset(params)
        threshold = self._decision_threshold

        seen_before = key in best_ratio_per_set
        if not seen_before:
            should = force or ratio < threshold * self.decision_factor
            reason = (
                f"new parameter set; ratio {ratio:.2f} "
                f"{'<' if should else '>='} {threshold * self.decision_factor:.2f}"
            )
        else:
            previous = best_ratio_per_set[key]
            should = force or ratio < previous * self.improvement_factor
            reason = (
                f"seen before (best ratio {previous:.2f}); ratio {ratio:.2f} "
                f"{'dropped enough' if should else 'not significantly lower'}"
            )
        best_ratio_per_set[key] = min(ratio, best_ratio_per_set.get(key, ratio))

        if not should:
            trace.decisions.append(
                DynamicDecision(node, params, ratio, False, reason,
                                len(relation), len(relation))
            )
            return relation

        if subquery_indices:
            self._certify_decision(node, subquery_indices, trace)
        filter_started = time.perf_counter()
        filtered, ok = self._filter_relation(relation, params, targets, counts)
        if self.sink is not None and subquery_indices:
            # The survivors are exact for the safe subquery made of the
            # subgoals absorbed so far (earlier in-flight filters only
            # removed assignments that provably fail here too, by
            # monotonicity) — publish them for cross-query reuse.
            subquery = self.rule.with_body_subset(sorted(subquery_indices))
            self.sink.publish_step(subquery, list(params), ok, len(relation))
        trace.decisions.append(
            DynamicDecision(node, params, ratio, True, reason,
                            len(relation), len(filtered))
        )
        trace.plan_lines.append(
            f"{node} := FILTER(({', '.join(params)}), "
            f"{self.flock.filter})"
        )
        if self.guard is not None:
            self.guard.note_step(
                name=f"filter:{node}",
                description=f"FILTER({self.flock.filter})",
                input_tuples=len(relation),
                output_assignments=len(filtered),
                seconds=time.perf_counter() - filter_started,
                filtered=True,
            )
        return filtered

    def _certify_decision(
        self,
        node: str,
        subquery_indices: tuple[int, ...],
        trace: DynamicTrace,
    ) -> None:
        """Certify one in-flight FILTER when plan verification is on.

        The subgoals absorbed so far must form a safe subquery with a
        containment witness over the flock rule — the same legality
        argument a static pre-filter step carries — and the certificate
        must re-validate before the filter is allowed to prune.
        """
        if not plan_verification_enabled():
            return
        from ..analysis.certify import certify_step_bound

        certificate = certify_step_bound(
            self.rule, subquery_indices, node
        )
        report = certificate.verify()
        if not report.ok:
            details = "; ".join(str(d) for d in report.errors)
            raise PlanError(
                f"dynamic FILTER at {node} is not certified legal: {details}"
            )
        trace.certificates = trace.certificates + (certificate,)

    def _filter_relation(
        self,
        relation: Relation,
        params: tuple[str, ...],
        targets: dict,
        counts: Counter | None,
    ) -> tuple[Relation, Relation]:
        """Group by ``params``, apply the flock filter (all conjuncts),
        keep surviving rows.  Returns (filtered relation, ok-relation).
        A support filter reads survivorship off ``counts``."""
        if counts is not None and self._cap is not None:
            dictionary = relation.dictionary if relation.is_encoded else None
            ok, _ = survivor_relations(
                counts, self._cap, params, "ok", dictionary
            )
        else:
            aggregates, conditions = plan_aggregate_specs(
                self.flock.filter, lambda condition: targets[condition]
            )
            passed = self._engine.group_filter(
                relation, list(params), aggregates, conditions, name="ok"
            )
            ok = self._engine.project_unique(passed, list(params), "ok")
        return semi_join(relation, ok, name=relation.name), ok

    def _final_filter(
        self,
        current: Relation | None,
        stage: JoinStage,
        leaf: Relation,
        trace: DynamicTrace,
    ) -> Relation:
        """Join the root stage and filter it: counted for a support
        flock, else grouped from the joined relation."""
        params = list(self.flock.parameter_columns)
        targets = self._condition_targets(stage.columns)
        if targets is None:
            raise PlanError(
                "filter target column never became bound; cannot finish"
            )
        aggregates, conditions = plan_aggregate_specs(
            self.flock.filter, lambda condition: targets[condition]
        )
        passed: Relation | None
        if self._cap is not None:
            counts, size, dictionary = self._engine.count_join(
                current, stage, leaf, params, aggregates[0].target
            )
            result, passed = survivor_relations(
                counts, self._cap, params, "flock", dictionary,
                aggregates[0].column if self.sink is not None else None,
            )
        else:
            current = self._engine.run_stage(current, stage, leaf=leaf)
            passed = self._engine.group_filter(
                current, params, aggregates, conditions, name="flock"
            )
            result = self._engine.project_unique(passed, params, "flock")
            size = len(current)
        # The root filter is over the whole rule — its certificate is
        # the identity containment (Section 4.2 rule 4 in plan form).
        self._certify_decision(
            "root", tuple(range(len(self.rule.body))), trace
        )
        if self.sink is not None:
            self.sink.publish_final(passed, size)
        trace.plan_lines.append(
            f"flock({', '.join(params)}) := FILTER(({', '.join(params)}), "
            f"{self.flock.filter})"
        )
        trace.decisions.append(
            DynamicDecision(
                "root",
                tuple(params),
                0.0,
                True,
                "root filter is the flock answer",
                size,
                len(result),
            )
        )
        return result


def evaluate_flock_dynamic(
    db: Database,
    flock: QueryFlock,
    decision_factor: float = 1.0,
    improvement_factor: float = 0.5,
    join_order: list[int] | None = None,
    guard: GuardLike = None,
    sink=None,
    order_strategy: str = "greedy",
) -> tuple[FlockResult, DynamicTrace]:
    """One-call dynamic evaluation; returns (result, trace)."""
    evaluator = DynamicEvaluator(
        db, flock, decision_factor=decision_factor,
        improvement_factor=improvement_factor, guard=guard, sink=sink,
    )
    result = evaluator.evaluate(
        join_order=join_order, order_strategy=order_strategy
    )
    return result, evaluator.last_trace
