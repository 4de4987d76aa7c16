"""Dynamic selection of filter steps (Section 4.4).

Instead of fixing the FILTER steps in advance, the dynamic strategy
runs the flock as its single-step plan through the one executor loop
(:func:`repro.flocks.executor.execute_plan`), and the in-memory step
body (:meth:`repro.engine.memory.MemoryEngine.run_step`) consults a
:class:`DynamicEvaluator` as it interprets the lowered rule's stages:
the evaluator *watches the sizes of intermediate relations* and decides
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
  answer, and it is the step's own group-by over the last join's index
  pairs.

Leaves equal up to renaming (the pair flock's ``baskets(B,$1)`` and
``baskets(B,$2)``) are grouped once per run, and a FILTER run for one
is relabelled for the next, sharing its code columns, so the bitmap
body builds one bitmap set for both.  Each node still gets its own
decision, log line, certificate and trace row.

The join order is decided once, when the step is lowered: the UES
bound order every plan takes, or an explicit ``join_order``.  The
policy decides only where FILTERs go, never which join runs next.

A filter step is sound here for the same reason as in the static case:
the subgoals joined so far form a safe subquery of the flock query (the
evaluator only offers the decision when they bind every head variable,
the rule :func:`repro.datalog.subqueries.safe_subqueries` candidates
obey), so its per-assignment answer set is a superset of the full
query's and a monotone filter that fails on it fails on the whole flock.

The evaluator returns the flock result, a decision log, and a rendered
plan in the Fig. 9 style showing which joins and FILTERs actually ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..analysis.verification import plan_verification_enabled
from ..datalog.query import ConjunctiveQuery
from ..datalog.safety import assert_safe
from ..datalog.terms import Constant, is_bindable
from ..engine.ir import CompareFilter, PhysicalPlan, StepPlan
from ..engine.memory import MemoryEngine, MemoryRunner
from ..engine.planner import lower_rule
from ..errors import FilterError, PlanError
from ..guard import GuardLike, as_guard
from ..relational.aggregates import relation_group_values, survivor_relations
from ..relational.catalog import Database
from ..relational.operators import semi_join
from ..relational.relation import Relation
from ..testing.faults import trip
from .executor import execute_plan
from .filters import STAR, iter_conditions
from .flock import QueryFlock
from .plans import single_step_plan
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
    """The size-driven FILTER policy for a single-rule flock.

    :meth:`evaluate` runs the flock; the other public methods are the
    decision hooks :meth:`MemoryEngine.run_step
    <repro.engine.memory.MemoryEngine.run_step>` calls (``begin``,
    ``leaf``, ``joined``, ``root``).  :attr:`last_trace` is
    the decision log of the last step run.

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
        # The loop lowers every run on a scratch overlay, which copies
        # only the statistics the catalog has cached: compute them on
        # the catalog, so later runs reuse them.
        for atom in self.rule.positive_atoms():
            db.stats(atom.predicate)
        self.decision_factor = decision_factor
        self.improvement_factor = improvement_factor
        self._param_cols = set(flock.parameter_columns)
        conditions = iter_conditions(flock.filter)
        head = [str(t) for t in self.rule.head_terms]
        #: Each condition's target columns, and every column an
        #: in-flight FILTER needs bound: the targets and each head
        #: variable — only then is the subquery joined so far safe.
        self._targets = {
            c: head if c.target == STAR else [c.target] for c in conditions
        }
        self._needed = {str(t) for t in self.rule.head_terms if is_bindable(t)}
        self._needed.update(c for cols in self._targets.values() for c in cols)
        #: The ratio compares with the support (COUNT lower-bound)
        #: conjunct when present, else with the first conjunct.
        self._decision_threshold = float(next(
            (c for c in conditions if c.is_support_condition), conditions[0]
        ).threshold)
        self._conditions = conditions
        self._join_order: list[int] | None = None
        self._best_ratio: dict[frozenset[str], float] = {}
        #: Per run: leaf key -> [labels, groups, (ok, filtered) or None].
        self._leaves: dict[tuple, list] = {}
        self.last_trace = DynamicTrace()

    # ------------------------------------------------------------------

    def evaluate(self, join_order: list[int] | None = None) -> FlockResult:
        """Run the dynamic strategy; returns the flock result (the
        :class:`DynamicTrace` is :attr:`last_trace`).

        The flock runs as its single-step plan through the executor
        loop, on a serial :class:`MemoryRunner` that hands this policy
        to the step body.  The join order is ``join_order`` when given,
        else the UES bound order every plan takes — the paper: "Any of
        a number of models and approaches to selecting this join order
        may be used, our idea is independent of how the join order is
        actually chosen".  The order is fixed for the whole run.
        """
        self._join_order = join_order
        result = execute_plan(
            self.db, self.flock, single_step_plan(self.flock),
            validate=False, guard=self.guard, sink=self.sink,
            runner=MemoryRunner(self.guard, dynamic=self),
        )
        self.last_trace.seconds = result.trace.total_seconds
        return result

    # -- decision hooks (called by MemoryEngine.run_step) ---------------

    def begin(self, step: StepPlan) -> StepPlan:
        """A step starts (again, after a retry): a fresh trace, and an
        explicit join order applied by re-lowering the branch."""
        self.last_trace = DynamicTrace()
        self._best_ratio = {}
        self._leaves = {}
        if self._join_order is None:
            return step
        branch = self._relower(step.branches[0], self._join_order)
        return replace(step, branches=(branch,))

    def leaf(
        self, engine: MemoryEngine, branch: PhysicalPlan, position: int
    ) -> Relation:
        """Stage ``position``'s binding relation, FILTERed when that
        pays (the Fig. 8 leaves: okS on exhibits)."""
        trip("dynamic.join")
        stage = branch.stages[position]
        atom = stage.scan.atom
        leaf = self._maybe_filter(
            engine, engine.scan_atom(atom), str(atom),
            self._body_indices(branch, [atom]), self._leaf_key(atom),
        )
        if position:
            self.last_trace.plan_lines.append(
                f"temp{position - 1}({', '.join(stage.columns)}) := "
                f"JOIN with {atom}"
            )
        return leaf

    def joined(
        self,
        engine: MemoryEngine,
        branch: PhysicalPlan,
        position: int,
        current: Relation,
    ) -> Relation:
        """After stage ``position``: its join result, FILTERed when that
        pays (not after the first stage, whose leaf was offered, nor the
        last, whose result the step's own root FILTER takes)."""
        if not 0 < position < len(branch.stages) - 1:
            return current
        stages = branch.stages[: position + 1]
        absorbed = [s.scan.atom for s in stages] + [
            op.comparison if isinstance(op, CompareFilter) else op.atom
            for s in stages
            for op in s.filters
        ]
        return self._maybe_filter(
            engine, current, f"temp{position - 1}",
            self._body_indices(branch, absorbed),
        )

    def root(self, rows: int, survivors: int) -> None:
        """Log the root FILTER ("We must filter at the root, simply
        because that filtering is necessary to find the answer to the
        query flock") and certify it: the identity containment, Section
        4.2 rule 4 in plan form."""
        self._certify_decision("root", tuple(range(len(self.rule.body))))
        params = tuple(self.flock.parameter_columns)
        self.last_trace.plan_lines.append(
            f"flock({', '.join(params)}) := FILTER(({', '.join(params)}), "
            f"{self.flock.filter})"
        )
        self.last_trace.decisions.append(
            DynamicDecision(
                "root", params, 0.0, True,
                "root filter is the flock answer", rows, survivors,
            )
        )

    # ------------------------------------------------------------------

    def _relower(self, branch: PhysicalPlan, order: list[int]) -> PhysicalPlan:
        """``branch`` lowered again in join order ``order``, under its
        own Materialize root."""
        return lower_rule(
            self.db, branch.query, branch.root.output_terms,
            branch.root.columns, join_order=order,
        )

    @staticmethod
    def _body_indices(branch: PhysicalPlan, subgoals) -> tuple[int, ...]:
        """Body positions of ``subgoals`` (the plan carries the rule's
        own subgoal objects), for safe-subquery bookkeeping."""
        return tuple(
            i for i, sg in enumerate(branch.query.body)
            if any(sg is s for s in subgoals)
        )

    def _maybe_filter(
        self,
        engine: MemoryEngine,
        relation: Relation,
        node: str,
        subquery_indices: tuple[int, ...],
        key: tuple = (),
    ) -> Relation:
        params = tuple(c for c in relation.columns if c in self._param_cols)
        if not params or not self._needed.issubset(relation.columns):
            return relation

        # Group once: the groups are the assignments, and the same
        # per-conjunct values pick the survivors if the FILTER runs.  A
        # leaf with an earlier leaf's ``key`` reuses its groups, and its
        # FILTER's relations relabelled (sharing their code columns).
        memo = self._leaves.get(key) or [relation.columns, [
            relation_group_values(relation, params, c.aggregate, self._targets[c])
            for c in self._conditions
        ], None]
        if key:
            self._leaves[key] = memo
        labels, values, ran = memo
        assignments = len(values[0])
        ratio = len(relation) / assignments if assignments else 0.0
        should, reason = self._decide(frozenset(params), ratio)

        filtered = relation
        if should:
            self._certify_decision(node, subquery_indices)
            started = time.perf_counter()
            if ran is None:
                ok, _ = survivor_relations(
                    values, self._conditions, params, "ok", engine.db.dictionary
                )
                ran = memo[2] = (ok, semi_join(relation, ok, name=relation.name))
            names = dict(zip(labels, relation.columns))
            ok, filtered = ran[0].rename(names), ran[1].rename(names, relation.name)
            if self.sink is not None:
                # The survivors are exact for the safe subquery made of
                # the subgoals absorbed so far (earlier in-flight filters
                # only removed assignments that provably fail here too,
                # by monotonicity) — publish them for cross-query reuse.
                subquery = self.rule.with_body_subset(subquery_indices)
                self.sink.publish_step(subquery, list(params), ok, len(relation))
            self.last_trace.plan_lines.append(
                f"{node} := FILTER(({', '.join(params)}), {self.flock.filter})"
            )
            if self.guard is not None:
                self.guard.note_step(
                    name=f"filter:{node}",
                    description=f"FILTER({self.flock.filter})",
                    input_tuples=len(relation),
                    output_assignments=len(filtered),
                    seconds=time.perf_counter() - started,
                    filtered=True,
                )
        self.last_trace.decisions.append(
            DynamicDecision(node, params, ratio, should, reason,
                            len(relation), len(filtered))
        )
        return filtered

    def _leaf_key(self, atom) -> tuple:
        """``atom`` up to renaming: per term a constant, a column the
        FILTER reads by name, else (is a parameter, first position).
        Equal keys: one binding relation, other labels, equal groups."""
        first: dict[str, int] = {}
        return atom.predicate, tuple(
            ("=", t.value) if isinstance(t, Constant) else str(t)
            if str(t) in self._needed
            else (str(t) in self._param_cols, first.setdefault(str(t), len(first)))
            for t in atom.terms
        )

    def _decide(self, key: frozenset[str], ratio: float) -> tuple[bool, str]:
        """Whether to FILTER a node of parameter set ``key``, and why."""
        previous = self._best_ratio.get(key)
        if previous is None:
            limit = self._decision_threshold * self.decision_factor
            should = ratio < limit
            reason = (
                f"new parameter set; ratio {ratio:.2f} "
                f"{'<' if should else '>='} {limit:.2f}"
            )
        else:
            should = ratio < previous * self.improvement_factor
            reason = (
                f"seen before (best ratio {previous:.2f}); ratio {ratio:.2f} "
                f"{'dropped enough' if should else 'not significantly lower'}"
            )
        self._best_ratio[key] = min(ratio, ratio if previous is None else previous)
        return should, reason

    def _certify_decision(
        self, node: str, subquery_indices: tuple[int, ...]
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

        certificate = certify_step_bound(self.rule, subquery_indices, node)
        report = certificate.verify()
        if not report.ok:
            details = "; ".join(str(d) for d in report.errors)
            raise PlanError(
                f"dynamic FILTER at {node} is not certified legal: {details}"
            )
        self.last_trace.certificates += (certificate,)


def evaluate_flock_dynamic(
    db: Database,
    flock: QueryFlock,
    decision_factor: float = 1.0,
    improvement_factor: float = 0.5,
    join_order: list[int] | None = None,
    guard: GuardLike = None,
    sink=None,
) -> tuple[FlockResult, DynamicTrace]:
    """One-call dynamic evaluation; returns (result, trace)."""
    evaluator = DynamicEvaluator(
        db, flock, decision_factor=decision_factor,
        improvement_factor=improvement_factor, guard=guard, sink=sink,
    )
    result = evaluator.evaluate(join_order=join_order)
    return result, evaluator.last_trace
