"""Static plan search for query flocks (Section 4.3).

The plan space of Section 4.2 is not even exponentially bounded, so the
paper proposes heuristics that restrict it.  This module implements
**heuristic 1**: choose some sets of parameters S, for each a safe
subquery mentioning exactly S, turn each into an independent pre-filter
step, and finish with the original query plus all the ok-atoms (the
Fig. 5 shape).  (**Heuristic 2** — chained level-wise steps — is built
by :func:`repro.flocks.plans.chained_plan` and specialized to classic
a-priori in :mod:`repro.flocks.apriori`.)

Costing uses textbook independence estimates plus one flock-specific
bound: by pigeonhole, at most ``|answer| / threshold`` parameter
assignments can reach a COUNT threshold, so a pre-filter step's output
is estimated as ``min(distinct assignments, answer_size / threshold)``.
That single line is why skewed data makes a-priori effective: the more
tuples concentrate on few assignments, the smaller the surviving set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..errors import FilterError, PlanError
from ..datalog.atoms import Comparison, RelationalAtom
from ..datalog.query import ConjunctiveQuery, as_union
from ..datalog.subqueries import (
    SubqueryCandidate,
    parameter_subsets,
    safe_subqueries_with_parameters,
)
from ..datalog.terms import Parameter, Variable
from ..guard import GuardLike, as_guard
from ..relational.catalog import Database
from ..testing.faults import trip
from .flock import QueryFlock
from .plans import QueryPlan, plan_from_subqueries, single_step_plan

if TYPE_CHECKING:
    from ..analysis.certify import LegalityCertificate


#: Default selectivity guesses for non-relational subgoals, in the
#: tradition of System R's magic numbers.
COMPARISON_SELECTIVITY = 0.5
NEGATION_SELECTIVITY = 0.5


@dataclass(frozen=True)
class _RelationEstimate:
    """Cardinality + per-column distinct estimates for a (possibly
    not-yet-materialized) relation."""

    cardinality: float
    distinct: dict[str, float]

    def distinct_count(self, column: str) -> float:
        return self.distinct.get(column, 1.0)


def _base_estimate(db: Database, name: str) -> _RelationEstimate:
    stats = db.stats(name)
    return _RelationEstimate(
        float(stats.cardinality),
        {c: float(d) for c, d in stats.distinct.items()},
    )


def estimate_rule_size(
    db: Database,
    rule: ConjunctiveQuery,
    overrides: dict[str, _RelationEstimate] | None = None,
) -> float:
    """Independence estimate of the rule's join size (before projection).

    ``size = Π |R_i| / Π_v d_v^(occ(v)-1)`` where for each variable or
    parameter ``v`` occurring in ``occ(v)`` positive subgoals, ``d_v`` is
    the largest distinct-count among the columns it occupies.  Negated
    and arithmetic subgoals contribute fixed selectivities.
    """
    overrides = overrides or {}
    size = 1.0
    occurrences: dict[object, int] = {}
    max_distinct: dict[object, float] = {}

    for sg in rule.body:
        if isinstance(sg, RelationalAtom) and not sg.negated:
            est = overrides.get(sg.predicate) or _base_estimate(db, sg.predicate)
            size *= max(est.cardinality, 1.0)
            # Map subgoal positions to columns for distinct counts.
            base_columns: Sequence[str]
            if sg.predicate in overrides:
                base_columns = list(overrides[sg.predicate].distinct)
            else:
                base_columns = db.get(sg.predicate).columns
            for position, term in enumerate(sg.terms):
                if isinstance(term, (Parameter, Variable)):
                    occurrences[term] = occurrences.get(term, 0) + 1
                    if position < len(base_columns):
                        column = base_columns[position]
                        d = est.distinct_count(column)
                    else:
                        d = est.cardinality
                    max_distinct[term] = max(max_distinct.get(term, 1.0), d)
        elif isinstance(sg, RelationalAtom) and sg.negated:
            size *= NEGATION_SELECTIVITY
        elif isinstance(sg, Comparison):
            size *= COMPARISON_SELECTIVITY

    for term, occ in occurrences.items():
        if occ > 1:
            size /= max(max_distinct[term], 1.0) ** (occ - 1)
    return size


@dataclass(frozen=True)
class ScoredPlan:
    """A plan with its estimated total intermediate-tuple cost and (for
    a plan that won the search) its legality certificate."""

    plan: QueryPlan
    estimated_cost: float
    step_costs: tuple[tuple[str, float], ...]
    certificate: Optional["LegalityCertificate"] = None

    def __str__(self) -> str:
        steps = ", ".join(f"{n}≈{c:,.0f}" for n, c in self.step_costs)
        return f"plan[{len(self.plan)} steps] cost≈{self.estimated_cost:,.0f} ({steps})"


class FlockOptimizer:
    """Enumerates and scores Fig. 5-shaped plans for one flock.

    Args:
        db: the database (statistics source).
        flock: the flock to optimize; its filter must be monotone.
        candidates_per_set: how many cheapest safe subqueries to keep
            per parameter set (Example 3.2 shows several can coexist).
        max_param_set_size: cap on |S| for restriction sets; defaults to
            all sizes.
    """

    def __init__(
        self,
        db: Database,
        flock: QueryFlock,
        candidates_per_set: int = 2,
        max_param_set_size: int | None = None,
        guard: GuardLike = None,
    ):
        if not flock.filter.is_monotone:
            raise FilterError(
                "cannot build a-priori plans for non-monotone filter "
                f"{flock.filter}"
            )
        if flock.is_union:
            raise PlanError(
                "FlockOptimizer handles single-rule flocks; use "
                "union_subqueries_with_parameters + plan_from_subqueries "
                "for unions"
            )
        self.db = db
        self.flock = flock
        self.guard = as_guard(guard)
        self.candidates_per_set = candidates_per_set
        self.max_param_set_size = max_param_set_size
        self._rule = flock.rules[0]

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------

    def candidate_steps(self) -> list[tuple[str, SubqueryCandidate]]:
        """The pre-filter candidate pool: for every parameter set S, the
        cheapest few *proper* safe subqueries mentioning exactly S."""
        pool: list[tuple[str, SubqueryCandidate]] = []
        counter = 0
        for subset in parameter_subsets(
            self._rule, max_size=self.max_param_set_size
        ):
            candidates = safe_subqueries_with_parameters(self._rule, subset)
            candidates.sort(key=lambda c: (self.estimate_step_cost(c), c.subgoal_count))
            for candidate in candidates[: self.candidates_per_set]:
                name = f"ok{counter}"
                counter += 1
                pool.append((name, candidate))
        return pool

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def estimate_step_cost(self, candidate: SubqueryCandidate) -> float:
        """Join work to evaluate one pre-filter subquery."""
        return estimate_rule_size(self.db, candidate.query)

    def estimate_ok_assignments(self, candidate: SubqueryCandidate) -> float:
        """Estimated output size of a pre-filter step: the pigeonhole
        bound (see module doc)."""
        answer_size = self.estimate_step_cost(candidate)
        domain = self._domain_size(candidate.parameters)
        threshold = self._pruning_threshold()
        if threshold <= 0:
            return domain
        return max(0.0, min(domain, answer_size / threshold))

    def _pruning_threshold(self) -> float:
        """The COUNT lower bound driving the pigeonhole estimate — for a
        composite filter, the strongest (largest) support conjunct; 0
        when no COUNT bound exists (no pigeonhole pruning estimate)."""
        from .filters import iter_conditions

        thresholds = [
            float(c.threshold)
            for c in iter_conditions(self.flock.filter)
            if c.is_support_condition
        ]
        return max(thresholds) if thresholds else 0.0

    def _domain_size(self, parameters: Iterable[Parameter]) -> float:
        """Independence estimate of the number of distinct assignments."""
        total = 1.0
        for p in parameters:
            total *= self._parameter_distinct(p)
        return total

    def _parameter_distinct(self, parameter: Parameter) -> float:
        best = 1.0
        for sg in self._rule.positive_atoms():
            columns = self.db.get(sg.predicate).columns
            for position, term in enumerate(sg.terms):
                if term == parameter:
                    d = float(self.db.stats(sg.predicate).distinct_count(columns[position]))
                    best = max(best, d)
        return best

    def score(self, plan: QueryPlan) -> ScoredPlan:
        """Estimated total intermediate tuples across the plan's steps.

        Pre-filter steps cost their subquery's join size.  The final
        step costs the original join size scaled by each ok-atom's
        selectivity (surviving assignments / parameter domain).
        """
        step_costs: list[tuple[str, float]] = []
        overrides: dict[str, _RelationEstimate] = {}
        selectivity = 1.0

        for step in plan.prefilter_steps:
            rule = as_union(step.query).rules[0]
            cost = estimate_rule_size(self.db, rule, overrides)
            ok_size = self.estimate_ok_assignments(
                SubqueryCandidate((), self._strip_ok_atoms(rule, plan))
            )
            domain = self._domain_size(rule.parameters())
            if domain > 0:
                selectivity *= min(1.0, ok_size / domain)
            overrides[step.result_name] = _RelationEstimate(
                ok_size,
                {str(p): ok_size ** (1.0 / max(len(step.parameters), 1))
                 for p in step.parameters},
            )
            step_costs.append((step.result_name, cost))

        base_cost = estimate_rule_size(self.db, self._rule)
        final_cost = base_cost * selectivity
        step_costs.append((plan.final_step.result_name, final_cost))
        total = sum(c for _, c in step_costs)
        return ScoredPlan(plan, total, tuple(step_costs))

    def _strip_ok_atoms(
        self, rule: ConjunctiveQuery, plan: QueryPlan
    ) -> ConjunctiveQuery:
        names = set(plan.step_names())
        keep = [
            i
            for i, sg in enumerate(rule.body)
            if not (isinstance(sg, RelationalAtom) and sg.predicate in names)
        ]
        return rule.with_body_subset(keep)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def enumerate_plans(
        self, max_prefilters: int = 3
    ) -> list[QueryPlan]:
        """All Fig. 5-shaped plans with up to ``max_prefilters``
        independent pre-filter steps drawn from the candidate pool,
        plus the trivial single-step plan."""
        pool = self.candidate_steps()
        plans: list[QueryPlan] = [single_step_plan(self.flock)]
        for count in range(1, min(max_prefilters, len(pool)) + 1):
            for chosen in combinations(pool, count):
                plans.append(plan_from_subqueries(self.flock, list(chosen)))
        return plans

    def enumerate_chained_plans(self, max_chains: int = 8) -> list[QueryPlan]:
        """Section 4.3 heuristic 2: chains of nested safe subqueries.

        For each parameter set S, build the chain of safe subqueries
        with exactly the parameters S ordered by *growing* subgoal sets
        (each later member contains the previous one), so every level
        refines the last — the Fig. 7 pattern applied to arbitrary
        flocks.  Single-link chains duplicate heuristic 1 and are
        skipped.
        """
        from .plans import chained_plan

        plans: list[QueryPlan] = []
        for subset in parameter_subsets(
            self._rule, max_size=self.max_param_set_size
        ):
            candidates = safe_subqueries_with_parameters(self._rule, subset)
            candidates.sort(key=lambda c: c.subgoal_count)
            # A chain = a maximal ⊆-increasing sequence starting from a
            # minimal candidate.
            chain: list[SubqueryCandidate] = []
            for candidate in candidates:
                if not chain or set(chain[-1].indices) < set(candidate.indices):
                    chain.append(candidate)
            if len(chain) < 2:
                continue
            named = [
                (f"chain{len(plans)}_{level}", candidate)
                for level, candidate in enumerate(chain)
            ]
            plans.append(chained_plan(self.flock, named))
            if len(plans) >= max_chains:
                break
        return plans

    def best_plan(
        self, max_prefilters: int = 3, include_chains: bool = False
    ) -> ScoredPlan:
        """Exhaustively score the enumerated space; return the cheapest.

        ``include_chains=True`` adds the heuristic-2 chained plans to
        the candidate space.
        """
        plans = self.enumerate_plans(max_prefilters)
        if include_chains:
            plans.extend(self.enumerate_chained_plans())
        scored: list[ScoredPlan] = []
        for index, plan in enumerate(plans):
            trip("optimizer.search")
            if self.guard is not None:
                self.guard.checkpoint(
                    node=f"plan search {index + 1}/{len(plans)}"
                )
            scored.append(self.score(plan))
        winner = min(scored, key=lambda s: s.estimated_cost)
        return replace(
            winner, certificate=checked_certificate(self.flock, winner.plan)
        )


def checked_certificate(
    flock: QueryFlock, plan: QueryPlan
) -> "LegalityCertificate":
    """The full legality certificate of a plan about to be released.

    The plan search hands out *certified* plans, not bare ones: the
    per-step safety reports and containment witnesses are always
    computed (an illegal plan raises), and — when plan verification is
    ambient-enabled (:func:`repro.analysis.plan_verification_enabled`)
    — independently re-validated with
    :func:`repro.analysis.verify_certificate` before the plan runs.
    """
    from ..analysis.certify import certify_plan, verify_certificate
    from ..analysis.verification import plan_verification_enabled

    certificate = certify_plan(flock, plan, witnesses=True)
    certificate.raise_for_errors()
    if plan_verification_enabled():
        report = verify_certificate(certificate)
        if not report.ok:
            details = "; ".join(str(d) for d in report.errors)
            raise PlanError(
                f"plan certificate failed re-validation: {details}"
            )
    return certificate


def certified_plan(
    db: Database,
    flock: QueryFlock,
    guard: GuardLike = None,
) -> tuple[QueryPlan, "LegalityCertificate"]:
    """The static plan producer of the ``optimized`` strategy and the
    CLI: the cheapest plan for ``flock`` (a union flock's through
    :func:`optimize_union`) with its :func:`checked_certificate`."""
    if flock.is_union:
        plan = optimize_union(db, flock, guard=guard)
        return plan, checked_certificate(flock, plan)
    scored = FlockOptimizer(db, flock, guard=guard).best_plan()
    assert scored.certificate is not None
    return scored.plan, scored.certificate


def optimize(
    db: Database, flock: QueryFlock, max_prefilters: int = 3
) -> QueryPlan:
    """One-call static optimization: the cheapest Fig. 5-shaped plan."""
    return FlockOptimizer(db, flock).best_plan(max_prefilters).plan


def optimize_union(
    db: Database,
    flock: QueryFlock,
    max_param_set_size: int = 1,
    benefit_factor: float = 0.75,
    max_bounds: int = 2,
    guard: GuardLike = None,
) -> QueryPlan:
    """Static optimization for **union** flocks (Section 3.4).

    For each parameter subset (default: singletons, the Example 3.3
    shape) take the cheapest union bound — one minimal safe subquery per
    branch.  A bound is kept when evaluating it is estimated to cost
    less than ``benefit_factor`` times the full union (the pigeonhole
    saving estimate is loose for unions, so a cost-dominance test is
    used); at most ``max_bounds`` cheapest bounds are kept.  Falls back
    to the single-step plan when no bound pays.
    """
    from ..datalog.subqueries import union_subqueries_with_parameters
    from ..datalog.query import UnionQuery

    if not isinstance(flock.query, UnionQuery):
        raise PlanError("optimize_union expects a union flock")
    if not flock.filter.is_monotone:
        raise FilterError(
            "cannot build a-priori plans for non-monotone filter "
            f"{flock.filter}"
        )

    guard = as_guard(guard)
    union = flock.query
    base_cost = sum(estimate_rule_size(db, rule) for rule in union.rules)
    scored_bounds: list[tuple[float, object]] = []
    for subset in parameter_subsets(union, max_size=max_param_set_size):
        trip("optimizer.search")
        if guard is not None:
            guard.checkpoint(node="union plan search")
        bounds = union_subqueries_with_parameters(union, subset, max_candidates=4)
        if not bounds:
            continue
        best = min(
            bounds,
            key=lambda b: sum(
                estimate_rule_size(db, branch.query) for branch in b.branches
            ),
        )
        bound_cost = sum(
            estimate_rule_size(db, branch.query) for branch in best.branches
        )
        if bound_cost < base_cost * benefit_factor:
            scored_bounds.append((bound_cost, best))

    scored_bounds.sort(key=lambda pair: pair[0])
    chosen = [
        (f"okU{i}", bound)
        for i, (_cost, bound) in enumerate(scored_bounds[:max_bounds])
    ]
    if not chosen:
        return single_step_plan(flock)
    return plan_from_subqueries(flock, chosen)
