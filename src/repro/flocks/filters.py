"""Filter conditions for query flocks (Sections 2.1 and 5).

A filter is "a condition about the result of the query" for one
parameter assignment — in the paper always an aggregate comparison such
as ``COUNT(answer.P) >= 20`` (a *support* condition) or, in the
future-work section, ``SUM(answer.W) >= 20`` for weighted baskets.

The a-priori generalization is sound exactly for **monotone** filters:
"if the condition is true for a given set then it must also be true for
any superset of the original set".  A safe subquery's result (per
assignment) is a superset of the full query's result, so an assignment
that *fails* the filter on the subquery can never pass it on the full
query.  :attr:`FilterCondition.is_monotone` classifies each supported
(aggregate, comparison) combination; the optimizer refuses to build
pruning plans for non-monotone filters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from ..errors import EvaluationError, FilterError, ParseError
from ..datalog.atoms import ComparisonOp
from ..relational.aggregates import AggregateFunction
from ..relational.relation import Relation


#: The target column marker for "count whole answer tuples" —
#: the paper's ``COUNT(answer(*))`` in Fig. 4.
STAR = "*"


@dataclass(frozen=True)
class FilterCondition:
    """An aggregate threshold over the answer relation of one assignment.

    Attributes:
        aggregate: COUNT, SUM, MIN or MAX.
        relation_name: the head predicate the filter refers to
            (``answer`` in all the paper's examples).
        target: the answer column aggregated — a head-variable name, or
            :data:`STAR` for whole tuples (only meaningful for COUNT).
        op: the comparison against the threshold.
        threshold: the constant bound (the support level).
        assume_nonnegative: SUM is monotone only over non-negative
            values; the caller asserts this domain knowledge (true for
            the paper's weights: purchase totals, web hits).
    """

    aggregate: AggregateFunction
    relation_name: str
    target: str
    op: ComparisonOp
    threshold: Union[int, float]
    assume_nonnegative: bool = True

    def __post_init__(self) -> None:
        if self.aggregate is not AggregateFunction.COUNT and self.target == STAR:
            raise FilterError(
                f"{self.aggregate.value}(*) is not defined; name a column"
            )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def passes(self, value: Union[int, float]) -> bool:
        """Test one aggregate value against the threshold."""
        return self.op.fn(value, self.threshold)

    def passing_keys(self, items: Iterable[tuple]) -> list:
        """The keys of the ``(key, aggregate value)`` pairs that pass.

        The batch form of :meth:`passes`: the comparison is inlined per
        operator so a scan over every group costs one comprehension
        instead of a method call per group — the threshold test of
        :func:`~repro.relational.aggregates.survivor_relations`.
        """
        t = self.threshold
        op = self.op
        try:
            if op is ComparisonOp.GE:
                return [k for k, v in items if v >= t]
            if op is ComparisonOp.GT:
                return [k for k, v in items if v > t]
            if op is ComparisonOp.LE:
                return [k for k, v in items if v <= t]
            if op is ComparisonOp.LT:
                return [k for k, v in items if v < t]
            if op is ComparisonOp.EQ:
                return [k for k, v in items if v == t]
            if op is ComparisonOp.NE:
                return [k for k, v in items if v != t]
            fn = op.fn
            return [k for k, v in items if fn(v, t)]
        except TypeError as error:
            # A value the threshold cannot be ordered against (MAX of a
            # text column vs a number).
            raise EvaluationError(f"cannot evaluate {self}: {error}") from None

    def test_relation(self, answer: Relation) -> bool:
        """Test the filter against one answer relation (the result of the
        instantiated query for a single parameter assignment) — the
        reference semantics of Section 2."""
        if self.aggregate is AggregateFunction.COUNT:
            if self.target == STAR:
                value: Union[int, float] = len(answer)
            else:
                value = answer.distinct_count(self.target)
            return self.passes(value)
        # One value per distinct answer row (set semantics), computed
        # here rather than by the engine's aggregation kernel.
        values = answer.columns_data()[answer.column_position(self.target)]
        if not values:
            # SQL: SUM/MIN/MAX of no rows is NULL; NULL compares false.
            return False
        fold = {
            AggregateFunction.SUM: sum,
            AggregateFunction.MIN: min,
            AggregateFunction.MAX: max,
        }[self.aggregate]
        return self.passes(fold(values))

    # ------------------------------------------------------------------
    # Monotonicity (Section 5)
    # ------------------------------------------------------------------

    @property
    def is_monotone(self) -> bool:
        """Whether the condition is preserved under supersets.

        * ``COUNT >= t`` / ``COUNT > t`` — more tuples, never a smaller
          count: monotone.
        * ``SUM >= t`` (non-negative values) — adding tuples can only
          grow the sum: monotone, but only under the non-negativity
          assumption.
        * ``MAX >= t`` / ``MAX > t`` — a superset's max is no smaller:
          monotone.
        * ``MIN <= t`` / ``MIN < t`` — a superset's min is no larger:
          monotone.
        * Everything else (upper bounds on COUNT/SUM/MAX, lower bounds
          on MIN, equalities) is not monotone; a-priori pruning would be
          unsound.
        """
        lower_bound = self.op in (ComparisonOp.GE, ComparisonOp.GT)
        upper_bound = self.op in (ComparisonOp.LE, ComparisonOp.LT)
        if self.aggregate is AggregateFunction.COUNT:
            return lower_bound
        if self.aggregate is AggregateFunction.SUM:
            return lower_bound and self.assume_nonnegative
        if self.aggregate is AggregateFunction.MAX:
            return lower_bound
        if self.aggregate is AggregateFunction.MIN:
            return upper_bound
        return False

    @property
    def is_support_condition(self) -> bool:
        """A *support-type* filter: lower bound on COUNT — the class the
        Section 4.2 plan-legality rule treats ("First, we treat only
        filters that involve support")."""
        return self.aggregate is AggregateFunction.COUNT and self.op in (
            ComparisonOp.GE,
            ComparisonOp.GT,
        )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if self.target == STAR:
            inner = f"{self.relation_name}(*)"
        else:
            inner = f"{self.relation_name}.{self.target}"
        return (
            f"{self.aggregate.value}({inner}) {self.op.value} {self.threshold}"
        )


_FILTER_RE = re.compile(
    r"""^\s*
    (?P<agg>[A-Za-z]+)\s*\(\s*
        (?P<rel>[A-Za-z_][A-Za-z0-9_]*)\s*
        (?: \.\s*(?P<col>[A-Za-z_][A-Za-z0-9_]*) | \(\s*\*\s*\) )
    \s*\)\s*
    (?P<op><=|>=|!=|<>|==|<|>|=)\s*
    (?P<thr>-?\d+(?:\.\d+)?)
    \s*$""",
    re.VERBOSE,
)

_FLIPPED_RE = re.compile(
    r"""^\s*
    (?P<thr>-?\d+(?:\.\d+)?)\s*
    (?P<op><=|>=|!=|<>|==|<|>|=)\s*
    (?P<agg>[A-Za-z]+)\s*\(\s*
        (?P<rel>[A-Za-z_][A-Za-z0-9_]*)\s*
        (?: \.\s*(?P<col>[A-Za-z_][A-Za-z0-9_]*) | \(\s*\*\s*\) )
    \s*\)
    \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class CompositeFilter:
    """A conjunction of filter conditions (all must pass).

    Section 5 extends the techniques to "any monotone filter condition";
    a conjunction of monotone conditions is itself monotone (if every
    conjunct survives on a set, every conjunct survives on a superset),
    so a-priori pre-filtering remains sound.  All conditions must refer
    to the same answer relation.
    """

    conditions: tuple[FilterCondition, ...]

    def __post_init__(self) -> None:
        if len(self.conditions) < 2:
            raise FilterError(
                "a composite filter needs at least two conditions; use "
                "FilterCondition directly for one"
            )
        names = {c.relation_name for c in self.conditions}
        if len(names) > 1:
            raise FilterError(
                "composite conditions must share an answer relation, "
                f"got {sorted(names)}"
            )

    @property
    def relation_name(self) -> str:
        return self.conditions[0].relation_name

    @property
    def is_monotone(self) -> bool:
        """Monotone iff every conjunct is."""
        return all(c.is_monotone for c in self.conditions)

    @property
    def is_support_condition(self) -> bool:
        """A composite is support-type when some conjunct is (the COUNT
        bound is what drives a-priori pruning estimates)."""
        return any(c.is_support_condition for c in self.conditions)

    def support_threshold(self) -> Union[int, float, None]:
        """The largest COUNT lower bound among the conjuncts (the
        strongest pruning lever), or None when there is none."""
        thresholds = [
            c.threshold for c in self.conditions if c.is_support_condition
        ]
        return max(thresholds) if thresholds else None

    def test_relation(self, answer: Relation) -> bool:
        """All conjuncts must pass on the answer relation."""
        return all(c.test_relation(answer) for c in self.conditions)

    def __str__(self) -> str:
        return " AND ".join(str(c) for c in self.conditions)


#: Anything a flock accepts as its filter.
AnyFilter = Union[FilterCondition, CompositeFilter]


def iter_conditions(condition: AnyFilter) -> tuple[FilterCondition, ...]:
    """The conjuncts of a filter — a singleton for a plain condition."""
    if isinstance(condition, CompositeFilter):
        return condition.conditions
    return (condition,)


def parse_filter(text: str, assume_nonnegative: bool = True) -> AnyFilter:
    """Parse the paper's filter notation.

    Accepts both orders: ``COUNT(answer.B) >= 20`` and the Fig. 1 SQL
    style ``20 <= COUNT(answer.B)``; also ``COUNT(answer(*)) >= 20``.
    Conjunctions of conditions joined by ``AND`` parse to a
    :class:`CompositeFilter`::

        COUNT(answer.B) >= 20 AND SUM(answer.W) >= 100
    """
    parts = re.split(r"\bAND\b", text, flags=re.IGNORECASE)
    if len(parts) > 1:
        conditions = tuple(
            _parse_single_filter(part, assume_nonnegative) for part in parts
        )
        return CompositeFilter(conditions)
    return _parse_single_filter(text, assume_nonnegative)


def _parse_single_filter(
    text: str, assume_nonnegative: bool = True
) -> FilterCondition:
    match = _FILTER_RE.match(text)
    flipped = False
    if match is None:
        match = _FLIPPED_RE.match(text)
        flipped = True
    if match is None:
        raise ParseError(f"cannot parse filter condition: {text!r}", text=text)
    op = ComparisonOp.from_symbol(match.group("op"))
    if flipped:
        op = op.flipped()
    threshold_text = match.group("thr")
    threshold: Union[int, float] = (
        float(threshold_text) if "." in threshold_text else int(threshold_text)
    )
    target = match.group("col") or STAR
    return FilterCondition(
        AggregateFunction.from_name(match.group("agg")),
        match.group("rel"),
        target,
        op,
        threshold,
        assume_nonnegative=assume_nonnegative,
    )


def support_filter(
    threshold: Union[int, float],
    relation_name: str = "answer",
    target: str = STAR,
) -> FilterCondition:
    """The common case: ``COUNT(answer(*)) >= threshold``."""
    return FilterCondition(
        AggregateFunction.COUNT,
        relation_name,
        target,
        ComparisonOp.GE,
        threshold,
    )


def plan_aggregate_specs(condition: AnyFilter, resolve_target):
    """Lower a filter to physical-plan operator inputs: one
    :class:`~repro.engine.ir.AggregateSpec` per conjunct (producing
    ``_agg{i}``) plus the matching ThresholdFilter conditions.

    ``resolve_target(condition)`` maps one conjunct to the answer
    columns its aggregate ranges over (callers know how head terms were
    renamed).
    """
    from ..engine.ir import AggregateSpec

    aggregates = []
    conditions = []
    for index, single in enumerate(iter_conditions(condition)):
        column = f"_agg{index}"
        aggregates.append(
            AggregateSpec(single.aggregate, tuple(resolve_target(single)), column)
        )
        conditions.append((single, column))
    return aggregates, conditions


def refilter_aggregates(
    cached: Relation,
    group_by: list[str],
    condition: AnyFilter,
    name: str = "ok",
) -> Relation:
    """Re-filter a cached survivor relation that kept its aggregate
    values (the ``passed`` relation of a step: one ``_agg{i}`` column per
    conjunct) at stricter thresholds, and project away the aggregate
    columns.

    For a *monotone* conjunct, an assignment surviving threshold *t* with
    recorded value *v* survives any stricter threshold ``t' >= t`` iff
    ``v`` passes it — so the cached relation answers every stricter
    request with zero base-relation work.  (Assignments that *failed*
    threshold *t* are absent, which is why it is only sound for
    thresholds at least as strict.)

    ``condition`` must have the same conjunct signatures (aggregate,
    target, comparison direction) as the filter the relation was built
    under, with each conjunct's threshold at least as strict — the
    caller (:mod:`repro.session.cache`) enforces this via
    ``filter_implies``.
    """
    positions = [
        cached.column_position(f"_agg{i}")
        for i in range(len(iter_conditions(condition)))
    ]
    conjuncts = iter_conditions(condition)
    rows = {
        row
        for row in cached.tuples
        if all(c.passes(row[p]) for c, p in zip(conjuncts, positions))
    }
    survivors = Relation(name, cached.columns, rows)
    return survivors.project(group_by, name=name)


def filter_signature(condition: AnyFilter) -> tuple:
    """The threshold-independent shape of a filter: one
    ``(aggregate, target, op)`` triple per conjunct, in order.  Two
    filters with equal signatures differ only in their thresholds."""
    return tuple(
        (c.aggregate.value, c.relation_name, c.target, c.op.value)
        for c in iter_conditions(condition)
    )


def filter_implies(new: AnyFilter, old: AnyFilter) -> bool:
    """Whether every assignment passing ``new`` also passes ``old`` —
    i.e. ``new`` is at least as strict, conjunct by conjunct.

    This is the session cache's **threshold-reuse rule** (Section 5
    monotonicity, applied across queries): a result computed under
    ``old`` contains every assignment that can pass ``new``, so it can
    serve a ``new`` request by re-filtering.  Requires identical
    signatures (same aggregates, targets and comparison directions, in
    order); then per conjunct:

    * lower bounds (``>=``/``>``): ``new.threshold >= old.threshold``;
    * upper bounds (``<=``/``<``): ``new.threshold <= old.threshold``;
    * anything else: thresholds must be equal.
    """
    if filter_signature(new) != filter_signature(old):
        return False
    for n, o in zip(iter_conditions(new), iter_conditions(old)):
        if n.op in (ComparisonOp.GE, ComparisonOp.GT):
            if n.threshold < o.threshold:
                return False
        elif n.op in (ComparisonOp.LE, ComparisonOp.LT):
            if n.threshold > o.threshold:
                return False
        elif n.threshold != o.threshold:
            return False
    return True
