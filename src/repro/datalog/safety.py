"""Safety analysis for extended conjunctive queries (paper Sections 3.2–3.3).

A plain conjunctive query is *safe* when every head variable also appears
in the body.  With negation and arithmetic, the paper (following
[UW97]) states three conditions, all of which must hold:

1. every variable that appears in the **head** must appear in a
   nonnegated, nonarithmetic subgoal of the body;
2. every variable that appears in a **negated** subgoal must appear in a
   nonnegated, nonarithmetic subgoal of the body;
3. every variable that appears in an **arithmetic** subgoal must appear
   in a nonnegated, nonarithmetic subgoal of the body.

"Parameters are variables, not constants, as far as the above safety
conditions are concerned" — they cannot occur in the head (so rule 1
never fires for them), but rules 2 and 3 apply to parameters exactly as
to explicit variables.

Only safe subqueries may serve as FILTER steps (Section 4.2 rule 3c):
an unsafe subquery would define an infinite head relation and cannot
upper-bound anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import SafetyError
from .atoms import Comparison, RelationalAtom
from .query import ConjunctiveQuery, FlockQuery, UnionQuery
from .terms import BindableTerm, Variable


class SafetyRule(Enum):
    """Which of the three safety conditions a violation falls under."""

    HEAD_VARIABLE = 1
    NEGATED_SUBGOAL = 2
    ARITHMETIC_SUBGOAL = 3


@dataclass(frozen=True, slots=True)
class SafetyViolation:
    """One unsatisfied safety condition: ``term`` lacks a positive,
    relational binding required by ``rule``."""

    rule: SafetyRule
    term: BindableTerm
    context: str

    def __str__(self) -> str:
        return (
            f"rule {self.rule.value}: {self.term} in {self.context} does not "
            "appear in any nonnegated, nonarithmetic subgoal"
        )


@dataclass(frozen=True)
class SafetyReport:
    """The outcome of a safety check: safe iff no violations.

    ``witnesses`` pairs every positively bound term with the first
    nonnegated, nonarithmetic subgoal that binds it — the constructive
    half of the check.  A certificate carrying this report can be
    re-validated without re-deriving the bound set
    (:func:`verify_safety_report`).
    """

    query: ConjunctiveQuery
    violations: tuple[SafetyViolation, ...] = field(default_factory=tuple)
    witnesses: tuple[tuple[BindableTerm, RelationalAtom], ...] = ()

    @property
    def is_safe(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.is_safe


def binding_witnesses(
    query: ConjunctiveQuery,
) -> dict[BindableTerm, RelationalAtom]:
    """For every positively bound term, the first positive relational
    subgoal that binds it — the explicit witness the safety conditions
    ask for ("appears in a nonnegated, nonarithmetic subgoal")."""
    bound: dict[BindableTerm, RelationalAtom] = {}
    for sg in query.body:
        if isinstance(sg, RelationalAtom) and not sg.negated:
            for term in sg.bindable_terms():
                bound.setdefault(term, sg)
    return bound


def check_safety(query: ConjunctiveQuery) -> SafetyReport:
    """Evaluate all three safety conditions and report every violation."""
    witnesses = binding_witnesses(query)
    bound = frozenset(witnesses)
    violations: list[SafetyViolation] = []

    for term in query.head_terms:
        if isinstance(term, Variable) and term not in bound:
            violations.append(
                SafetyViolation(
                    SafetyRule.HEAD_VARIABLE, term, f"head {query.head_name}"
                )
            )

    for sg in query.body:
        if isinstance(sg, RelationalAtom) and sg.negated:
            for term in sg.bindable_terms():
                if term not in bound:
                    violations.append(
                        SafetyViolation(
                            SafetyRule.NEGATED_SUBGOAL, term, str(sg)
                        )
                    )
        elif isinstance(sg, Comparison):
            for term in sg.bindable_terms():
                if term not in bound:
                    violations.append(
                        SafetyViolation(
                            SafetyRule.ARITHMETIC_SUBGOAL, term, str(sg)
                        )
                    )

    # De-duplicate while preserving first-seen order (a term may violate
    # the same rule in several subgoals; one report per (rule, term,
    # context) is already distinct, so nothing further needed).
    return SafetyReport(
        query,
        tuple(violations),
        tuple(sorted(witnesses.items(), key=lambda kv: str(kv[0]))),
    )


def verify_safety_report(report: SafetyReport) -> bool:
    """Re-check a :class:`SafetyReport` independently of how it was made.

    Confirms (a) every recorded witness really is a nonnegated,
    nonarithmetic subgoal of the query binding the recorded term, and
    (b) a fresh evaluation of the three conditions over the witnessed
    bound set reproduces exactly the recorded violations.
    """
    query = report.query
    positives = {
        sg for sg in query.body
        if isinstance(sg, RelationalAtom) and not sg.negated
    }
    for term, sg in report.witnesses:
        if sg not in positives or term not in sg.bindable_terms():
            return False
    fresh = check_safety(query)
    return (
        frozenset(fresh.violations) == frozenset(report.violations)
        and frozenset(t for t, _ in fresh.witnesses)
        == frozenset(t for t, _ in report.witnesses)
    )


def safety_diagnostics(report: SafetyReport, location: str | None = None):
    """The report's violations as structured diagnostics.

    One ``safety-rule-{1,2,3}`` error per violation (matching the
    paper's three safety conditions), tagged with ``location`` (a rule
    label or plan-step name).
    """
    from ..analysis.diagnostics import Diagnostic, DiagnosticReport, Severity

    codes = {
        SafetyRule.HEAD_VARIABLE: "safety-rule-1",
        SafetyRule.NEGATED_SUBGOAL: "safety-rule-2",
        SafetyRule.ARITHMETIC_SUBGOAL: "safety-rule-3",
    }
    return DiagnosticReport(
        tuple(
            Diagnostic(
                codes[v.rule],
                Severity.ERROR,
                str(v),
                location=location,
                hint=f"bind {v.term} in a positive relational subgoal",
            )
            for v in report.violations
        )
    )


def is_safe(query: FlockQuery) -> bool:
    """``True`` iff the query (every rule, for a union) is safe."""
    if isinstance(query, UnionQuery):
        return all(check_safety(rule).is_safe for rule in query.rules)
    return check_safety(query).is_safe


def assert_safe(query: FlockQuery) -> None:
    """Raise :class:`SafetyError` describing all violations if unsafe."""
    if isinstance(query, UnionQuery):
        for rule in query.rules:
            assert_safe(rule)
        return
    report = check_safety(query)
    if not report.is_safe:
        details = "; ".join(str(v) for v in report.violations)
        raise SafetyError(f"unsafe query {query}: {details}")
