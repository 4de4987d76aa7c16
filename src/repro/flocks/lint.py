"""Static diagnostics for query flocks.

Mining queries are written by analysts, and the paper's formalism makes
several mistakes easy: a tie-break comparison that contradicts itself,
a parameter that nothing constrains, subgoal sets whose join graph
degenerates to a cartesian product.  :func:`lint_flock` runs the checks
the library's own theory makes cheap:

* ``UNSATISFIABLE_COMPARISONS`` — the rule's arithmetic subgoals have no
  model (via :mod:`repro.datalog.arithmetic`): the rule returns nothing,
  ever;
* ``CARTESIAN_PRODUCT`` — the positive subgoals do not form a connected
  join graph: evaluation will multiply unrelated relations;
* ``UNCONSTRAINED_PARAMETER`` — every subgoal mentioning the parameter
  is disconnected from the rest of the body, so the parameter's value
  never interacts with the answer (each value passes or fails wholesale
  — usually a modelling mistake);
* ``DUPLICATE_SUBGOAL`` — a literally repeated subgoal (a no-op under
  set semantics);
* ``NON_MONOTONE_FILTER`` — the filter admits no a-priori optimization
  (Section 5), so evaluation will always be the naive join;
* ``REDUNDANT_SUBGOAL`` — a subgoal removable under a containment
  self-homomorphism: Chandra–Merlin for pure CQ rules, Klug's extended
  test for rules with arithmetic subgoals.  Negated rules are skipped —
  no complete containment test exists for them — and the skip itself is
  reported as an ``info``-severity ``REDUNDANCY_CHECK_SKIPPED`` entry,
  so a silent non-answer is distinguishable from "checked and clean".

Warnings carry a :class:`~repro.analysis.diagnostics.Severity` and
convert to structured diagnostics via :func:`lint_diagnostics`, the
shared reporting layer of :mod:`repro.analysis`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from ..analysis.certify import find_witness
from ..analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from ..datalog.arithmetic import is_satisfiable
from ..datalog.atoms import RelationalAtom
from ..datalog.query import ConjunctiveQuery, as_union
from .flock import QueryFlock


class LintCode(Enum):
    UNSATISFIABLE_COMPARISONS = "unsatisfiable-comparisons"
    CARTESIAN_PRODUCT = "cartesian-product"
    UNCONSTRAINED_PARAMETER = "unconstrained-parameter"
    DUPLICATE_SUBGOAL = "duplicate-subgoal"
    NON_MONOTONE_FILTER = "non-monotone-filter"
    REDUNDANT_SUBGOAL = "redundant-subgoal"
    REDUNDANCY_CHECK_SKIPPED = "redundancy-check-skipped"


@dataclass(frozen=True)
class LintWarning:
    code: LintCode
    message: str
    rule_index: int | None = None
    severity: Severity = Severity.WARNING

    def __str__(self) -> str:
        where = "" if self.rule_index is None else f" (rule {self.rule_index + 1})"
        return f"[{self.code.value}]{where} {self.message}"

    def to_diagnostic(self) -> Diagnostic:
        location = (
            None if self.rule_index is None else f"rule {self.rule_index + 1}"
        )
        return Diagnostic(
            self.code.value, self.severity, self.message, location=location
        )


def _join_graph_connected(rule: ConjunctiveQuery) -> bool:
    """Positive subgoals connected through shared bindable terms
    (comparisons also connect the terms they relate)."""
    positives = rule.positive_atoms()
    if len(positives) <= 1:
        return True
    term_sets = [frozenset(sg.bindable_terms()) for sg in positives]
    # Comparisons merge the components of the terms they mention.
    for comp in rule.comparisons():
        terms = frozenset(comp.bindable_terms())
        if terms:
            term_sets.append(terms)

    components: list[set] = []
    for terms in term_sets:
        touching = [c for c in components if c & terms]
        merged = set(terms)
        for c in touching:
            merged |= c
            components.remove(c)
        components.append(merged)
    # The atoms are connected iff all positive subgoals' terms ended up
    # in one component (term-free atoms, e.g. flag(), always disconnect).
    atom_components = []
    for sg in positives:
        terms = set(sg.bindable_terms())
        if not terms:
            return False
        for component in components:
            if terms & component:
                atom_components.append(id(component))
                break
    return len(set(atom_components)) == 1


def _lint_rule(rule: ConjunctiveQuery, index: int | None) -> list[LintWarning]:
    warnings: list[LintWarning] = []

    comparisons = list(rule.comparisons())
    if comparisons and not is_satisfiable(comparisons):
        warnings.append(
            LintWarning(
                LintCode.UNSATISFIABLE_COMPARISONS,
                "the arithmetic subgoals "
                f"({' AND '.join(map(str, comparisons))}) have no model; "
                "the rule always returns the empty relation",
                index,
            )
        )

    if not _join_graph_connected(rule):
        warnings.append(
            LintWarning(
                LintCode.CARTESIAN_PRODUCT,
                "the positive subgoals do not share variables/parameters; "
                "evaluation degenerates to a cartesian product",
                index,
            )
        )

    for parameter in sorted(rule.parameters(), key=lambda p: p.name):
        with_param = [
            sg for sg in rule.body if parameter in sg.bindable_terms()
        ]
        without_param = [
            sg for sg in rule.body if parameter not in sg.bindable_terms()
        ]
        if not without_param:
            continue
        linking_terms: set = set()
        for sg in with_param:
            linking_terms.update(
                t for t in sg.bindable_terms() if t != parameter
            )
        other_terms: set = set()
        for sg in without_param:
            other_terms.update(sg.bindable_terms())
        if linking_terms and not (linking_terms & other_terms):
            warnings.append(
                LintWarning(
                    LintCode.UNCONSTRAINED_PARAMETER,
                    f"parameter {parameter}'s subgoals share no terms with "
                    "the rest of the body; its value never interacts with "
                    "the answer",
                    index,
                )
            )
        elif not linking_terms:
            warnings.append(
                LintWarning(
                    LintCode.UNCONSTRAINED_PARAMETER,
                    f"parameter {parameter} appears only alongside constants; "
                    "its value never interacts with the answer",
                    index,
                )
            )

    duplicates = Counter(rule.body)
    for sg, count in duplicates.items():
        if count > 1:
            warnings.append(
                LintWarning(
                    LintCode.DUPLICATE_SUBGOAL,
                    f"subgoal {sg} is repeated {count} times (a no-op under "
                    "set semantics)",
                    index,
                )
            )

    warnings.extend(_redundant_subgoals(rule, index))
    return warnings


def _redundant_subgoals(
    rule: ConjunctiveQuery, index: int | None
) -> list[LintWarning]:
    """Subgoals removable under a containment self-homomorphism.

    Dropping a subgoal can only *widen* a query, so the rule without
    subgoal *i* always contains the rule; when the rule also contains
    the widened version, the two are equivalent and subgoal *i* does no
    work.  The test is :func:`repro.analysis.certify.find_witness`'s one
    dispatch: Chandra–Merlin for pure CQ rules, Klug's extended test for
    rules with arithmetic (but no negation) — e.g. in ``p(X,$1) AND
    p(X,$2) AND $1 <= $2 AND $1 < $2`` the ``<=`` subgoal is entailed by
    the ``<`` and flagged.  Rules with negation are skipped (no
    sound-and-complete containment test is available) — reported
    explicitly at ``info`` severity rather than silently.
    """
    if len(rule.body) <= 1:
        return []
    negated = [
        sg for sg in rule.body
        if isinstance(sg, RelationalAtom) and sg.negated
    ]
    if negated:
        return [
            LintWarning(
                LintCode.REDUNDANCY_CHECK_SKIPPED,
                "redundant-subgoal check skipped: the rule negates "
                f"{', '.join(str(sg) for sg in negated)}, and no "
                "sound-and-complete containment test exists for queries "
                "with negation",
                index,
                severity=Severity.INFO,
            )
        ]
    warnings: list[LintWarning] = []
    for i in range(len(rule.body)):
        candidate = rule.without_subgoals([i])
        if not candidate.body:
            continue
        try:
            redundant = find_witness(rule, candidate) is not None
        except Exception:  # unsupported shape (e.g. exotic comparison)
            continue
        if redundant:
            warnings.append(
                LintWarning(
                    LintCode.REDUNDANT_SUBGOAL,
                    f"subgoal {rule.body[i]} is redundant (the query is "
                    "equivalent without it)",
                    index,
                )
            )
    return warnings


def lint_flock(flock: QueryFlock) -> list[LintWarning]:
    """Run every check; returns an empty list for a clean flock."""
    warnings: list[LintWarning] = []
    rules = as_union(flock.query).rules
    multi = len(rules) > 1
    for index, rule in enumerate(rules):
        warnings.extend(_lint_rule(rule, index if multi else None))

    if not flock.filter.is_monotone:
        warnings.append(
            LintWarning(
                LintCode.NON_MONOTONE_FILTER,
                f"filter {flock.filter} is not monotone; no a-priori "
                "pre-filtering is possible (Section 5)",
            )
        )
    return warnings


def lint_diagnostics(flock: QueryFlock) -> DiagnosticReport:
    """:func:`lint_flock` as a structured
    :class:`~repro.analysis.diagnostics.DiagnosticReport`."""
    return DiagnosticReport(
        tuple(w.to_diagnostic() for w in lint_flock(flock))
    )
