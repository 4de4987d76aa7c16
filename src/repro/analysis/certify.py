"""Legality certificates for FILTER-step plans (Sections 4.1–4.2).

The paper's legality rule makes every pre-filter step an *upper bound*
of the flock query: a safe subquery whose result, for each parameter
assignment, is a superset of the full query's.  :func:`certify_plan`
turns that argument into a machine-checkable object — for every step
and branch a :class:`BranchCertificate` holding

* the step's subquery (the step rule with prior steps' ok-atoms
  stripped),
* its :class:`~repro.datalog.safety.SafetyReport` with binding
  witnesses, and
* an explicit **containment witness**: the Chandra–Merlin homomorphism
  for pure CQ steps (:class:`HomomorphismWitness`), the Klug argument —
  mapping plus entailed comparisons — for arithmetic ones
  (:class:`KlugWitness`), and the paper's subgoal-subset criterion for
  steps with negation (:class:`SubgoalSubsetWitness`).

:func:`verify_certificate` re-checks a certificate **independently of
how it was produced**: structural legality is re-derived from the plan,
safety reports are re-validated against their witnesses, and each
containment witness is checked directly (applying the recorded mapping,
re-deriving entailment) with no search.  ``validate_plan`` and the
optimizer's plan search are thin layers over :func:`certify_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..datalog.atoms import RelationalAtom, Subgoal
from ..datalog.containment import (
    ExtendedWitness,
    find_containment_mapping,
    find_extended_witness,
    has_negation,
    is_pure,
    is_subquery_bound,
    verify_containment_mapping,
    verify_extended_witness,
)
from ..datalog.query import ConjunctiveQuery, as_union
from ..datalog.safety import (
    SafetyReport,
    check_safety,
    verify_safety_report,
)
from ..datalog.terms import Term
from ..errors import FilterError, PlanError
from .diagnostics import Diagnostic, DiagnosticReport, Severity, error

if TYPE_CHECKING:  # avoid a runtime cycle with repro.flocks
    from ..flocks.flock import QueryFlock
    from ..flocks.plans import FilterStep, QueryPlan


# ----------------------------------------------------------------------
# Containment witnesses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HomomorphismWitness:
    """A Chandra–Merlin containment mapping subquery → flock rule."""

    mapping: tuple[tuple[Term, Term], ...]

    kind = "homomorphism"

    def __str__(self) -> str:
        pairs = ", ".join(f"{s}→{t}" for s, t in self.mapping)
        return f"homomorphism {{{pairs or 'identity'}}}"


@dataclass(frozen=True)
class KlugWitness:
    """The [Klu82] argument: a mapping over the relational subgoals plus
    the mapped comparisons it leaves to entailment."""

    witness: ExtendedWitness

    kind = "klug"

    def __str__(self) -> str:
        if self.witness.contained_unsatisfiable:
            return "klug (contained query unsatisfiable)"
        pairs = ", ".join(f"{s}→{t}" for s, t in self.witness.mapping)
        entailed = ", ".join(str(c) for c in self.witness.entailed)
        return (
            f"klug {{{pairs or 'identity'}}}"
            + (f" entailing {entailed}" if entailed else "")
        )


@dataclass(frozen=True)
class SubgoalSubsetWitness:
    """The paper's sound criterion for the extended language: the
    subquery is the flock rule with ``deleted`` subgoals removed."""

    deleted: tuple[Subgoal, ...]

    kind = "subgoal-subset"

    def __str__(self) -> str:
        dropped = "; ".join(str(sg) for sg in self.deleted)
        return f"subgoal-subset (deleted: {dropped or 'nothing'})"


ContainmentWitness = Union[
    HomomorphismWitness, KlugWitness, SubgoalSubsetWitness
]


def find_witness(
    subquery: ConjunctiveQuery, flock_rule: ConjunctiveQuery
) -> Optional[ContainmentWitness]:
    """The strongest applicable containment witness for
    ``flock_rule ⊆ subquery``, or ``None`` when no test succeeds."""
    if is_pure(subquery) and is_pure(flock_rule):
        mapping = find_containment_mapping(subquery, flock_rule)
        if mapping is not None:
            return HomomorphismWitness(
                tuple(sorted(mapping.items(), key=repr))
            )
    elif not (has_negation(subquery) or has_negation(flock_rule)):
        extended = find_extended_witness(subquery, flock_rule)
        if extended is not None:
            return KlugWitness(extended)
    # Negation — or a failed complete test — falls back to the paper's
    # subgoal-subset criterion, sound for the whole extended language.
    if is_subquery_bound(subquery, flock_rule):
        remaining = list(flock_rule.body)
        for sg in subquery.body:
            remaining.remove(sg)
        return SubgoalSubsetWitness(tuple(remaining))
    return None


def verify_witness(
    subquery: ConjunctiveQuery,
    flock_rule: ConjunctiveQuery,
    witness: ContainmentWitness,
) -> bool:
    """Re-check one containment witness without searching."""
    if isinstance(witness, HomomorphismWitness):
        if not (is_pure(subquery) and is_pure(flock_rule)):
            return False
        return verify_containment_mapping(
            subquery, flock_rule, dict(witness.mapping)
        )
    if isinstance(witness, KlugWitness):
        if has_negation(subquery) or has_negation(flock_rule):
            return False
        return verify_extended_witness(subquery, flock_rule, witness.witness)
    if isinstance(witness, SubgoalSubsetWitness):
        expected = list(flock_rule.body)
        for sg in witness.deleted:
            try:
                expected.remove(sg)
            except ValueError:
                return False
        return (
            subquery.head_name == flock_rule.head_name
            and subquery.head_terms == flock_rule.head_terms
            and sorted(map(str, subquery.body)) == sorted(map(str, expected))
            and is_subquery_bound(subquery, flock_rule)
        )
    return False


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BranchCertificate:
    """The legality argument for one branch of one FILTER step."""

    step_name: str
    rule_index: int
    subquery: ConjunctiveQuery
    flock_rule: ConjunctiveQuery
    safety: SafetyReport
    witness: Optional[ContainmentWitness]

    @property
    def location(self) -> str:
        return f"step {self.step_name} / branch {self.rule_index}"

    def verify(self) -> DiagnosticReport:
        """Re-check this branch's safety report and containment witness
        independently of how they were produced."""
        out: list[Diagnostic] = []
        if not verify_safety_report(self.safety):
            out.append(
                error(
                    "certificate-safety-invalid",
                    "the recorded safety report does not re-validate "
                    "against the subquery",
                    location=self.location,
                )
            )
        if not self.safety.is_safe:
            out.append(
                error(
                    "plan-unsafe-step",
                    f"step {self.step_name} is unsafe: "
                    + "; ".join(str(v) for v in self.safety.violations),
                    location=self.location,
                )
            )
        if self.witness is None:
            out.append(
                error(
                    "plan-not-containing",
                    f"step {self.step_name}: no containment witness — the "
                    "subquery is not known to upper-bound the flock query "
                    "(Section 4.2 rule 3)",
                    location=self.location,
                )
            )
        elif not verify_witness(self.subquery, self.flock_rule, self.witness):
            out.append(
                error(
                    "certificate-witness-invalid",
                    f"the recorded {self.witness.kind} witness does not "
                    "re-validate: it is not a containment argument for "
                    "this subquery over the flock rule",
                    location=self.location,
                )
            )
        return DiagnosticReport(tuple(out))


@dataclass(frozen=True)
class StepCertificate:
    """Per-branch certificates for one FILTER step."""

    step_name: str
    is_final: bool
    branches: tuple[BranchCertificate, ...]

    def verify(self) -> DiagnosticReport:
        report = DiagnosticReport()
        for branch in self.branches:
            report = report.merged(branch.verify())
        return report


@dataclass(frozen=True)
class LegalityCertificate:
    """The full legality argument of one plan against one flock."""

    flock: "QueryFlock"
    plan: "QueryPlan"
    steps: tuple[StepCertificate, ...]
    diagnostics: DiagnosticReport

    @property
    def ok(self) -> bool:
        return self.diagnostics.ok

    @property
    def prefilter_steps(self) -> tuple[StepCertificate, ...]:
        return tuple(s for s in self.steps if not s.is_final)

    def raise_for_errors(self) -> None:
        """Raise the first error as the exception type the legality rule
        historically used: :class:`~repro.errors.FilterError` for a
        non-monotone filter, :class:`~repro.errors.PlanError` otherwise."""
        for diagnostic in self.diagnostics.errors:
            if diagnostic.code == "plan-non-monotone-filter":
                raise FilterError(diagnostic.message)
            raise PlanError(diagnostic.message)

    def render(self) -> str:
        lines = []
        for step in self.steps:
            for branch in step.branches:
                witness = str(branch.witness) if branch.witness else "MISSING"
                lines.append(
                    f"{branch.location}: safe={branch.safety.is_safe} "
                    f"witness={witness}"
                )
        if not self.diagnostics.ok:
            lines.append(str(self.diagnostics))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Structural legality (Section 4.2) as diagnostics
# ----------------------------------------------------------------------


def _split_step_body(
    body: Sequence[Subgoal],
    prior: dict[str, "FilterStep"],
    step_name: str,
    out: list[Diagnostic],
) -> tuple[list[Subgoal], list[RelationalAtom]]:
    """Partition a step body into original-query subgoals and ok-atoms
    referencing prior steps, reporting non-literal copies (rule 3b)."""
    original: list[Subgoal] = []
    ok_atoms: list[RelationalAtom] = []
    for sg in body:
        if isinstance(sg, RelationalAtom) and sg.predicate in prior:
            step = prior[sg.predicate]
            if sg.negated:
                out.append(
                    error(
                        "plan-ok-negated",
                        f"ok-relation {sg.predicate} may not be negated",
                        location=f"step {step_name}",
                    )
                )
                continue
            if sg.terms != tuple(step.parameters):
                out.append(
                    error(
                        "plan-ok-not-literal",
                        f"subgoal {sg} must copy the left side "
                        f"{step.result_name}"
                        f"({', '.join(map(str, step.parameters))}) "
                        "literally (same relation name, same parameters)",
                        location=f"step {step_name}",
                    )
                )
                continue
            ok_atoms.append(sg)
        else:
            original.append(sg)
    return original, ok_atoms


def _certify_branch(
    step: "FilterStep",
    step_rule: ConjunctiveQuery,
    flock_rule: ConjunctiveQuery,
    rule_index: int,
    prior: dict[str, "FilterStep"],
    is_final: bool,
    witnesses: bool,
    out: list[Diagnostic],
) -> BranchCertificate:
    """Check Section 4.2 rule 3 for one branch and build its certificate."""
    name = step.result_name
    if step_rule.head_name != flock_rule.head_name or (
        step_rule.head_terms != flock_rule.head_terms
    ):
        out.append(
            error(
                "plan-head-changed",
                f"step {name}: head must stay "
                f"{flock_rule.head_name}"
                f"({', '.join(map(str, flock_rule.head_terms))})",
                location=f"step {name}",
            )
        )
    original, _ok = _split_step_body(step_rule.body, prior, name, out)
    remaining = list(flock_rule.body)
    for sg in original:
        try:
            remaining.remove(sg)
        except ValueError:
            out.append(
                error(
                    "plan-foreign-subgoal",
                    f"step {name}: subgoal {sg} is neither an original "
                    "subgoal of the flock query nor the left side of a "
                    "prior step",
                    location=f"step {name}",
                    hint="steps may only delete original subgoals and "
                    "splice in prior steps' left sides (rule 3)",
                )
            )
    if is_final and remaining:
        out.append(
            error(
                "plan-final-deletes-subgoal",
                f"final step {name} deletes original subgoal(s): "
                f"{'; '.join(str(s) for s in remaining)}",
                location=f"step {name}",
            )
        )

    subquery = ConjunctiveQuery(
        step_rule.head_name, step_rule.head_terms, tuple(original)
    )
    safety = check_safety(step_rule)
    if not safety.is_safe:
        out.append(
            error(
                "plan-unsafe-step",
                f"step {name} is unsafe: "
                + "; ".join(str(v) for v in safety.violations),
                location=f"step {name}",
                hint="rule 3c: every step must remain a safe query",
            )
        )

    witness: Optional[ContainmentWitness] = None
    if witnesses:
        witness = find_witness(subquery, flock_rule)
        if witness is None:
            out.append(
                error(
                    "plan-not-containing",
                    f"step {name}: the subquery does not contain the flock "
                    "query — its result cannot upper-bound the answer "
                    "(Section 4.2 rule 3)",
                    location=f"step {name}",
                )
            )
    return BranchCertificate(
        step_name=name,
        rule_index=rule_index,
        subquery=subquery,
        flock_rule=flock_rule,
        safety=safety,
        witness=witness,
    )


def certify_plan(
    flock: "QueryFlock", plan: "QueryPlan", witnesses: bool = True
) -> LegalityCertificate:
    """Check the Section 4.2 legality rule and produce the certificate.

    ``witnesses=False`` skips the containment-witness search (used by
    the optimizer's enumeration loop, where plans are built legal by
    construction and only the structural checks are wanted); the
    certificate then carries ``witness=None`` per branch and
    :func:`verify_certificate` would reject it — call with witnesses
    enabled before trusting a plan from an untrusted source.
    """
    out: list[Diagnostic] = []
    if len(plan.prefilter_steps) > 0 and not flock.filter.is_monotone:
        out.append(
            error(
                "plan-non-monotone-filter",
                f"filter {flock.filter} is not monotone; a-priori "
                "pre-filter steps would be unsound (Section 5)",
                hint="use the naive strategy, or a monotone filter",
            )
        )

    prior: dict[str, "FilterStep"] = {}
    base_predicates = flock.predicates()
    flock_rules = flock.rules
    step_certs: list[StepCertificate] = []

    for index, step in enumerate(plan.steps):
        name = step.result_name
        if name in prior:
            out.append(
                error(
                    "plan-duplicate-step",
                    f"step relation {name!r} defined twice (rule 2)",
                    location=f"step {name}",
                )
            )
        if name in base_predicates:
            out.append(
                error(
                    "plan-shadowed-relation",
                    f"step relation {name!r} shadows a base relation",
                    location=f"step {name}",
                )
            )
        is_final = index == len(plan.steps) - 1
        step_rules = as_union(step.query).rules
        branches: list[BranchCertificate] = []
        if len(step_rules) == 1 and not flock.is_union:
            branches.append(
                _certify_branch(
                    step, step_rules[0], flock_rules[0], 0, prior,
                    is_final, witnesses, out,
                )
            )
        elif flock.is_union:
            if len(step_rules) != len(flock_rules):
                out.append(
                    error(
                        "plan-branch-count",
                        f"step {name}: a union-flock step must have one "
                        f"branch per flock rule ({len(flock_rules)}), got "
                        f"{len(step_rules)}",
                        location=f"step {name}",
                    )
                )
            else:
                for rule_index, (step_rule, flock_rule) in enumerate(
                    zip(step_rules, flock_rules)
                ):
                    branches.append(
                        _certify_branch(
                            step, step_rule, flock_rule, rule_index, prior,
                            is_final, witnesses, out,
                        )
                    )
        else:
            out.append(
                error(
                    "plan-union-step",
                    f"step {name}: union step over a single-rule flock",
                    location=f"step {name}",
                )
            )
        prior[name] = step
        step_certs.append(
            StepCertificate(
                step_name=name, is_final=is_final, branches=tuple(branches)
            )
        )

    final = plan.final_step
    if frozenset(final.parameters) != frozenset(flock.parameters):
        out.append(
            error(
                "plan-final-parameters",
                "the final step must define all flock parameters "
                f"({', '.join(flock.parameter_columns)}), got "
                f"({', '.join(final.parameter_columns)})",
                location=f"step {final.result_name}",
            )
        )

    return LegalityCertificate(
        flock=flock,
        plan=plan,
        steps=tuple(step_certs),
        diagnostics=DiagnosticReport(tuple(out)),
    )


def verify_certificate(certificate: LegalityCertificate) -> DiagnosticReport:
    """Re-check a :class:`LegalityCertificate` independently of how it
    was produced.

    Re-derives the structural legality of ``certificate.plan`` from
    scratch, confirms each branch certificate matches the plan it claims
    to certify (same stripped subquery), and re-validates every safety
    report and containment witness directly.  A clean report means the
    certificate is a genuine proof of the Section 4.2 legality rule.
    """
    fresh = certify_plan(
        certificate.flock, certificate.plan, witnesses=False
    )
    out: list[Diagnostic] = list(fresh.diagnostics)

    fresh_by_key = {
        (b.step_name, b.rule_index): b
        for s in fresh.steps
        for b in s.branches
    }
    for step in certificate.steps:
        for branch in step.branches:
            reference = fresh_by_key.get((branch.step_name, branch.rule_index))
            if reference is None or (
                str(reference.subquery) != str(branch.subquery)
                or str(reference.flock_rule) != str(branch.flock_rule)
            ):
                out.append(
                    error(
                        "certificate-mismatch",
                        "the certificate does not describe this plan: "
                        f"branch {branch.location} disagrees with the "
                        "plan's derived subquery",
                        location=branch.location,
                    )
                )
                continue
            out.extend(branch.verify())
    missing = set(fresh_by_key) - {
        (b.step_name, b.rule_index)
        for s in certificate.steps
        for b in s.branches
    }
    for step_name, rule_index in sorted(missing):
        out.append(
            error(
                "certificate-missing-branch",
                f"the certificate has no entry for step {step_name} "
                f"branch {rule_index}",
                location=f"step {step_name} / branch {rule_index}",
            )
        )
    return DiagnosticReport(tuple(out))


def certify_step_bound(
    flock_rule: ConjunctiveQuery,
    subquery_indices: Sequence[int],
    step_name: str,
) -> BranchCertificate:
    """Certify one *in-flight* FILTER decision of the dynamic strategy.

    The dynamic evaluator filters on the safe subquery made of the body
    subgoals absorbed so far; this produces the same
    :class:`BranchCertificate` a static pre-filter step would carry, so
    dynamic decisions are as auditable as planned ones.
    """
    subquery = flock_rule.with_body_subset(sorted(subquery_indices))
    return BranchCertificate(
        step_name=step_name,
        rule_index=0,
        subquery=subquery,
        flock_rule=flock_rule,
        safety=check_safety(subquery),
        witness=find_witness(subquery, flock_rule),
    )
