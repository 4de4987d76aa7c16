"""One-pass flock checking: lint + safety + plan legality + IR typing.

:func:`check_flock` runs every static verifier the library has over one
flock and merges the results into a single
:class:`~repro.analysis.diagnostics.DiagnosticReport`:

1. the :mod:`repro.flocks.lint` checks (as diagnostics);
2. the three safety conditions per rule (:mod:`repro.datalog.safety`);
3. plan legality: a plan is built (the cost-based plan when a database
   is supplied and the filter is monotone, the single-step plan
   otherwise), certified with :func:`repro.analysis.certify_plan`, and
   the certificate is independently re-validated with
   :func:`repro.analysis.verify_certificate`;
4. with a database, the IR schema check: every FILTER step is lowered
   to its :class:`~repro.engine.ir.StepPlan` and typed with
   :func:`repro.analysis.check_physical_plan`.

``python -m repro.analysis.check --paper`` checks every paper-figure
flock (the CI gate); the ``repro check`` CLI subcommand wraps
:func:`check_flock` for flock files.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import ReproError
from .diagnostics import Diagnostic, DiagnosticReport, Severity, error

if TYPE_CHECKING:
    from ..flocks.flock import QueryFlock
    from ..flocks.plans import QueryPlan
    from ..relational.catalog import Database
    from .certify import LegalityCertificate


@dataclass(frozen=True)
class FlockCheck:
    """Everything :func:`check_flock` produced for one flock."""

    flock: "QueryFlock"
    plan: Optional["QueryPlan"]
    certificate: Optional["LegalityCertificate"]
    report: DiagnosticReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    def exit_code(self) -> int:
        return self.report.exit_code()

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "exit_code": self.exit_code(),
            "plan": (
                None if self.plan is None
                else self.plan.render(self.flock)
            ),
            "diagnostics": self.report.to_dict()["diagnostics"],
        }


def _build_plan(
    flock: "QueryFlock", db: Optional["Database"], out: list[Diagnostic]
) -> Optional["QueryPlan"]:
    """The plan to certify: cost-based when statistics are available and
    pre-filtering is sound, the single-step plan otherwise."""
    from ..flocks.optimizer import FlockOptimizer, optimize_union
    from ..flocks.plans import single_step_plan

    if db is not None and flock.filter.is_monotone:
        try:
            if flock.is_union:
                return optimize_union(db, flock)
            return FlockOptimizer(db, flock).best_plan().plan
        except ReproError as failure:
            out.append(
                error(
                    "check-plan-search-failed",
                    f"cost-based plan search failed: {failure}",
                    hint="the single-step plan is certified instead",
                )
            )
    try:
        return single_step_plan(flock)
    except ReproError as failure:  # pragma: no cover - parse guards first
        out.append(
            error("check-no-plan", f"no plan could be built: {failure}")
        )
        return None


def check_flock(
    flock: "QueryFlock",
    db: Optional["Database"] = None,
) -> FlockCheck:
    """Run lint, safety, plan certification, and (with ``db``) the IR
    schema checker over one flock; returns the merged report."""
    from ..datalog.safety import check_safety, safety_diagnostics
    from ..flocks.executor import lower_filter_step
    from ..flocks.lint import lint_diagnostics
    from .certify import certify_plan, verify_certificate
    from .schema import check_physical_plan

    report = lint_diagnostics(flock)
    for index, rule in enumerate(flock.rules):
        label = f"rule {index + 1}" if flock.is_union else "query"
        report = report.merged(
            safety_diagnostics(check_safety(rule), location=label)
        )

    extra: list[Diagnostic] = []
    plan = _build_plan(flock, db, extra)
    certificate = None
    if plan is not None:
        certificate = certify_plan(flock, plan, witnesses=True)
        report = report.merged(verify_certificate(certificate))

    if db is not None and plan is not None:
        for step in plan.steps:
            try:
                step_plan = lower_filter_step(db, flock, step)
            except ReproError as failure:
                extra.append(
                    error(
                        "check-lowering-failed",
                        f"step {step.result_name} could not be lowered: "
                        f"{failure}",
                        location=f"step {step.result_name}",
                    )
                )
                continue
            report = report.merged(check_physical_plan(step_plan, db=db))

    report = report.merged(DiagnosticReport(tuple(extra)))
    return FlockCheck(
        flock=flock, plan=plan, certificate=certificate, report=report
    )


def _paper_flocks():
    """Every paper-figure flock, with its figure label."""
    from ..flocks import paper

    return [
        ("fig2", paper.fig2_flock()),
        ("fig2-ordered", paper.fig2_flock(ordered=True)),
        ("fig3", paper.fig3_flock()),
        ("fig4", paper.fig4_flock()),
        ("fig6(n=2)", paper.fig6_flock(2)),
        ("fig10", paper.fig10_flock()),
    ]


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.analysis.check [--paper] [FLOCKFILE...]``.

    Checks the paper-figure flocks and/or flock files (no database —
    lint, safety, and certified legality of the single-step plan) and
    prints one line per flock plus any diagnostics.  Exit status is the
    worst :meth:`DiagnosticReport.exit_code` seen, with ``info``-only
    reports treated as clean.
    """
    import argparse
    from pathlib import Path

    from ..flocks.flock import parse_flock

    parser = argparse.ArgumentParser(prog="python -m repro.analysis.check")
    parser.add_argument("--paper", action="store_true",
                        help="check every paper-figure flock")
    parser.add_argument("flocks", nargs="*", metavar="FLOCKFILE",
                        help="flock files to check")
    args = parser.parse_args(argv)

    targets: list[tuple[str, "QueryFlock"]] = []
    if args.paper:
        targets.extend(_paper_flocks())
    for path in args.flocks:
        targets.append((path, parse_flock(Path(path).read_text())))
    if not targets:
        parser.error("nothing to check: pass --paper and/or flock files")

    worst = 0
    for label, flock in targets:
        check = check_flock(flock)
        severe = [
            d for d in check.report
            if d.severity is not Severity.INFO
        ]
        status = "clean" if not severe else (
            "ERRORS" if not check.ok else "warnings"
        )
        print(f"{label}: {status} ({len(check.report.diagnostics)} "
              "diagnostic(s))")
        for diagnostic in severe:
            print(f"  {diagnostic}")
        if severe:
            worst = max(worst, check.exit_code())
    return worst


if __name__ == "__main__":
    sys.exit(main())
