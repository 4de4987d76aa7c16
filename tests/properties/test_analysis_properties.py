"""Verifier totality properties.

Every plan the library itself produces must satisfy its own verifiers:
UES-ordered and explicitly ordered lowerings type-check against the IR
schema, and every legal FILTER-step plan earns a legality certificate
that independently re-validates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import certify_plan, check_physical_plan, verify_certificate
from repro.datalog.subqueries import safe_subqueries
from repro.engine import lower_rule
from repro.flocks import (
    FlockOptimizer,
    execute_step,
    fig3_flock,
    plan_from_subqueries,
)
from repro.flocks.executor import lower_filter_step
from repro.relational import database_from_dict


diag = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from(["d1", "d2", "d3"])),
    max_size=7,
    unique_by=lambda t: t[0],
)
exh = st.frozensets(
    st.tuples(st.integers(0, 6), st.sampled_from(["s1", "s2"])), max_size=14
)
trt = st.frozensets(
    st.tuples(st.integers(0, 6), st.sampled_from(["m1", "m2"])), max_size=14
)
cse = st.frozensets(
    st.tuples(st.sampled_from(["d1", "d2", "d3"]), st.sampled_from(["s1", "s2"])),
    max_size=6,
)
supports = st.integers(1, 3)


def medical_db(diag, exh, trt, cse):
    return database_from_dict(
        {
            "diagnoses": (("P", "D"), diag),
            "exhibits": (("P", "S"), exh),
            "treatments": (("P", "M"), trt),
            "causes": (("D", "S"), cse),
        }
    )


class TestLoweringAlwaysTypeChecks:
    @given(diag, exh, trt, cse, st.sampled_from([None, [2, 1, 0]]))
    @settings(max_examples=30, deadline=None)
    def test_lowered_rule_plans_are_clean(
        self, diag, exh, trt, cse, join_order
    ):
        db = medical_db(diag, exh, trt, cse)
        query = fig3_flock(support=2).rules[0]
        plan = lower_rule(db, query, join_order=join_order)
        assert check_physical_plan(plan, db=db).is_clean


class TestCertificatesAlwaysRevalidate:
    @given(diag, exh, trt, cse, supports)
    @settings(max_examples=15, deadline=None)
    def test_safe_subquery_plans_certify_and_type_check(
        self, diag, exh, trt, cse, support
    ):
        db = medical_db(diag, exh, trt, cse)
        flock = fig3_flock(support=support)
        for candidate in safe_subqueries(flock.rules[0]):
            if not candidate.parameters:
                continue
            plan = plan_from_subqueries(flock, [("okX", candidate)])
            certificate = certify_plan(flock, plan)
            assert certificate.ok
            assert all(
                branch.witness is not None
                for step in certificate.steps
                for branch in step.branches
            )
            assert verify_certificate(certificate).is_clean
            # Lower and type-check every step the way the executor does:
            # later steps see earlier steps' ok-relations in the catalog.
            scratch = db.scratch()
            for step in plan.steps:
                step_plan = lower_filter_step(scratch, flock, step)
                assert check_physical_plan(step_plan, db=scratch).is_clean
                ok, _ = execute_step(scratch, flock, step)
                scratch.add(ok)

    @given(diag, exh, trt, cse, supports)
    @settings(max_examples=15, deadline=None)
    def test_optimizer_best_plan_certificate_revalidates(
        self, diag, exh, trt, cse, support
    ):
        db = medical_db(diag, exh, trt, cse)
        flock = fig3_flock(support=support)
        scored = FlockOptimizer(db, flock).best_plan()
        assert scored.certificate is not None
        assert scored.certificate.ok
        assert verify_certificate(scored.certificate).is_clean
