"""Legality certificates: witnesses, certification, independent re-checking.

The acceptance bar of the verifier: every pre-filter step of a plan the
optimized or dynamic strategies would use carries a certificate whose
containment witness ``verify_certificate`` re-validates — and a
hand-built illegal plan is rejected with a diagnostic naming the step
and the violated rule.
"""

import dataclasses

import pytest

from repro.analysis import (
    HomomorphismWitness,
    SubgoalSubsetWitness,
    certify_plan,
    certify_step_bound,
    find_witness,
    verify_certificate,
    verify_witness,
)
from repro.datalog import SafetyReport, as_union, atom, comparison, rule
from repro.errors import FilterError, PlanError
from repro.flocks import (
    FilterStep,
    FlockOptimizer,
    QueryFlock,
    QueryPlan,
    evaluate_flock_dynamic,
    fig3_flock,
    fig5_plan,
    mine,
    optimize_union,
    parse_filter,
    single_step_plan,
)


def make_step(name, query):
    """A FilterStep over ``query`` with its parameters auto-declared."""
    params = tuple(sorted(as_union(query).parameters(), key=str))
    return FilterStep(name, params, query)


class TestFindWitness:
    def test_pure_cq_gets_homomorphism(self, basket_query):
        subquery = basket_query.with_body_subset([0])
        witness = find_witness(subquery, basket_query)
        assert isinstance(witness, HomomorphismWitness)
        assert verify_witness(subquery, basket_query, witness)

    def test_arithmetic_gets_klug(self, basket_query_ordered):
        subquery = basket_query_ordered.with_body_subset([0, 1])
        witness = find_witness(subquery, basket_query_ordered)
        # Dropping only the comparison keeps both rules pure of negation,
        # so Klug's sound-and-complete test applies.
        assert witness is not None
        assert witness.kind in ("homomorphism", "klug")
        assert verify_witness(subquery, basket_query_ordered, witness)

    def test_negation_gets_subgoal_subset(self, medical_query):
        subquery = medical_query.with_body_subset([0, 2, 3])
        witness = find_witness(subquery, medical_query)
        assert isinstance(witness, SubgoalSubsetWitness)
        assert [sg.predicate for sg in witness.deleted] == ["treatments"]
        assert verify_witness(subquery, medical_query, witness)

    def test_non_containing_subquery_has_no_witness(self, basket_query):
        foreign = rule("answer", ["B"], [atom("other", "B", "$1")])
        assert find_witness(foreign, basket_query) is None

    def test_wrong_witness_kind_rejected(self, medical_query):
        subquery = medical_query.with_body_subset([0, 2, 3])
        # A homomorphism claim is meaningless with negation present.
        assert not verify_witness(
            subquery, medical_query, HomomorphismWitness(())
        )

    def test_wrong_deleted_set_rejected(self, medical_query):
        subquery = medical_query.with_body_subset([0, 2, 3])
        bogus = SubgoalSubsetWitness((medical_query.body[0],))
        assert not verify_witness(subquery, medical_query, bogus)


class TestCertifyLegalPlans:
    def test_optimizer_plan_is_certified(self):
        from repro.flocks import itemset_flock
        from repro.workloads import basket_database

        db = basket_database(n_baskets=300, n_items=150, avg_basket_size=6,
                             skew=1.3, seed=7)
        flock = itemset_flock(2, support=20)
        scored = FlockOptimizer(db, flock).best_plan()
        certificate = scored.certificate
        assert certificate is not None and certificate.ok
        assert certificate.prefilter_steps  # the a-priori rewrite fired
        for step in certificate.prefilter_steps:
            for branch in step.branches:
                assert branch.witness is not None
                assert branch.safety.is_safe
        assert verify_certificate(certificate).is_clean

    def test_fig5_plan_certificate(self):
        flock = fig3_flock(support=2)
        plan = fig5_plan(flock, support=2)
        certificate = certify_plan(flock, plan)
        assert certificate.ok
        kinds = {
            branch.witness.kind
            for step in certificate.prefilter_steps
            for branch in step.branches
        }
        # Negation in the flock rule: the paper's subgoal-subset
        # criterion is the only sound containment argument.
        assert kinds == {"subgoal-subset"}
        assert verify_certificate(certificate).is_clean
        assert "witness=" in certificate.render()

    def test_union_plan_has_one_branch_per_rule(
        self, small_web_db, web_flock
    ):
        plan = optimize_union(small_web_db, web_flock)
        certificate = certify_plan(web_flock, plan)
        assert certificate.ok
        for step in certificate.steps:
            assert len(step.branches) == len(web_flock.rules)
        assert verify_certificate(certificate).is_clean

    def test_single_step_plan_has_no_prefilter_steps(self, basket_flock):
        certificate = certify_plan(basket_flock, single_step_plan(basket_flock))
        assert certificate.ok
        assert certificate.prefilter_steps == ()
        assert verify_certificate(certificate).is_clean

    def test_mine_attaches_certificate(self, small_basket_db, basket_flock):
        _result, report = mine(
            small_basket_db, basket_flock, strategy="optimized",
            verify_plans=True,
        )
        assert report.certificate is not None
        assert report.certificate.ok
        assert verify_certificate(report.certificate).is_clean

    @pytest.mark.parametrize("verify", [False, True])
    def test_union_flock_certified_like_single_rule(
        self, small_web_db, web_flock, small_basket_db, basket_flock, verify
    ):
        # Both plan shapes report a certificate whether or not the plan
        # was re-validated before it ran.
        for db, flock in (
            (small_web_db, web_flock), (small_basket_db, basket_flock)
        ):
            _result, report = mine(
                db, flock, strategy="optimized", verify_plans=verify
            )
            assert report.certificate is not None
            assert report.certificate.ok


class TestIllegalPlans:
    def codes(self, flock, plan):
        certificate = certify_plan(flock, plan)
        return {d.code for d in certificate.diagnostics}, certificate

    def test_unsafe_step_named_in_diagnostic(self, basket_flock):
        flock_rule = basket_flock.rules[0]
        bad = make_step("bad", flock_rule.with_body_subset([0, 2]))
        final = make_step(
            "ok", flock_rule.with_extra_subgoals([bad.ok_atom])
        )
        plan = QueryPlan((bad, final))
        codes, certificate = self.codes(basket_flock, plan)
        assert "plan-unsafe-step" in codes
        offending = [
            d for d in certificate.diagnostics.errors
            if d.code == "plan-unsafe-step"
        ]
        assert offending[0].location == "step bad"
        assert "rule 3" in offending[0].message
        with pytest.raises(PlanError, match="bad is unsafe"):
            certificate.raise_for_errors()

    def test_foreign_subgoal_rejected(self, basket_flock):
        flock_rule = basket_flock.rules[0]
        foreign = make_step(
            "f1",
            flock_rule.with_extra_subgoals([atom("intruder", "B")]),
        )
        final = make_step(
            "ok", flock_rule.with_extra_subgoals([foreign.ok_atom])
        )
        codes, _ = self.codes(basket_flock, QueryPlan((foreign, final)))
        assert "plan-foreign-subgoal" in codes
        assert "plan-not-containing" in codes

    def test_duplicate_step_name_rejected(self, basket_flock):
        flock_rule = basket_flock.rules[0]
        step = make_step("dup", flock_rule)
        codes, _ = self.codes(
            basket_flock, QueryPlan((step, step, make_step("ok", flock_rule)))
        )
        assert "plan-duplicate-step" in codes

    def test_shadowing_base_relation_rejected(self, basket_flock):
        flock_rule = basket_flock.rules[0]
        codes, _ = self.codes(
            basket_flock, QueryPlan((make_step("baskets", flock_rule),))
        )
        assert "plan-shadowed-relation" in codes

    def test_final_step_may_not_delete_subgoals(self, basket_flock):
        flock_rule = basket_flock.rules[0]
        # Deleting baskets(B,$2) and the comparison leaves only $1.
        truncated = make_step("ok", flock_rule.with_body_subset([0]))
        codes, _ = self.codes(basket_flock, QueryPlan((truncated,)))
        assert "plan-final-deletes-subgoal" in codes
        assert "plan-final-parameters" in codes

    def test_non_monotone_filter_blocks_prefilter_steps(self, basket_query_ordered):
        flock = QueryFlock(
            basket_query_ordered, parse_filter("COUNT(answer.B) = 5")
        )
        flock_rule = flock.rules[0]
        pre = make_step("f1", flock_rule.with_body_subset([0]))
        final = make_step("ok", flock_rule.with_extra_subgoals([pre.ok_atom]))
        certificate = certify_plan(flock, QueryPlan((pre, final)))
        assert "plan-non-monotone-filter" in {
            d.code for d in certificate.diagnostics
        }
        with pytest.raises(FilterError, match="not monotone"):
            certificate.raise_for_errors()


@pytest.fixture
def basket_two_step(basket_flock):
    """A legal hand-built two-step plan over the ordered basket flock."""
    flock_rule = basket_flock.rules[0]
    pre = make_step("f1", flock_rule.with_body_subset([0]))
    final = make_step("ok", flock_rule.with_extra_subgoals([pre.ok_atom]))
    plan = QueryPlan((pre, final))
    return certify_plan(basket_flock, plan)


def replace_branch(certificate, **changes):
    """The certificate with its first pre-filter branch altered."""
    step = certificate.steps[0]
    branch = dataclasses.replace(step.branches[0], **changes)
    new_step = dataclasses.replace(step, branches=(branch,) + step.branches[1:])
    return dataclasses.replace(
        certificate, steps=(new_step,) + certificate.steps[1:]
    )


class TestTamperedCertificates:
    def test_fresh_certificate_is_clean(self, basket_two_step):
        assert basket_two_step.ok
        assert verify_certificate(basket_two_step).is_clean

    def test_tampered_witness_detected(self, basket_two_step):
        forged = replace_branch(
            basket_two_step, witness=HomomorphismWitness(())
        )
        report = verify_certificate(forged)
        assert "certificate-witness-invalid" in {d.code for d in report}

    def test_tampered_subquery_detected(self, basket_two_step):
        flock_rule = basket_two_step.flock.rules[0]
        forged = replace_branch(basket_two_step, subquery=flock_rule)
        report = verify_certificate(forged)
        assert "certificate-mismatch" in {d.code for d in report}

    def test_missing_branch_detected(self, basket_two_step):
        step = dataclasses.replace(basket_two_step.steps[0], branches=())
        forged = dataclasses.replace(
            basket_two_step, steps=(step,) + basket_two_step.steps[1:]
        )
        report = verify_certificate(forged)
        assert "certificate-missing-branch" in {d.code for d in report}

    def test_fabricated_safety_report_detected(self, basket_two_step):
        branch = basket_two_step.steps[0].branches[0]
        fake = SafetyReport(
            branch.subquery,
            violations=(),
            witnesses=((branch.subquery.head_terms[0], atom("zzz", "B")),),
        )
        forged = replace_branch(basket_two_step, safety=fake)
        report = verify_certificate(forged)
        assert "certificate-safety-invalid" in {d.code for d in report}


class TestDynamicCertificates:
    def test_dynamic_decisions_carry_certificates(
        self, small_medical_db, medical_flock
    ):
        _result, trace = evaluate_flock_dynamic(
            small_medical_db, medical_flock
        )
        assert trace.certificates
        for certificate in trace.certificates:
            assert certificate.witness is not None
            assert certificate.verify().is_clean
        assert any(c.step_name == "root" for c in trace.certificates)

    def test_certify_step_bound_on_safe_subset(self, medical_query):
        certificate = certify_step_bound(medical_query, (0, 2, 3), "n1")
        assert certificate.safety.is_safe
        assert isinstance(certificate.witness, SubgoalSubsetWitness)
        assert certificate.verify().is_clean

    def test_certify_step_bound_flags_unsafe_subset(self, medical_query):
        certificate = certify_step_bound(medical_query, (0, 3), "n1")
        assert not certificate.safety.is_safe
        report = certificate.verify()
        assert "plan-unsafe-step" in {d.code for d in report}

    def test_mine_dynamic_records_decision_certificates(
        self, small_medical_db, medical_flock
    ):
        _result, report = mine(
            small_medical_db, medical_flock, strategy="dynamic",
            verify_plans=True,
        )
        assert report.decision_certificates
        for certificate in report.decision_certificates:
            assert certificate.verify().is_clean
