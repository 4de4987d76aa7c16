"""Dynamic-evaluation tests (Section 4.4)."""

import pytest

from repro import mine
from repro.analysis import plan_verification
from repro.datalog.safety import assert_safe
from repro.engine import lower_rule
from repro.errors import FilterError, PlanError
from repro.flocks import (
    DynamicEvaluator,
    QueryFlock,
    evaluate_flock,
    evaluate_flock_dynamic,
    fig3_flock,
    parse_filter,
    parse_flock,
    support_filter,
)
from repro.recovery import RetryPolicy, TransientFault
from repro.testing.faults import inject
from repro.workloads import basket_database, generate_medical


class TestCorrectness:
    def test_matches_naive_on_baskets(self, small_basket_db, basket_flock):
        naive = evaluate_flock(small_basket_db, basket_flock)
        result, _trace = evaluate_flock_dynamic(small_basket_db, basket_flock)
        assert result.relation == naive

    def test_matches_naive_on_medical(self, small_medical_db, medical_flock):
        naive = evaluate_flock(small_medical_db, medical_flock)
        result, _trace = evaluate_flock_dynamic(small_medical_db, medical_flock)
        assert result.relation == naive

    @pytest.mark.parametrize("decision_factor", [0.0, 0.5, 1.0, 5.0, 100.0])
    def test_any_decision_factor_is_sound(
        self, small_medical_db, medical_flock, decision_factor
    ):
        """Filtering decisions affect speed, never the answer."""
        naive = evaluate_flock(small_medical_db, medical_flock)
        result, _ = evaluate_flock_dynamic(
            small_medical_db, medical_flock, decision_factor=decision_factor
        )
        assert result.relation == naive

    def test_explicit_join_orders_are_sound(self, small_medical_db, medical_flock):
        naive = evaluate_flock(small_medical_db, medical_flock)
        for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
            result, _ = evaluate_flock_dynamic(
                small_medical_db, medical_flock, join_order=order
            )
            assert result.relation == naive

    def test_on_generated_workload(self):
        workload = generate_medical(n_patients=300, seed=3)
        from repro.datalog import atom, negated, rule

        query = rule(
            "answer",
            ["P"],
            [
                atom("exhibits", "P", "$s"),
                atom("treatments", "P", "$m"),
                atom("diagnoses", "P", "D"),
                negated("causes", "D", "$s"),
            ],
        )
        flock = QueryFlock(query, support_filter(8, target="P"))
        naive = evaluate_flock(workload.db, flock)
        result, trace = evaluate_flock_dynamic(workload.db, flock)
        assert result.relation == naive
        assert trace.decisions  # decisions were recorded


class TestDecisions:
    def test_root_always_filtered(self, small_medical_db, medical_flock):
        _, trace = evaluate_flock_dynamic(small_medical_db, medical_flock)
        assert trace.decisions[-1].node == "root"
        assert trace.decisions[-1].filtered

    def test_high_factor_filters_aggressively(
        self, small_medical_db, medical_flock
    ):
        _, eager = evaluate_flock_dynamic(
            small_medical_db, medical_flock, decision_factor=1000.0
        )
        _, lazy = evaluate_flock_dynamic(
            small_medical_db, medical_flock, decision_factor=0.0
        )
        assert eager.filters_applied() >= lazy.filters_applied()

    def test_lazy_factor_only_filters_root(self, small_medical_db, medical_flock):
        _, trace = evaluate_flock_dynamic(
            small_medical_db,
            medical_flock,
            decision_factor=0.0,
            improvement_factor=0.0,
        )
        assert trace.filters_applied() == 1  # just the root

    def test_plan_lines_rendered(self, small_medical_db, medical_flock):
        _, trace = evaluate_flock_dynamic(
            small_medical_db, medical_flock, decision_factor=1000.0
        )
        text = trace.render_plan()
        assert "FILTER" in text
        assert "flock($m, $s)" in text

    def test_decision_str_readable(self, small_medical_db, medical_flock):
        _, trace = evaluate_flock_dynamic(small_medical_db, medical_flock)
        for decision in trace.decisions:
            line = str(decision)
            assert "ratio=" in line

    def test_ratio_computation(self, small_medical_db, medical_flock):
        # exhibits has 7 tuples over 3 distinct symptoms (fever, rash,
        # cough) -> ratio 7/3 at the $s leaf.
        _, trace = evaluate_flock_dynamic(
            small_medical_db, medical_flock, decision_factor=1.0
        )
        leaf_decisions = [
            d for d in trace.decisions if d.parameter_columns == ("$s",)
        ]
        assert leaf_decisions
        assert leaf_decisions[0].tuples_per_assignment == pytest.approx(7 / 3)


class TestJoinOrderIsFixed:
    """A run's join order is decided once, at lowering: however far the
    observed sizes drift from the estimates, the stages that run are the
    lowered plan's, in its order."""

    @pytest.mark.parametrize("join_order", [None, [1, 0, 2], [0, 2, 1]])
    def test_stages_that_ran_are_the_lowered_plan(self, join_order):
        db = generate_medical(n_patients=300, seed=3).db
        flock = fig3_flock(support=8)
        # Filtering at every offered node moves observed sizes furthest
        # from the lowering-time estimates.
        result, trace = evaluate_flock_dynamic(
            db, flock, decision_factor=1000.0, join_order=join_order
        )
        plan = lower_rule(db, flock.rules[0], join_order=join_order)
        assert trace.filters_applied() > 1
        assert [o.node for o in result.stage_rows] == [
            s.node for s in plan.stages
        ]
        assert len({s.node for s in plan.stages}) == len(plan.stages)
        assert result.relation == evaluate_flock(db, flock)


class TestValidation:
    def test_union_rejected(self, small_web_db, web_flock):
        with pytest.raises(PlanError):
            DynamicEvaluator(small_web_db, web_flock)

    def test_non_monotone_rejected(self, small_medical_db, medical_query):
        flock = QueryFlock(medical_query, parse_filter("COUNT(answer.P) = 3"))
        with pytest.raises(FilterError):
            DynamicEvaluator(small_medical_db, flock)


WIDE_HEAD = """QUERY:
answer(B, C) :- baskets(B,$1) AND baskets(B,$2) AND baskets(B,C) AND $1 < $2
FILTER:
COUNT(answer.B) >= 60
"""


class PublishingSink:
    """Session-sink double keeping every in-flight FILTER's subquery."""

    def __init__(self):
        self.subqueries = []

    def publish_step(self, query, param_columns, ok, source_rows):
        self.subqueries.append(query)

    def publish_final(self, with_aggregates, source_rows):
        pass


class TestWideHeads:
    """An in-flight FILTER is offered only once the absorbed subgoals
    bind every head variable (here C, bound by the last subgoal)."""

    @pytest.fixture
    def db(self):
        return basket_database(300, 30, seed=1)

    def test_verified_run_stays_dynamic(self, db):
        flock = parse_flock(WIDE_HEAD)
        relation, report = mine(db, flock, verify_plans=True, parallelism=1)
        assert report.strategy_used == "dynamic"
        assert not report.downgrades
        naive, _ = mine(db, flock, strategy="naive")
        assert relation == naive

    def test_unverified_run_publishes_only_safe_subqueries(self, db):
        """Verification off (the library default) certifies nothing, so
        the head-variable rule alone keeps the session cache sound."""
        sink = PublishingSink()
        with plan_verification(False):
            evaluate_flock_dynamic(
                db, parse_flock(WIDE_HEAD), decision_factor=1000.0, sink=sink
            )
        for subquery in sink.subqueries:
            assert_safe(subquery)


class TestRetry:
    @pytest.mark.faults
    def test_transient_fault_retries_the_step(
        self, small_basket_db, basket_flock
    ):
        """A transient fault at the second stage's leaf (after the first
        leaf's decision was logged) re-runs the step: the decision log
        restarts, so it reads exactly like a fault-free run's."""
        options = dict(
            strategy="dynamic", parallelism=1,
            retry=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        clean, clean_report = mine(small_basket_db, basket_flock, **options)
        with inject("dynamic.join", TransientFault, skip=1, times=1):
            relation, report = mine(small_basket_db, basket_flock, **options)
        assert relation == clean
        retries = [d for d in report.downgrades if d.kind == "retry"]
        assert [(d.from_name, d.to_name) for d in retries] == [
            ("step:ok", "recovered")
        ]
        assert len(clean_report.decision_text.splitlines()) > 1
        assert report.decision_text == clean_report.decision_text
