"""The IR schema checker: clean lowered plans, corrupted plans rejected.

The acceptance bar: a hand-corrupted ``PhysicalPlan``/``StepPlan`` (a
dangling join key, a mis-typed aggregate, ...) is rejected by
``check_physical_plan`` *before execution* — on the in-memory engine and
on the SQL renderer alike.
"""

import dataclasses

import pytest

from repro.analysis import assert_physical_plan, check_physical_plan
from repro.datalog import Variable, atom, rule
from repro.engine import MemoryEngine, lower_rule
from repro.engine.sqlgen import column_source, render_step
from repro.errors import PlanError
from repro.flocks import single_step_plan
from repro.flocks.executor import lower_filter_step


@pytest.fixture
def medical_plan(small_medical_db, medical_query):
    return lower_rule(small_medical_db, medical_query)


@pytest.fixture
def basket_step(small_basket_db, basket_flock):
    step = single_step_plan(basket_flock).steps[0]
    return lower_filter_step(small_basket_db, basket_flock, step)


@pytest.fixture
def web_step(small_web_db, web_flock):
    step = single_step_plan(web_flock).steps[0]
    return lower_filter_step(small_web_db, web_flock, step)


def corrupt_join(plan, **changes):
    """The plan with its second stage's HashJoin altered."""
    stage = plan.stages[1]
    join = dataclasses.replace(stage.join, **changes)
    stages = (
        plan.stages[:1]
        + (dataclasses.replace(stage, join=join),)
        + plan.stages[2:]
    )
    return dataclasses.replace(plan, stages=stages)


def codes(plan, db=None):
    return {d.code for d in check_physical_plan(plan, db=db)}


class TestRulePlans:
    def test_lowered_plan_is_clean(self, small_medical_db, medical_plan):
        report = check_physical_plan(medical_plan, db=small_medical_db)
        assert report.is_clean

    @pytest.mark.parametrize("ordered_by", ["explicit", "ues"])
    def test_both_orderers_type_check(
        self, small_medical_db, medical_query, ordered_by
    ):
        order = [2, 1, 0] if ordered_by == "explicit" else None
        plan = lower_rule(small_medical_db, medical_query, join_order=order)
        assert plan.ordered_by == ordered_by
        assert check_physical_plan(plan, db=small_medical_db).is_clean

    def test_dangling_join_key(self, medical_plan):
        bad = corrupt_join(medical_plan, on=("nope",))
        assert "ir-dangling-join-key" in codes(bad)

    def test_wrong_join_output_columns(self, medical_plan):
        bad = corrupt_join(medical_plan, columns=("only",))
        assert "ir-join-columns" in codes(bad)

    def test_wrong_scan_columns(self, medical_plan):
        stage = medical_plan.stages[0]
        scan = dataclasses.replace(stage.scan, columns=("X", "Y", "Z"))
        bad = dataclasses.replace(
            medical_plan,
            stages=(dataclasses.replace(stage, scan=scan),)
            + medical_plan.stages[1:],
        )
        assert "ir-scan-columns" in codes(bad)

    def test_first_stage_must_not_join(self, medical_plan):
        joined = medical_plan.stages[1]
        bad = dataclasses.replace(
            medical_plan, stages=(joined,) + medical_plan.stages[1:]
        )
        assert "ir-unexpected-join" in codes(bad)

    def test_later_stage_must_join(self, medical_plan):
        unjoined = dataclasses.replace(medical_plan.stages[1], join=None)
        bad = dataclasses.replace(
            medical_plan,
            stages=(medical_plan.stages[0], unjoined)
            + medical_plan.stages[2:],
        )
        assert "ir-missing-join" in codes(bad)

    def test_unbound_output_term(self, medical_plan):
        root = dataclasses.replace(
            medical_plan.root, output_terms=(Variable("ZZZ"),)
        )
        bad = dataclasses.replace(medical_plan, root=root)
        assert "ir-unbound-output" in codes(bad)

    def test_materialize_width_mismatch(self, medical_plan):
        root = dataclasses.replace(medical_plan.root, columns=("a", "b"))
        bad = dataclasses.replace(medical_plan, root=root)
        assert "ir-materialize-width" in codes(bad)

    def test_catalog_unknown_relation(self, medical_plan, small_basket_db):
        # A plan lowered against one catalog, checked against another
        # that lacks its relations.
        assert "ir-unknown-relation" in codes(
            medical_plan, db=small_basket_db
        )

    def test_catalog_arity_mismatch(self):
        from repro.relational import database_from_dict

        db = database_from_dict({"r": (("a", "b", "c"), [(1, 2, 3)])})
        query = rule("answer", ["X"], [atom("r", "X", "Y")])
        from repro.analysis import plan_verification

        with plan_verification(False):  # let the bad plan be built
            plan = lower_rule(db, query)
        assert "ir-arity-mismatch" in codes(plan, db=db)
        # ... and the lowering gate catches it when verification is on.
        with pytest.raises(PlanError, match="ir-arity-mismatch"):
            lower_rule(db, query)

    def test_not_a_plan(self):
        assert "ir-unknown-plan" in {
            d.code for d in check_physical_plan(object())
        }


class TestStepPlans:
    def test_lowered_step_is_clean(self, small_basket_db, basket_step):
        assert check_physical_plan(basket_step, db=small_basket_db).is_clean

    def test_union_step_is_clean(self, small_web_db, web_step):
        assert len(web_step.branches) == 3
        assert check_physical_plan(web_step, db=small_web_db).is_clean

    def test_mistyped_aggregate_target(self, basket_step):
        spec = dataclasses.replace(
            basket_step.group.aggregates[0], target=("nope",)
        )
        group = dataclasses.replace(basket_step.group, aggregates=(spec,))
        bad = dataclasses.replace(basket_step, group=group)
        assert "ir-aggregate-target" in codes(bad)

    def test_aggregate_column_collision(self, basket_step):
        spec = dataclasses.replace(
            basket_step.group.aggregates[0],
            column=basket_step.answer_columns[0],
        )
        group = dataclasses.replace(basket_step.group, aggregates=(spec,))
        bad = dataclasses.replace(basket_step, group=group)
        assert "ir-aggregate-column" in codes(bad)

    def test_group_key_must_be_answer_column(self, basket_step):
        group = dataclasses.replace(
            basket_step.group,
            group_by=("phantom",) + basket_step.group.group_by[1:],
        )
        bad = dataclasses.replace(basket_step, group=group)
        assert "ir-group-key" in codes(bad)

    def test_union_branch_schema_must_agree(self, basket_step):
        branch = basket_step.branches[0]
        root = dataclasses.replace(branch.root, columns=("w", "r", "o"))
        bad_branch = dataclasses.replace(branch, root=root)
        bad = dataclasses.replace(basket_step, branches=(bad_branch,))
        found = codes(bad)
        assert "ir-union-schema" in found

    def test_union_operator_schema_must_agree(self, basket_step):
        union = dataclasses.replace(basket_step.union, columns=("x",))
        bad = dataclasses.replace(basket_step, union=union)
        assert "ir-union-schema" in codes(bad)

    def test_threshold_must_test_produced_aggregate(self, basket_step):
        threshold = dataclasses.replace(
            basket_step.threshold,
            conditions=tuple(
                (cond, "_ghost")
                for cond, _ in basket_step.threshold.conditions
            ),
        )
        bad = dataclasses.replace(basket_step, threshold=threshold)
        assert "ir-threshold-column" in codes(bad)

    def test_dropping_group_key_breaks_distinctness(self, basket_step):
        root = dataclasses.replace(basket_step.root, columns=())
        bad = dataclasses.replace(basket_step, root=root)
        assert "ir-distinctness" in codes(bad)

    def test_empty_step_rejected(self, basket_step):
        bad = dataclasses.replace(basket_step, branches=())
        assert "ir-empty-step" in codes(bad)


class TestScanFilters:
    """Runtime semi-join filters: justified ones pass, corrupted ones
    draw each of the four ir-scanfilter-* codes."""

    @pytest.fixture
    def scanfilter_db(self):
        from repro.relational import database_from_dict

        return database_from_dict(
            {
                "ok": (("P",), [(1,), (2,)]),
                # In the catalog but *not* in the query: a filter sourced
                # from it is well-typed yet unjustified.
                "bystander": (("P",), [(1,)]),
                "r": (("B", "P"), [(1, 1), (2, 2), (3, 3)]),
            }
        )

    @pytest.fixture
    def filtered_plan(self, scanfilter_db):
        from repro.engine.ir import ScanFilter

        query = rule(
            "answer", ["B"], [atom("ok", "P"), atom("r", "B", "P")]
        )
        plan = lower_rule(scanfilter_db, query)
        return self.with_filter(plan, ScanFilter("P", "ok", "P", keys=2))

    @staticmethod
    def with_filter(plan, scan_filter):
        """The plan with ``scan_filter`` attached to the scan of r."""
        stages = tuple(
            dataclasses.replace(stage, scan_filters=(scan_filter,))
            if stage.scan.atom.predicate == "r"
            else stage
            for stage in plan.stages
        )
        return dataclasses.replace(plan, stages=stages)

    @staticmethod
    def refilter(plan, **changes):
        """The plan with its one scan filter's fields altered."""
        stage = next(s for s in plan.stages if s.scan_filters)
        replaced = dataclasses.replace(stage.scan_filters[0], **changes)
        return TestScanFilters.with_filter(plan, replaced)

    def test_justified_filter_is_clean(self, scanfilter_db, filtered_plan):
        assert check_physical_plan(filtered_plan, db=scanfilter_db).is_clean

    def test_filter_on_unscanned_column(self, scanfilter_db, filtered_plan):
        bad = self.refilter(filtered_plan, column="Z")
        assert "ir-scanfilter-column" in codes(bad, db=scanfilter_db)

    def test_unjustified_source(self, scanfilter_db, filtered_plan):
        # bystander exists and has column P, but no positive subgoal
        # joins it — the semi-join has no legality certificate.
        bad = self.refilter(filtered_plan, source="bystander")
        found = codes(bad, db=scanfilter_db)
        assert "ir-scanfilter-unjustified" in found
        assert "ir-scanfilter-source" not in found

    def test_source_missing_from_catalog(self, filtered_plan):
        from repro.relational import database_from_dict

        okless = database_from_dict(
            {"r": (("B", "P"), [(1, 1)])}
        )
        assert "ir-scanfilter-source" in codes(filtered_plan, db=okless)

    def test_source_column_missing(self, scanfilter_db, filtered_plan):
        bad = self.refilter(filtered_plan, source_column="nope")
        assert "ir-scanfilter-source-column" in codes(bad, db=scanfilter_db)

    def test_catalog_checks_skipped_without_db(self, filtered_plan):
        # Without a catalog only the structural/justification checks
        # run; a dangling source cannot be detected.
        bad = self.refilter(filtered_plan, source_column="nope")
        assert "ir-scanfilter-source-column" not in codes(bad)

    def test_memory_engine_gates_unjustified_filter(
        self, scanfilter_db, filtered_plan
    ):
        bad = self.refilter(filtered_plan, source="bystander")
        with pytest.raises(PlanError, match="ir-scanfilter-unjustified"):
            MemoryEngine(scanfilter_db).run_plan(bad)


class TestExecutionGates:
    """Both backends refuse a corrupted plan before running it."""

    def test_memory_engine_rejects_corrupt_rule_plan(
        self, small_medical_db, medical_plan
    ):
        bad = corrupt_join(medical_plan, on=("nope",))
        with pytest.raises(PlanError, match="ir-dangling-join-key"):
            MemoryEngine(small_medical_db).run_plan(bad)

    def test_memory_engine_rejects_corrupt_step_plan(
        self, small_basket_db, basket_step
    ):
        spec = dataclasses.replace(
            basket_step.group.aggregates[0], target=("nope",)
        )
        group = dataclasses.replace(basket_step.group, aggregates=(spec,))
        bad = dataclasses.replace(basket_step, group=group)
        with pytest.raises(PlanError, match="ir-aggregate-target"):
            MemoryEngine(small_basket_db).run_step(bad)

    def test_sql_renderer_rejects_corrupt_step_plan(
        self, small_basket_db, basket_step
    ):
        branch = corrupt_join(basket_step.branches[0], on=("nope",))
        bad = dataclasses.replace(basket_step, branches=(branch,))
        with pytest.raises(PlanError, match="ir-dangling-join-key"):
            render_step(bad, column_source(small_basket_db, {}))

    def test_assert_physical_plan_passes_clean_plan(
        self, small_medical_db, medical_plan
    ):
        assert_physical_plan(medical_plan, db=small_medical_db)

    def test_gate_is_off_without_verification(
        self, small_basket_db, basket_step
    ):
        from repro.analysis import plan_verification

        root = dataclasses.replace(basket_step.root, columns=())
        bad = dataclasses.replace(basket_step, root=root)
        with plan_verification(False):
            # No pre-execution gate: the renderer emits (wrong) SQL
            # rather than raising.
            sql = render_step(bad, column_source(small_basket_db, {}))
        assert "SELECT" in sql

    def test_set_plan_verification_flips_the_ambient_switch(self):
        from repro.analysis import (
            plan_verification,
            plan_verification_enabled,
            set_plan_verification,
        )

        before = plan_verification_enabled()
        with plan_verification(True):
            set_plan_verification(False)
            assert plan_verification_enabled() is False
            set_plan_verification(True)
            assert plan_verification_enabled() is True
            set_plan_verification(False)
        # Leaving the scoped block restores the switch it found.
        assert plan_verification_enabled() is before
