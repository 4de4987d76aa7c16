"""Plan-executor tests: every legal plan computes the naive result."""

import pytest

import repro.flocks.executor as executor_module
from repro.datalog import Parameter
from repro.engine.memory import MemoryEngine
from repro.datalog.subqueries import (
    SubqueryCandidate,
    union_subqueries_with_parameters,
)
from repro.flocks import FilterStep, QueryFlock, evaluate_flock, execute_plan, execute_step, plan_from_subqueries, single_step_plan, support_filter


def fig5_plan(flock):
    rule = flock.rules[0]
    chosen = [
        ("okS", SubqueryCandidate((0,), rule.with_body_subset([0]))),
        ("okM", SubqueryCandidate((1,), rule.with_body_subset([1]))),
    ]
    return plan_from_subqueries(flock, chosen)


class TestExecuteStep:
    def test_prefilter_step_result(self, small_medical_db, medical_flock):
        rule = medical_flock.rules[0]
        step = FilterStep("okS", (Parameter("s"),), rule.with_body_subset([0]))
        ok, answer_tuples = execute_step(small_medical_db, medical_flock, step)
        assert ok.name == "okS"
        assert ok.columns == ("$s",)
        # Symptoms with >= 2 patients: fever (1,2,4) and rash (1,2,5).
        assert ok.tuples == frozenset({("fever",), ("rash",)})
        assert answer_tuples == 7  # |exhibits|

    def test_step_with_ok_atom(self, small_medical_db, medical_flock):
        plan = fig5_plan(medical_flock)
        scratch = small_medical_db.scratch()
        for step in plan.steps[:-1]:
            ok, _ = execute_step(scratch, medical_flock, step)
            scratch.add(ok)
        final_ok, _ = execute_step(scratch, medical_flock, plan.final_step)
        assert final_ok.project(["$m", "$s"]).tuples == frozenset(
            {("aspirin", "rash")}
        )


class TestExecutePlan:
    def test_single_step_plan_equals_naive(self, small_medical_db, medical_flock):
        naive = evaluate_flock(small_medical_db, medical_flock)
        result = execute_plan(
            small_medical_db, medical_flock, single_step_plan(medical_flock)
        )
        assert result.relation == naive

    def test_fig5_plan_equals_naive(self, small_medical_db, medical_flock):
        naive = evaluate_flock(small_medical_db, medical_flock)
        result = execute_plan(small_medical_db, medical_flock, fig5_plan(medical_flock))
        assert result.relation == naive

    def test_trace_records_every_step(self, small_medical_db, medical_flock):
        result = execute_plan(
            small_medical_db, medical_flock, fig5_plan(medical_flock)
        )
        assert result.trace is not None
        assert [s.name for s in result.trace.steps] == ["okS", "okM", "ok"]
        assert all(s.seconds >= 0 for s in result.trace.steps)

    def test_prefilters_shrink_final_join(self, small_medical_db, medical_flock):
        with_prefilters = execute_plan(
            small_medical_db, medical_flock, fig5_plan(medical_flock)
        )
        plain = execute_plan(
            small_medical_db, medical_flock, single_step_plan(medical_flock)
        )
        final_filtered = with_prefilters.trace.steps[-1].input_tuples
        final_plain = plain.trace.steps[-1].input_tuples
        assert final_filtered <= final_plain

    def test_base_db_not_polluted(self, small_medical_db, medical_flock):
        execute_plan(small_medical_db, medical_flock, fig5_plan(medical_flock))
        assert "okS" not in small_medical_db
        assert "okM" not in small_medical_db

    def test_result_columns_canonical_order(self, small_medical_db, medical_flock):
        result = execute_plan(
            small_medical_db, medical_flock, fig5_plan(medical_flock)
        )
        assert result.relation.columns == ("$m", "$s")

    def test_validate_flag(self, small_medical_db, medical_flock):
        plan = fig5_plan(medical_flock)
        fast = execute_plan(small_medical_db, medical_flock, plan, validate=False)
        slow = execute_plan(small_medical_db, medical_flock, plan, validate=True)
        assert fast.relation == slow.relation

    def test_union_plan_execution(self, small_web_db, web_flock):
        naive = evaluate_flock(small_web_db, web_flock)
        cands = union_subqueries_with_parameters(web_flock.query, [Parameter("1")])
        plan = plan_from_subqueries(web_flock, [("ok1", cands[0])])
        result = execute_plan(small_web_db, web_flock, plan)
        assert result.relation == naive

    def test_flock_result_container_api(self, small_medical_db, medical_flock):
        result = execute_plan(
            small_medical_db, medical_flock, single_step_plan(medical_flock)
        )
        assert len(result) == 1
        assert ("aspirin", "rash") in result
        assert list(result)


class TestPlanCorrectnessAcrossThresholds:
    @pytest.mark.parametrize("threshold", [1, 2, 3, 5])
    def test_baskets_all_thresholds(
        self, small_basket_db, basket_query_ordered, threshold
    ):
        flock = QueryFlock(
            basket_query_ordered, support_filter(threshold, target="B")
        )
        rule = flock.rules[0]
        plan = plan_from_subqueries(
            flock,
            [
                ("ok1", SubqueryCandidate((0,), rule.with_body_subset([0]))),
                ("ok2", SubqueryCandidate((1,), rule.with_body_subset([1]))),
            ],
        )
        naive = evaluate_flock(small_basket_db, flock)
        planned = execute_plan(small_basket_db, flock, plan)
        assert planned.relation == naive


# ----------------------------------------------------------------------
# The step-runner seam: everything but the step body is attached once,
# in execute_plan, whichever runner executes the steps
# ----------------------------------------------------------------------


class RecordingRunner:
    """A fake step runner: logs every call, delegates to the real one."""

    def __init__(self):
        self.inner = executor_module.MemoryRunner()
        self.calls = []

    def run_step(self, step_plan, db, need_aggregates):
        self.calls.append((step_plan.result_name, need_aggregates))
        return self.inner.run_step(step_plan, db, need_aggregates)


class RecordingSupervisor:
    def __init__(self):
        self.sites = []

    def run(self, fn, site="step"):
        self.sites.append(site)
        return fn()


class RecordingRecorder:
    """Checkpoint-recorder double; ``saved`` holds already-durable steps."""

    def __init__(self, saved=None):
        self.saved = dict(saved or {})
        self.completed = []
        self.finished = 0

    def served(self, step_name):
        return self.saved.get(step_name)

    def complete(self, step_name, relation):
        self.completed.append(step_name)

    def finish(self):
        self.finished += 1


class RecordingSink:
    """Session-sink double; ``cached`` maps a step's parameter columns
    to a relation served in place of executing the step."""

    def __init__(self, cached=None):
        self.cached = dict(cached or {})
        self.published_steps = []
        self.published_final = []

    def serve_step(self, query, param_columns):
        return self.cached.get(tuple(param_columns))

    def publish_step(self, query, param_columns, ok, source_rows):
        self.published_steps.append(tuple(param_columns))

    def publish_final(self, with_aggregates, source_rows):
        self.published_final.append(with_aggregates.columns)


class TestStepRunnerSeam:
    @pytest.fixture
    def lowered(self, monkeypatch):
        """Names of the steps lowered, in order."""
        names = []
        real = executor_module.lower_filter_step

        def counting(db, flock, step, **kwargs):
            names.append(step.result_name)
            return real(db, flock, step, **kwargs)

        monkeypatch.setattr(executor_module, "lower_filter_step", counting)
        return names

    def test_each_step_attached_once(
        self, small_medical_db, medical_flock, lowered
    ):
        runner = RecordingRunner()
        supervisor = RecordingSupervisor()
        recorder = RecordingRecorder()
        sink = RecordingSink()
        result = execute_plan(
            small_medical_db, medical_flock, fig5_plan(medical_flock),
            runner=runner, supervisor=supervisor, recorder=recorder,
            sink=sink,
        )
        steps = ["okS", "okM", "ok"]
        assert lowered == steps
        assert result.relation == evaluate_flock(
            small_medical_db, medical_flock
        )
        # Only the final step, whose survivors a sink stores, asks the
        # runner for aggregate values.
        assert runner.calls == [("okS", False), ("okM", False), ("ok", True)]
        assert supervisor.sites == [f"step:{name}" for name in steps]
        assert recorder.completed == steps
        assert recorder.finished == 1
        assert sink.published_steps == [("$s",), ("$m",)]
        assert sink.published_final == [("$m", "$s", "_agg0")]
        assert [s.name for s in result.trace.steps] == steps

    def test_resumed_step_never_reaches_the_runner(
        self, small_medical_db, medical_flock, lowered
    ):
        plan = fig5_plan(medical_flock)
        ok_s = execute_plan(
            small_medical_db, medical_flock, plan
        ).relation.project(["$s"], name="okS")
        del lowered[:]
        runner = RecordingRunner()
        supervisor = RecordingSupervisor()
        recorder = RecordingRecorder(saved={"okS": ok_s})
        result = execute_plan(
            small_medical_db, medical_flock, plan,
            runner=runner, supervisor=supervisor, recorder=recorder,
        )
        assert lowered == ["okM", "ok"]
        assert result.relation == evaluate_flock(
            small_medical_db, medical_flock
        )
        assert [name for name, _ in runner.calls] == ["okM", "ok"]
        assert supervisor.sites == ["step:okM", "step:ok"]
        assert recorder.completed == ["okM", "ok"]
        assert result.trace.steps[0].description == "resumed from checkpoint"
        assert result.trace.steps[0].input_tuples == 0

    def test_cache_served_step_never_reaches_the_runner(
        self, small_medical_db, medical_flock, lowered
    ):
        plan = fig5_plan(medical_flock)
        # Any superset of the true survivors is a sound pre-filter.
        every_symptom = small_medical_db.get("exhibits").project(
            ["S"]
        ).rename({"S": "$s"})
        runner = RecordingRunner()
        sink = RecordingSink(cached={("$s",): every_symptom})
        result = execute_plan(
            small_medical_db, medical_flock, plan, runner=runner, sink=sink
        )
        assert lowered == ["okM", "ok"]
        assert result.relation == evaluate_flock(
            small_medical_db, medical_flock
        )
        assert [name for name, _ in runner.calls] == ["okM", "ok"]
        assert sink.published_steps == [("$m",)]
        assert len(sink.published_final) == 1


class TestSerialEarlyExit:
    """The serial runner honours ``need_aggregates`` like the partitioned
    one: without a sink no step returns ``passed`` (no ``_agg*`` column
    is built), and with one only the final step does (``--jobs 1`` used
    to compute full aggregates where ``--jobs 2`` did not)."""

    @pytest.fixture
    def passed_columns(self, monkeypatch):
        """The ``passed`` columns of every step the serial engine ran."""
        calls = []
        real = MemoryEngine.run_step

        def recording(self, step_plan, need_aggregates=False, dynamic=None):
            outcome = real(self, step_plan, need_aggregates, dynamic)
            if outcome.passed is not None:
                calls.append(outcome.passed.columns)
            return outcome

        monkeypatch.setattr(MemoryEngine, "run_step", recording)
        return calls

    def test_no_sink_no_aggregate_columns(
        self, small_medical_db, medical_flock, passed_columns
    ):
        execute_plan(small_medical_db, medical_flock, fig5_plan(medical_flock))
        assert passed_columns == []

    def test_sink_gets_aggregates_for_the_final_step_only(
        self, small_medical_db, medical_flock, passed_columns
    ):
        execute_plan(
            small_medical_db, medical_flock, fig5_plan(medical_flock),
            sink=RecordingSink(),
        )
        assert passed_columns == [("$m", "$s", "_agg0")]

    def test_survivors_identical_either_way(
        self, small_medical_db, medical_flock
    ):
        rule = medical_flock.rules[0]
        step = FilterStep("okS", (Parameter("s"),), rule.with_body_subset([0]))
        step_plan = executor_module.lower_filter_step(
            small_medical_db, medical_flock, step
        )
        counted = MemoryEngine(small_medical_db).run_step(step_plan)
        full = MemoryEngine(small_medical_db).run_step(
            step_plan, need_aggregates=True
        )
        assert counted.passed is None
        assert full.passed.columns == ("$s", "_agg0")
        assert counted.result.columns == full.result.columns == ("$s",)
        assert counted.result.columns_data() == full.result.columns_data()
        assert counted.answer_tuples == full.answer_tuples
