"""The recovery layer: retry policy/supervisor and checkpoint–resume.

Covers the first rung of the escalation ladder (transient-fault retry
with guard-clamped backoff), the durable-run machinery (manifests,
step survivor sets, resume validation), and the mine()-level
kill-and-resume contract: a resumed run re-executes only the steps the
killed run did not finish and returns a bit-identical answer.
"""

import dataclasses
import hashlib
import json
import sqlite3
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import (
    BudgetExceededError,
    ExecutionCancelled,
    ResourceBudget,
    ResumeError,
    RetryPolicy,
    RetrySupervisor,
    TransientFault,
    mine,
)
from repro.errors import EvaluationError, PlanError
from repro.flocks import execute_plan, optimize
from repro.recovery import (
    CheckpointStore,
    RunManifest,
    flock_key,
    plan_fingerprint,
)
from repro.testing import faults


# ----------------------------------------------------------------------
# RetryPolicy: classification and backoff
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_classifies_marked_transients(self):
        policy = RetryPolicy()
        assert policy.classify(TransientFault("blip")) == "transient"
        assert policy.classify(faults.WorkerKill()) == "transient"
        assert policy.classify(BrokenProcessPool("pool died")) == "transient"
        assert (
            policy.classify(sqlite3.OperationalError("database is locked"))
            == "transient"
        )
        assert (
            policy.classify(sqlite3.OperationalError("database is busy"))
            == "transient"
        )

    def test_classifies_fatal(self):
        policy = RetryPolicy()
        assert policy.classify(PlanError("illegal")) == "fatal"
        assert policy.classify(EvaluationError("bad sql")) == "fatal"
        assert (
            policy.classify(sqlite3.OperationalError("no such table: x"))
            == "fatal"
        )
        assert policy.classify(RuntimeError("boom")) == "fatal"

    def test_guard_aborts_are_always_fatal(self):
        """A budget or cancellation is a user decision, not a fault —
        retrying would turn a hard limit into a soft one."""
        policy = RetryPolicy()
        assert policy.classify(BudgetExceededError("over")) == "fatal"
        assert policy.classify(ExecutionCancelled("stop")) == "fatal"

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=0.25, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.10)
        assert policy.delay(3) == pytest.approx(0.20)
        assert policy.delay(4) == pytest.approx(0.25)  # capped
        assert policy.delay(10) == pytest.approx(0.25)

    def test_jitter_is_seeded(self):
        import random

        policy = RetryPolicy(jitter=0.5)
        a = [policy.delay(i, random.Random(7)) for i in range(1, 4)]
        b = [policy.delay(i, random.Random(7)) for i in range(1, 4)]
        assert a == b
        assert all(d >= 0 for d in a)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


# ----------------------------------------------------------------------
# RetrySupervisor: the live loop
# ----------------------------------------------------------------------


class TestRetrySupervisor:
    def test_recovers_from_transients(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFault("blip")
            return "done"

        supervisor = RetrySupervisor(
            RetryPolicy(max_attempts=3), sleep=lambda _s: None
        )
        assert supervisor.run(flaky, site="unit") == "done"
        assert len(calls) == 3
        [event] = supervisor.events
        assert event.recovered and event.attempts == 3
        assert event.site == "unit"

    def test_exhaustion_raises_last_error(self):
        supervisor = RetrySupervisor(
            RetryPolicy(max_attempts=2), sleep=lambda _s: None
        )

        def always():
            raise TransientFault("still down")

        with pytest.raises(TransientFault):
            supervisor.run(always, site="unit")
        [event] = supervisor.events
        assert not event.recovered
        assert event.attempts == 2
        assert "still down" in event.error

    def test_fatal_errors_never_retry(self):
        calls = []
        supervisor = RetrySupervisor(sleep=lambda _s: None)

        def fatal():
            calls.append(1)
            raise PlanError("illegal plan")

        with pytest.raises(PlanError):
            supervisor.run(fatal)
        assert len(calls) == 1
        assert supervisor.events == []  # nothing retried, nothing logged

    def test_guard_abort_never_retries(self):
        calls = []
        supervisor = RetrySupervisor(sleep=lambda _s: None)

        def aborted():
            calls.append(1)
            raise BudgetExceededError("budget gone")

        with pytest.raises(BudgetExceededError):
            supervisor.run(aborted)
        assert len(calls) == 1

    def test_backoff_clamped_to_guard_deadline(self):
        """A retry sleep must end at or before the guard deadline —
        never sleep past the budget the retry is trying to save."""
        guard = ResourceBudget(seconds=0.5).start()
        supervisor = RetrySupervisor(
            RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.0),
            guard=guard,
            sleep=lambda _s: None,
        )
        supervisor.backoff(1, site="unit")
        assert supervisor.slept[0] <= 0.5

    def test_backoff_aborts_when_deadline_already_passed(self):
        guard = ResourceBudget(seconds=0.0).start()
        supervisor = RetrySupervisor(guard=guard, sleep=lambda _s: None)
        with pytest.raises(BudgetExceededError):
            supervisor.backoff(1, site="unit")

    def test_seeded_jitter_replays(self):
        sleeps_a, sleeps_b = [], []
        for sink in (sleeps_a, sleeps_b):
            supervisor = RetrySupervisor(
                RetryPolicy(max_attempts=4, jitter=0.5, seed=99),
                sleep=sink.append,
            )
            with pytest.raises(TransientFault):
                supervisor.run(lambda: (_ for _ in ()).throw(
                    TransientFault("x")
                ))
        assert sleeps_a == sleeps_b


# ----------------------------------------------------------------------
# The retry rung inside mine()
# ----------------------------------------------------------------------


@pytest.mark.faults
class TestMineRetry:
    def test_transient_step_fault_recovers(self, small_basket_db, basket_flock):
        baseline, _ = mine(small_basket_db, basket_flock, strategy="optimized")
        with faults.inject("executor.step", TransientFault, times=1):
            relation, report = mine(
                small_basket_db, basket_flock, strategy="optimized",
                retry=RetryPolicy(base_delay=0.0, jitter=0.0),
            )
        assert relation.tuples == baseline.tuples
        retries = [d for d in report.downgrades if d.kind == "retry"]
        assert retries and retries[0].to_name == "recovered"
        assert "2 attempt(s)" in retries[0].reason

    def test_transient_naive_fault_recovers(self, small_basket_db, basket_flock):
        baseline, _ = mine(small_basket_db, basket_flock, strategy="naive")
        # relational.join is a fault site of the serial join kernel.
        with faults.inject("relational.join", TransientFault, times=1):
            relation, report = mine(
                small_basket_db, basket_flock, strategy="naive",
                retry=RetryPolicy(base_delay=0.0, jitter=0.0), parallelism=1,
            )
        assert relation.tuples == baseline.tuples
        assert any(d.kind == "retry" for d in report.downgrades)

    def test_retry_disabled_with_single_attempt(
        self, small_basket_db, basket_flock
    ):
        with faults.inject("relational.join", TransientFault, times=1):
            with pytest.raises(TransientFault):
                mine(
                    small_basket_db, basket_flock, strategy="naive",
                    retry=RetryPolicy(max_attempts=1), parallelism=1,
                )

    def test_exhausted_retries_escalate_to_strategy_downgrade(
        self, small_basket_db, basket_flock
    ):
        """Retry is the rung *below* degradation: when retries run out
        on a PlanError-compatible failure mid plan-search, the existing
        strategy ladder still applies."""
        with faults.inject("optimizer.search", PlanError):
            relation, report = mine(
                small_basket_db, basket_flock, strategy="optimized",
                retry=RetryPolicy(base_delay=0.0, jitter=0.0),
            )
        kinds = {d.kind for d in report.downgrades}
        assert "strategy" in kinds


# ----------------------------------------------------------------------
# CheckpointStore / RunManifest
# ----------------------------------------------------------------------


def _plan_for(db, flock):
    return optimize(db, flock)


@pytest.fixture
def wide_basket_db():
    """Forty baskets, three frequent items, eighty rare singletons — a
    shape where the a-priori prefilter genuinely pays, so the optimizer
    picks a two-step plan (ok0 prefilter + final) deterministically."""
    import random as _random

    from repro.relational import database_from_dict

    rng = _random.Random(0)
    rows = []
    for b in range(40):
        for item in ("beer", "diapers", "chips"):
            if rng.random() < 0.5:
                rows.append((b, item))
        rows.append((b, f"rare{b}"))
        rows.append((b, f"odd{b}"))
    return database_from_dict({"baskets": (("BID", "Item"), rows)})


@pytest.fixture
def pair_flock(basket_query_ordered):
    from repro.flocks import QueryFlock, support_filter

    return QueryFlock(basket_query_ordered, support_filter(5, target="B"))


class TestCheckpointStore:
    def test_manifest_round_trip(self, tmp_path):
        manifest = RunManifest(
            run_id="r1",
            flock_key="k",
            plan_fingerprint="f",
            step_names=("okS", "ok"),
            completed=["okS"],
            base_cards={"baskets": 12},
        )
        text = json.dumps(manifest.to_dict())
        again = RunManifest.from_dict(json.loads(text))
        assert again == manifest

    def test_save_load_drop(self, tmp_path, small_basket_db, basket_flock):
        path = str(tmp_path / "ckpt.db")
        plan = _plan_for(small_basket_db, basket_flock)
        with CheckpointStore(path) as store:
            recorder = store.recorder(
                basket_flock, plan, small_basket_db, run_id="r1"
            )
            assert recorder.run_id == "r1"
            loaded = store.load_manifest("r1")
            assert loaded is not None
            assert loaded.status == "running"
            assert loaded.flock_key == flock_key(basket_flock)
            assert loaded.plan_fingerprint == plan_fingerprint(
                basket_flock, plan
            )
        # a store outlives processes: reopen from the same path
        with CheckpointStore(path) as store:
            assert [m.run_id for m in store.list_runs()] == ["r1"]
            store.drop_run("r1")
            assert store.load_manifest("r1") is None

    def test_resume_unknown_run_id(self, tmp_path, small_basket_db, basket_flock):
        path = str(tmp_path / "ckpt.db")
        plan = _plan_for(small_basket_db, basket_flock)
        with CheckpointStore(path) as store:
            with pytest.raises(ResumeError, match="no checkpointed run"):
                store.recorder(
                    basket_flock, plan, small_basket_db, resume="nope"
                )

    def test_resume_rejects_changed_data(
        self, tmp_path, small_basket_db, basket_flock
    ):
        """Base-relation cardinality drift invalidates a checkpoint —
        splicing stale survivors into changed data would be a silent
        wrong answer."""
        path = str(tmp_path / "ckpt.db")
        plan = _plan_for(small_basket_db, basket_flock)
        with CheckpointStore(path) as store:
            store.recorder(
                basket_flock, plan, small_basket_db, run_id="r1"
            )
            baskets = small_basket_db.get("baskets")
            small_basket_db.add_rows(
                "baskets",
                baskets.columns,
                list(baskets.tuples) + [(99, "soap")],
            )
            with pytest.raises(ResumeError, match="different .*data"):
                store.recorder(
                    basket_flock, plan, small_basket_db, resume="r1"
                )

    def test_resume_rejects_different_flock(
        self, tmp_path, small_basket_db, basket_flock, medical_flock,
        small_medical_db,
    ):
        path = str(tmp_path / "ckpt.db")
        plan = _plan_for(small_basket_db, basket_flock)
        with CheckpointStore(path) as store:
            store.recorder(
                basket_flock, plan, small_basket_db, run_id="r1"
            )
            other_plan = _plan_for(small_medical_db, medical_flock)
            with pytest.raises(ResumeError, match="different\\s+flock"):
                store.recorder(
                    medical_flock, other_plan, small_medical_db, resume="r1"
                )

    def test_resume_refuses_a_join_order_suffixed_fingerprint(
        self, tmp_path, wide_basket_db, pair_flock
    ):
        """A manifest fingerprinted the way builds with a ``join_order``
        option did (the rendered plan plus ``join_order=greedy``) names
        a plan this build cannot run, so resuming it is refused — no
        partial answer comes back."""
        path = str(tmp_path / "ckpt.db")
        _, report = mine(
            wide_basket_db, pair_flock, strategy="optimized",
            checkpoint=path, run_id="old",
        )
        assert report.steps_checkpointed >= 2
        plan = optimize(wide_basket_db, pair_flock)
        text = f"{plan.render(pair_flock)}\njoin_order=greedy"
        suffixed = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        with CheckpointStore(path) as store:
            manifest = store.load_manifest("old")
            assert manifest.plan_fingerprint == plan_fingerprint(
                pair_flock, plan
            ) != suffixed
            store.save_manifest(
                dataclasses.replace(manifest, plan_fingerprint=suffixed)
            )
        with pytest.raises(ResumeError, match="fingerprint mismatch"):
            mine(
                wide_basket_db, pair_flock, strategy="optimized",
                checkpoint=path, resume="old",
            )


# ----------------------------------------------------------------------
# execute_plan + recorder: step-level durability
# ----------------------------------------------------------------------


class TestStepCheckpointing:
    def test_steps_become_durable_as_they_complete(
        self, tmp_path, wide_basket_db, pair_flock
    ):
        path = str(tmp_path / "ckpt.db")
        plan = _plan_for(wide_basket_db, pair_flock)
        assert len(plan.steps) >= 2  # a multi-step a-priori plan
        with CheckpointStore(path) as store:
            recorder = store.recorder(
                pair_flock, plan, wide_basket_db, run_id="r1"
            )
            result = execute_plan(
                wide_basket_db, pair_flock, plan, recorder=recorder
            )
            manifest = store.load_manifest("r1")
            assert manifest.status == "complete"
            assert set(manifest.completed) == {
                s.result_name for s in plan.steps
            }
            assert recorder.steps_checkpointed == len(plan.steps)
        baseline = execute_plan(wide_basket_db, pair_flock, plan)
        assert result.relation.tuples == baseline.relation.tuples

    def test_resume_reexecutes_only_unfinished_steps(
        self, tmp_path, wide_basket_db, pair_flock
    ):
        """Kill mid-run, resume, and assert via the trace that the
        completed prefix was served from checkpoints, not recomputed."""
        path = str(tmp_path / "ckpt.db")
        plan = _plan_for(wide_basket_db, pair_flock)
        n_steps = len(plan.steps)
        assert n_steps >= 2
        baseline = execute_plan(wide_basket_db, pair_flock, plan)

        with CheckpointStore(path) as store:
            recorder = store.recorder(
                pair_flock, plan, wide_basket_db, run_id="r1"
            )
            # Crash after the first step completes (the second raises).
            with faults.inject("executor.step", RuntimeError, skip=1):
                with pytest.raises(RuntimeError):
                    execute_plan(
                        wide_basket_db, pair_flock, plan,
                        recorder=recorder,
                    )
            manifest = store.load_manifest("r1")
            assert manifest.status == "running"
            assert len(manifest.completed) == 1  # exactly the finished step

            resumed = store.recorder(
                pair_flock, plan, wide_basket_db, resume="r1"
            )
            result = execute_plan(
                wide_basket_db, pair_flock, plan, recorder=resumed
            )
            assert resumed.steps_resumed == 1
            assert resumed.steps_checkpointed == n_steps - 1
            served = [
                t for t in result.trace.steps
                if t.description == "resumed from checkpoint"
            ]
            assert len(served) == 1
            assert served[0].input_tuples == 0  # no join ran for it
            assert store.load_manifest("r1").status == "complete"
        assert result.relation.tuples == baseline.relation.tuples


# ----------------------------------------------------------------------
# mine(): the public checkpoint/resume contract
# ----------------------------------------------------------------------


@pytest.mark.faults
class TestMineCheckpointResume:
    def test_fresh_run_reports_run_id(self, tmp_path, small_basket_db, basket_flock):
        path = str(tmp_path / "ckpt.db")
        relation, report = mine(small_basket_db, basket_flock, checkpoint=path)
        assert report.run_id is not None
        assert report.steps_checkpointed >= 1
        assert report.strategy_used == "optimized"
        assert "checkpoint run" in str(report)

    def test_kill_and_resume_bit_identical(
        self, tmp_path, wide_basket_db, pair_flock
    ):
        path = str(tmp_path / "ckpt.db")
        baseline, _ = mine(
            wide_basket_db, pair_flock, strategy="optimized"
        )
        # Kill the run after its first FILTER step (fatal fault).
        with faults.inject("executor.step", RuntimeError, skip=1):
            with pytest.raises(RuntimeError):
                mine(
                    wide_basket_db, pair_flock, strategy="optimized",
                    checkpoint=path, run_id="runA",
                    retry=RetryPolicy(max_attempts=1),
                )
        relation, report = mine(
            wide_basket_db, pair_flock, strategy="optimized",
            checkpoint=path, resume="runA",
        )
        assert relation.tuples == baseline.tuples
        assert report.run_id == "runA"
        assert report.steps_resumed == 1
        assert report.steps_checkpointed >= 1

    @pytest.mark.parametrize("run_id", ['we"ird', "a:b", "xé y"])
    def test_any_run_id_checkpoints_and_resumes(
        self, tmp_path, wide_basket_db, pair_flock, run_id
    ):
        """A run id is a key, never SQL text."""
        path = str(tmp_path / "ckpt.db")
        first, _ = mine(
            wide_basket_db, pair_flock, strategy="optimized",
            checkpoint=path, run_id=run_id,
        )
        relation, report = mine(
            wide_basket_db, pair_flock, strategy="optimized",
            checkpoint=path, resume=run_id,
        )
        assert relation.tuples == first.tuples
        assert report.run_id == run_id
        assert report.steps_resumed >= 1

    def test_ints_beyond_64_bits_checkpoint_and_resume(
        self, tmp_path, wide_basket_db, pair_flock
    ):
        big = 2**70
        baskets = wide_basket_db.get("baskets")
        items = {item: big + n for n, item in enumerate(sorted(
            {item for _, item in baskets.tuples}
        ))}
        wide_basket_db.add_rows(
            "baskets", baskets.columns,
            [(bid, items[item]) for bid, item in baskets.tuples],
        )
        path = str(tmp_path / "ckpt.db")
        first, _ = mine(
            wide_basket_db, pair_flock, strategy="optimized",
            checkpoint=path, run_id="big",
        )
        assert big in {value for row in first.tuples for value in row}
        relation, report = mine(
            wide_basket_db, pair_flock, strategy="optimized",
            checkpoint=path, resume="big",
        )
        assert relation.tuples == first.tuples
        assert report.steps_resumed >= 1

    def test_auto_coerces_to_plan_based_strategy(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "ckpt.db")
        _, report = mine(small_basket_db, basket_flock, checkpoint=path)
        assert report.strategy_requested == "auto"
        assert report.strategy_used == "optimized"

    def test_checkpoint_rejects_naive(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "ckpt.db")
        with pytest.raises(ValueError, match="plan-based"):
            mine(
                small_basket_db, basket_flock, strategy="naive",
                checkpoint=path,
            )
        with pytest.raises(ValueError, match="requires checkpoint"):
            mine(small_basket_db, basket_flock, resume="r1")

    def test_sqlite_kill_and_resume_serves_the_completed_step(
        self, tmp_path, wide_basket_db, pair_flock
    ):
        """The resumed step never ran on this backend: the SQLite runner
        mirrors it into a table before the next step joins it."""
        path = str(tmp_path / "ckpt.db")
        baseline, _ = mine(wide_basket_db, pair_flock, strategy="optimized")
        with faults.inject("executor.step", RuntimeError, skip=1):
            with pytest.raises(RuntimeError):
                mine(
                    wide_basket_db, pair_flock, strategy="optimized",
                    backend="sqlite", checkpoint=path, run_id="runS",
                    retry=RetryPolicy(max_attempts=1),
                )
        relation, report = mine(
            wide_basket_db, pair_flock, strategy="optimized",
            backend="sqlite", checkpoint=path, resume="runS",
        )
        assert relation.tuples == baseline.tuples
        assert report.backend_used == "sqlite"
        assert report.steps_resumed == 1
        assert report.steps_checkpointed >= 1

    def test_resume_disables_strategy_degradation(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "ckpt.db")
        _, report = mine(
            small_basket_db, basket_flock, checkpoint=path, run_id="runB"
        )
        # A mid-plan-search failure on a resume must raise, not degrade:
        # a cheaper strategy could not honour the manifest's plan.
        with faults.inject("optimizer.search", PlanError):
            with pytest.raises(PlanError):
                mine(
                    small_basket_db, basket_flock,
                    checkpoint=path, resume="runB",
                    retry=RetryPolicy(max_attempts=1),
                )
