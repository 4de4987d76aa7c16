"""The morsel-driven parallel executor and its partitioning scheme.

Covers the partitioning primitives (stable hashing, column choice, scan
restriction), the Partition/Merge IR checks, the selection rule (large
steps to the process pool, small ones serial), bit-identical pool
execution, guard propagation into workers, and the graceful degradation
paths (worker death -> serial re-run, recorded as a mining downgrade).

The fixtures are far below ``PROCESS_ESTIMATE_THRESHOLD``; tests of the
pool take the ``force_pool`` fixture (tests/conftest.py), which lowers
the threshold to zero.
"""

import dataclasses
import glob

import pytest

from repro.engine import (
    Merge,
    ParallelExecutor,
    Partition,
    choose_partition_column,
    partition_step,
    resolve_jobs,
    stable_hash,
)
from repro.engine import shm
from repro.engine.memory import MemoryEngine
from repro.engine.parallel import clamp_default_jobs, merged_relation
from repro.engine.parallel import PROCESS_ESTIMATE_THRESHOLD
from repro.engine.partition import (
    partition_index,
    restrict_to_partition,
    step_cost_estimate,
)
from repro.analysis.schema import check_physical_plan
from repro.errors import (
    BudgetExceededError,
    ExecutionCancelled,
    PlanError,
)
from repro.flocks import QueryFlock, parse_filter
from repro.flocks.executor import lower_filter_step
from repro.flocks.mining import mine
from repro.flocks.options import BACKENDS, STRATEGIES
from repro.flocks.plans import single_step_plan
from repro.guard import CancellationToken, ResourceBudget
from repro.datalog import atom, comparison, rule
from repro.relational.catalog import Database
from repro.relational.dictionary import ValueDictionary
from repro.relational.relation import Relation
from repro.testing import faults
from repro.testing.faults import WorkerKill
from repro.workloads import article_database

from tests.survivor_oracle import survivors


# ----------------------------------------------------------------------
# Fixtures: a basket-pair flock over a corpus big enough to partition
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def word_db():
    return article_database(
        n_articles=60, vocabulary=900, words_per_article=30,
        skew=0.8, seed=13,
    )


@pytest.fixture(scope="module")
def pair_flock():
    query = rule(
        "answer",
        ["B"],
        [atom("baskets", "B", "$1"), atom("baskets", "B", "$2"),
         comparison("$1", "<", "$2")],
    )
    return QueryFlock(query, parse_filter("COUNT(answer.B) >= 4"))


@pytest.fixture(scope="module")
def pair_plan(word_db, pair_flock):
    step = single_step_plan(pair_flock, name="flock").final_step
    return lower_filter_step(word_db, pair_flock, step)


def serial_result(db, plan):
    outcome = MemoryEngine(db).run_step(plan)
    return outcome.result, outcome.answer_tuples


# ----------------------------------------------------------------------
# Partitioning primitives
# ----------------------------------------------------------------------


class TestStableHash:
    def test_process_independent(self):
        """The documented CRC-32-of-repr contract (the builtin ``hash``
        is seed-randomized per process and must not be used)."""
        import zlib

        for value in ("word01", 42, ("a", 1), None, 3.5):
            assert stable_hash(value) == zlib.crc32(
                repr(value).encode("utf-8")
            )

    def test_every_value_lands_in_range(self):
        for value in ("x", 0, -1, 2.5, ("t", "u")):
            for parts in (2, 3, 8):
                assert 0 <= partition_index(value, parts) < parts


class TestChoosePartitionColumn:
    def test_group_key_bound_in_branch(self, pair_plan):
        column = choose_partition_column(pair_plan)
        assert column in pair_plan.group.group_by

    def test_none_when_no_group_key_is_bound(self, word_db, pair_plan):
        """A step whose group keys appear in no branch scan cannot be
        partitioned (nothing guarantees complete, disjoint groups)."""
        group = dataclasses.replace(
            pair_plan.group, group_by=("NotAColumn",)
        )
        broken = dataclasses.replace(pair_plan, group=group)
        assert choose_partition_column(broken) is None
        assert partition_step(broken, 4, word_db) is None

    def test_fewer_than_two_parts_refuses(self, word_db, pair_plan):
        assert partition_step(pair_plan, 1, word_db) is None


class TestRestriction:
    def test_partitions_cover_and_are_disjoint(self):
        relation = Relation(
            "r", ("B", "I"),
            {(f"b{i}", i % 7) for i in range(200)},
        )
        parts = 4
        slices = [
            restrict_to_partition(relation, "B", parts, index)
            for index in range(parts)
        ]
        assert sum(len(s) for s in slices) == len(relation)
        union = set()
        for s in slices:
            assert not (union & s.tuples)
            union |= s.tuples
        assert union == relation.tuples

    def test_restriction_matches_hash(self):
        relation = Relation("r", ("B",), {(f"b{i}",) for i in range(50)})
        kept = restrict_to_partition(relation, "B", 3, 1)
        assert all(
            stable_hash(b) % 3 == 1 for (b,) in kept.tuples
        )

    def test_missing_column_is_identity(self):
        relation = Relation("r", ("X",), {(1,), (2,)})
        assert restrict_to_partition(relation, "B", 4, 0) is relation


class TestMergedRelation:
    def test_canonical_order_and_dedup(self):
        dictionary = ValueDictionary()
        merged = merged_relation(
            "m", ("A",), [(2,), (1,), (2,), (3,)], dictionary
        )
        assert merged.dictionary is dictionary  # the catalog's code space
        assert merged.tuples == {(1,), (2,), (3,)}
        # canonical column arrays: repr-sorted, duplicates collapsed
        assert merged.columns_data()[0] == [1, 2, 3]

    def test_empty(self):
        merged = merged_relation("m", ("A", "B"), [], ValueDictionary())
        assert len(merged) == 0
        assert merged.columns == ("A", "B")


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(2) == 2

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs() == 1

    def test_floor_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs() == 1


class TestClampDefaultJobs:
    """Defaulted worker counts are clamped to the machine's cores."""

    @pytest.fixture
    def two_cores(self, monkeypatch):
        import repro.engine.parallel as parallel_module

        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 2)

    def test_within_cores_is_untouched(self, two_cores):
        assert clamp_default_jobs(2) == (2, None)
        assert clamp_default_jobs(1) == (1, None)

    def test_oversubscription_is_clamped_with_reason(self, two_cores):
        effective, reason = clamp_default_jobs(16)
        assert effective == 2
        assert "16" in reason and "2" in reason

    def test_unknown_core_count_trusts_the_request(self, monkeypatch):
        import repro.engine.parallel as parallel_module

        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
        assert clamp_default_jobs(64) == (64, None)

    def test_env_default_records_a_downgrade(
        self, monkeypatch, word_db, pair_flock
    ):
        """REPRO_JOBS far above the core count: mine() keeps the
        requested number in the report but runs clamped, recording a
        parallelism downgrade."""
        import repro.engine.parallel as parallel_module

        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("REPRO_JOBS", "64")
        _, report = mine(word_db, pair_flock, strategy="optimized")
        assert report.parallelism_requested == 64
        clamps = [d for d in report.downgrades if d.kind == "parallelism"]
        assert clamps and clamps[0].from_name == "64 jobs"
        assert clamps[0].to_name == "2 jobs"

    def test_explicit_parallelism_is_never_clamped(
        self, monkeypatch, word_db, pair_flock
    ):
        import repro.engine.parallel as parallel_module

        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
        _, report = mine(
            word_db, pair_flock, strategy="optimized", parallelism=2
        )
        assert report.parallelism_requested == 2
        assert not [d for d in report.downgrades if d.kind == "parallelism"]


# ----------------------------------------------------------------------
# The Partition/Merge IR under the schema checker
# ----------------------------------------------------------------------


class TestSchemaChecker:
    def test_accepts_every_partitioned_plan(self, word_db, pair_plan):
        plan = partition_step(pair_plan, 4, word_db)
        assert plan is not None
        report = check_physical_plan(plan, db=word_db)
        assert report.ok, [str(d) for d in report.errors]

    def test_rejects_nonpositive_parts(self, word_db, pair_plan):
        plan = partition_step(pair_plan, 4, word_db)
        bad = dataclasses.replace(
            plan, partition=Partition(column=plan.partition.column, parts=0)
        )
        report = check_physical_plan(bad)
        assert "ir-partition-parts" in {d.code for d in report.errors}

    def test_rejects_non_group_key_column(self, word_db, pair_plan):
        plan = partition_step(pair_plan, 4, word_db)
        bad = dataclasses.replace(
            plan, partition=Partition(column="NotAKey", parts=4)
        )
        report = check_physical_plan(bad)
        assert "ir-partition-column" in {d.code for d in report.errors}

    def test_rejects_merge_schema_mismatch(self, word_db, pair_plan):
        plan = partition_step(pair_plan, 4, word_db)
        bad = dataclasses.replace(plan, merge=Merge(columns=("wrong",)))
        report = check_physical_plan(bad)
        assert "ir-merge-columns" in {d.code for d in report.errors}

    def test_partition_step_verifies_under_ambient_switch(
        self, word_db, pair_plan
    ):
        """partition_step itself schema-checks when verification is on
        (the autouse fixture arms it), so a malformed wrap cannot even
        be built."""
        group = dataclasses.replace(pair_plan.group, group_by=())
        headless = dataclasses.replace(pair_plan, group=group)
        with pytest.raises(PlanError):
            partition_step(headless, 4, word_db, column="$1")


# ----------------------------------------------------------------------
# The executor: selection rule, determinism, guards
# ----------------------------------------------------------------------


class TestParallelExecutor:
    def test_bit_identical_to_serial(self, force_pool, word_db, pair_plan):
        expected, expected_answer = serial_result(word_db, pair_plan)
        with ParallelExecutor(2, word_db) as executor:
            outcome = executor.run_step(pair_plan)
        assert outcome.mode == "process"
        assert outcome.answer_tuples == expected_answer
        assert outcome.result.tuples == expected.tuples
        # canonical merge: the column *arrays* match too
        assert outcome.result.columns_data() == expected.columns_data()
        assert sum(outcome.partition_sizes) == expected_answer

    def test_aggregate_path_matches_oracle(
        self, force_pool, word_db, pair_plan
    ):
        answer = MemoryEngine(word_db).run_answer(pair_plan)
        _, expected = survivors(answer, pair_plan)
        with ParallelExecutor(2, word_db) as executor:
            outcome = executor.run_step(pair_plan, need_aggregates=True)
        assert outcome.passed is not None
        assert outcome.passed.columns == expected.columns
        assert outcome.passed.tuples == expected.tuples

    def test_jobs_one_runs_serial(self, force_pool, word_db, pair_plan):
        with ParallelExecutor(1, word_db) as executor:
            outcome = executor.run_step(pair_plan)
        assert outcome.mode == "serial"
        assert not executor.ran_parallel

    def test_small_step_opens_no_pool(self, word_db, pair_plan):
        """Below the estimate threshold the step is left to the serial
        runner: no worker process, no shared-memory segment."""
        assert step_cost_estimate(pair_plan) < PROCESS_ESTIMATE_THRESHOLD
        expected, _ = serial_result(word_db, pair_plan)
        segments = set(glob.glob("/dev/shm/*"))
        with ParallelExecutor(2, word_db) as executor:
            outcome = executor.run_step(pair_plan)
            assert executor._pool is None and executor._shared is None
            assert set(glob.glob("/dev/shm/*")) <= segments
        assert outcome.mode == executor.last_mode == "serial"
        assert not executor.ran_parallel
        assert outcome.result.tuples == expected.tuples

    def test_cancellation_aborts_the_wait_loop(
        self, force_pool, word_db, pair_plan
    ):
        token = CancellationToken()
        token.cancel()
        guard = ResourceBudget(seconds=None).start(cancel=token)
        with ParallelExecutor(2, word_db, guard=guard) as executor:
            with pytest.raises(ExecutionCancelled):
                executor.run_step(pair_plan)

    def test_budget_propagates_into_process_workers(
        self, force_pool, word_db, pair_plan
    ):
        guard = ResourceBudget(max_intermediate_rows=5).start()
        with ParallelExecutor(2, word_db, guard=guard) as executor:
            with pytest.raises(BudgetExceededError) as exc:
                executor.run_step(pair_plan)
        assert exc.value.limit == "intermediate_rows"

    def test_relation_shared_between_catalogs(self, force_pool):
        """A relation one catalog encoded and another holds is read in
        the second catalog's code space — on the pool as serially."""
        rel = Relation(
            "baskets", ("BID", "Item"),
            [(b, item) for b in range(40) for item in "abcd"],
        )
        flock = QueryFlock(
            rule("answer", ["B"], [
                atom("baskets", "B", "$1"), atom("baskets", "B", "$2"),
                comparison("$1", "<", "$2"),
            ]),
            parse_filter("COUNT(answer.B) >= 5"),
        )
        first = Database()
        first.add(rel)
        mine(first, flock)
        second = Database()
        second.dictionary.extend([f"x{i}" for i in range(100)])
        second.add(rel)

        serial, _ = mine(second, flock, strategy="naive", parallelism=1)
        pooled, report = mine(second, flock, strategy="naive", parallelism=2)
        plan = lower_filter_step(
            second, flock, single_step_plan(flock).final_step
        )
        expected, _ = survivors(MemoryEngine(second).run_answer(plan), plan)
        assert report.parallelism_used == 2
        assert not [d for d in report.downgrades if d.kind == "parallelism"]
        assert len(expected) == 6
        assert pooled.tuples == serial.tuples == expected.tuples


# ----------------------------------------------------------------------
# Degradation: killed workers fall back to serial, visibly
# ----------------------------------------------------------------------


@pytest.fixture
def clean_faults():
    faults.reset_faults()
    yield
    faults.reset_faults()


@pytest.mark.faults
class TestWorkerDeath:
    def test_worker_fault_salvages_failed_partitions(
        self, clean_faults, force_pool, word_db, pair_plan
    ):
        """Some morsels fail (each forked worker trips the fault once):
        the healthy outputs are kept and only the failed partitions
        re-run serially in the parent."""
        expected, _ = serial_result(word_db, pair_plan)
        with ParallelExecutor(2, word_db) as executor:
            with faults.inject("parallel.worker", RuntimeError, times=1):
                outcome = executor.run_step(pair_plan)
        assert outcome.mode == "process"
        assert outcome.result.tuples == expected.tuples
        assert executor.downgrades
        assert "re-ran serially" in executor.downgrades[0]
        assert "of 4 partition(s)" in executor.downgrades[0]

    def test_every_morsel_failing_degrades_to_serial(
        self, clean_faults, force_pool, word_db, pair_plan
    ):
        """Every morsel fails: nothing to salvage around, so the whole
        step takes the full-serial rung."""
        expected, _ = serial_result(word_db, pair_plan)
        with ParallelExecutor(2, word_db) as executor:
            with faults.inject("parallel.worker", RuntimeError):
                outcome = executor.run_step(pair_plan)
        assert outcome.mode == "serial"
        assert outcome.result.tuples == expected.tuples
        assert executor.downgrades
        assert "re-ran serially" in executor.downgrades[0]

    def test_process_worker_death_breaks_pool_then_degrades(
        self, clean_faults, force_pool, word_db, pair_plan
    ):
        """WorkerKill in a pool process is a real ``os._exit`` — the
        parent sees BrokenProcessPool, rebuilds later, and the step
        re-runs serially with the downgrade recorded."""
        expected, _ = serial_result(word_db, pair_plan)
        with ParallelExecutor(2, word_db) as executor:
            with faults.inject("parallel.worker", WorkerKill):
                outcome = executor.run_step(pair_plan)
            assert outcome.mode == "serial"
            assert outcome.result.tuples == expected.tuples
            assert any(
                "BrokenProcessPool" in reason
                for reason in executor.downgrades
            )
            # the pool was torn down; the next step transparently
            # rebuilds it and runs parallel again
            healed = executor.run_step(pair_plan)
        assert healed.mode == "process"
        assert healed.result.tuples == expected.tuples

    def test_mine_records_parallelism_downgrade(
        self, clean_faults, force_pool, word_db, pair_flock
    ):
        serial, _ = mine(
            word_db, pair_flock, strategy="naive", parallelism=1
        )
        with faults.inject("parallel.worker", WorkerKill, times=1):
            relation, report = mine(
                word_db, pair_flock, strategy="naive", parallelism=2
            )
        assert relation.tuples == serial.tuples
        kinds = {d.kind for d in report.downgrades}
        assert "parallelism" in kinds
        assert report.parallelism_requested == 2


# ----------------------------------------------------------------------
# The hung-worker watchdog: overdue morsels are cancelled, not waited on
# ----------------------------------------------------------------------


@pytest.mark.faults
class TestWatchdog:
    def test_hung_morsel_is_cancelled_and_salvaged(
        self, clean_faults, force_pool, word_db, pair_plan
    ):
        """Each forked worker finishes its first morsel and stalls far
        past the allowance on its second: the watchdog cancels the
        stalled ones, the healthy outputs are kept, and the stalled
        partitions re-run serially in the parent — bit-identical."""
        expected, _ = serial_result(word_db, pair_plan)
        with ParallelExecutor(2, word_db, watchdog=0.5) as executor:
            with faults.inject(
                "parallel.hang", lambda: faults.Hang(2.0), skip=1, times=1
            ):
                outcome = executor.run_step(pair_plan)
        assert outcome.mode == "process"
        assert outcome.result.tuples == expected.tuples
        assert executor.watchdog_events
        assert "overdue" in executor.watchdog_events[0]
        assert "re-run serially" in executor.watchdog_events[0]

    def test_all_morsels_hung_degrades_to_serial(
        self, clean_faults, force_pool, word_db, pair_plan
    ):
        """Every morsel stalled: nothing to salvage around, so the
        whole step re-runs serially (the full-serial rung)."""
        expected, _ = serial_result(word_db, pair_plan)
        with ParallelExecutor(2, word_db, watchdog=0.2) as executor:
            with faults.inject("parallel.hang", lambda: faults.Hang(2.0)):
                outcome = executor.run_step(pair_plan)
        assert outcome.mode == "serial"
        assert outcome.result.tuples == expected.tuples
        assert executor.downgrades

    def test_no_watchdog_without_deadline(self, word_db, pair_plan):
        """No guard deadline and no explicit allowance: morsels may run
        arbitrarily long; the collection loop must not impose one."""
        with ParallelExecutor(2, word_db) as executor:
            assert executor._morsel_deadline() is None

    def test_guard_budget_derives_allowance(self, word_db, pair_plan):
        guard = ResourceBudget(seconds=10.0).start()
        with ParallelExecutor(2, word_db, guard=guard) as executor:
            allowance = executor._morsel_deadline()
        assert allowance is not None
        assert 0 < allowance <= 5.0  # half the remaining budget

    def test_mine_surfaces_watchdog_downgrade(
        self, clean_faults, force_pool, word_db, pair_flock
    ):
        """End to end: a stalled morsel inside mine() is detected from
        the guard-derived allowance, salvaged serially, and reported as
        a kind="watchdog" downgrade — with the answer bit-identical."""
        serial, _ = mine(
            word_db, pair_flock, strategy="naive", parallelism=1
        )
        with faults.inject(
            "parallel.hang", lambda: faults.Hang(4.0), skip=1, times=1
        ):
            relation, report = mine(
                word_db, pair_flock, strategy="naive", parallelism=2,
                budget=ResourceBudget(seconds=3.0),
            )
        assert relation.tuples == serial.tuples
        watchdog = [d for d in report.downgrades if d.kind == "watchdog"]
        assert watchdog
        assert watchdog[0].to_name == "serial salvage"
        assert "overdue" in watchdog[0].reason


# ----------------------------------------------------------------------
# mine() end to end, every strategy, both backends
# ----------------------------------------------------------------------


#: Every explicit strategy ("auto" only picks one of them).
EXPLICIT_STRATEGIES = [s for s in STRATEGIES if s != "auto"]


class TestMineParallel:
    @pytest.fixture(scope="class")
    def expected(self, word_db, pair_flock):
        relation, _ = mine(
            word_db, pair_flock, strategy="naive", parallelism=1
        )
        return relation

    @pytest.mark.parametrize("strategy", EXPLICIT_STRATEGIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_serial(
        self, word_db, pair_flock, expected, strategy, backend
    ):
        relation, report = mine(
            word_db, pair_flock, strategy=strategy, backend=backend,
            parallelism=3,
        )
        assert relation.tuples == expected.tuples
        assert report.parallelism_requested == 3

    @pytest.mark.parametrize("strategy", EXPLICIT_STRATEGIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_only_in_memory_plan_steps_use_the_pool(
        self, force_pool, word_db, pair_flock, strategy, backend
    ):
        """With the pool forced onto every partitionable step, the
        static in-memory plans use it; the dynamic strategy and the
        SQLite backend honour ``parallelism=`` the way a small step
        does — the run is serial and nothing is downgraded."""
        serial, _ = mine(
            word_db, pair_flock, strategy=strategy, backend=backend,
            parallelism=1,
        )
        relation, report = mine(
            word_db, pair_flock, strategy=strategy, backend=backend,
            parallelism=2,
        )
        assert relation == serial
        assert report.parallelism_requested == 2
        pooled = backend == "memory" and strategy != "dynamic"
        assert report.parallelism_used == (2 if pooled else 1)
        assert not [
            d for d in report.downgrades
            if d.kind in ("parallelism", "watchdog")
        ]

    def test_pickled_catalog_seed_matches_serial(
        self, force_pool, word_db, pair_flock, monkeypatch
    ):
        """Without shared memory the workers are seeded with the pickled
        catalog and every scratch relation crosses by pickle too."""
        monkeypatch.setattr(shm, "shared_memory", None)
        serial, _ = mine(
            word_db, pair_flock, strategy="optimized", parallelism=1
        )
        pooled, report = mine(
            word_db, pair_flock, strategy="optimized", parallelism=2
        )
        assert report.parallelism_used == 2
        assert not report.downgrades
        assert pooled == serial

    def test_report_mentions_parallelism(
        self, force_pool, word_db, pair_flock
    ):
        _, report = mine(
            word_db, pair_flock, strategy="naive", parallelism=2
        )
        assert report.parallelism_used == 2
        assert "parallelism: 2 jobs" in str(report)

    def test_session_passthrough_and_override(self, word_db, pair_flock):
        from repro.session import MiningSession

        with MiningSession(word_db, parallelism=2) as session:
            relation, report = session.mine(pair_flock)
            assert report.parallelism_requested == 2
            again, report2 = session.mine(pair_flock, parallelism=1)
        assert again.tuples == relation.tuples
        assert report2.parallelism_requested == 1

    def test_repro_jobs_env(self, word_db, pair_flock, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        _, report = mine(word_db, pair_flock, strategy="naive")
        assert report.parallelism_requested == 2
