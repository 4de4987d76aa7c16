"""Graceful degradation and partial-trace semantics of mine().

Covers the policy layer: strategy fallback (optimized -> dynamic ->
naive) on pre-answer failures, backend fallback (sqlite -> memory) on
post-retry SQLite errors, transient-error healing, and the contract
that a budget exhausted mid plan-search degrades while one exhausted
mid-execution propagates with its partial trace.
"""

import sqlite3

import pytest

from repro import (
    BudgetExceededError,
    EvaluationError,
    PlanError,
    ResourceBudget,
    mine,
)
from repro.datalog import Parameter, atom, comparison, rule
from repro.datalog.subqueries import safe_subqueries_with_parameters
from repro.flocks import (
    QueryFlock,
    SQLiteBackend,
    evaluate_flock,
    evaluate_flock_sqlite,
    execute_plan,
    execute_plan_sqlite,
    parse_filter,
    plan_from_subqueries,
    single_step_plan,
    support_filter,
)
from repro.recovery import RetryPolicy, RetrySupervisor, TransientFault
from repro.relational import database_from_dict
from repro.testing import inject


# ----------------------------------------------------------------------
# Partial-trace semantics (one wide basket makes the $1,$2 prefilter
# step two orders of magnitude larger than the $1 step)
# ----------------------------------------------------------------------


@pytest.fixture
def wide_db():
    """One basket holding 20 items: the pair join has 400 rows."""
    rows = [(1, f"i{n:02d}") for n in range(20)]
    return database_from_dict({"baskets": (("BID", "Item"), rows)})


@pytest.fixture
def pair_flock():
    query = rule(
        "answer",
        ["B"],
        [
            atom("baskets", "B", "$1"),
            atom("baskets", "B", "$2"),
            comparison("$1", "<", "$2"),
        ],
    )
    return QueryFlock(query, support_filter(1, target="B"))


def two_step_plan(flock):
    """ok0 restricts {$1} (20 rows); ok1 restricts {$1,$2} (400 rows)."""
    query = flock.rules[0]
    [small] = safe_subqueries_with_parameters(query, [Parameter("1")])
    [large] = safe_subqueries_with_parameters(
        query, [Parameter("1"), Parameter("2")]
    )
    return plan_from_subqueries(flock, [("ok0", small), ("ok1", large)])


class TestPartialTrace:
    BUDGET = ResourceBudget(max_intermediate_rows=50)

    def test_memory_trace_lists_steps_completed_before_abort(
        self, wide_db, pair_flock
    ):
        """The in-memory executor dies inside ok1's join, so the only
        completed FILTER step in the partial trace is ok0."""
        plan = two_step_plan(pair_flock)
        with pytest.raises(BudgetExceededError) as exc:
            execute_plan(wide_db, pair_flock, plan, guard=self.BUDGET)
        assert exc.value.limit == "intermediate_rows"
        completed = [s.name for s in exc.value.trace.steps if s.filtered]
        assert completed == ["ok0"]

    def test_sqlite_trace_lists_steps_completed_before_abort(
        self, wide_db, pair_flock
    ):
        """SQLite materializes the whole ok1 table before the per-table
        row check runs, so ok1 counts as completed there."""
        plan = two_step_plan(pair_flock)
        with pytest.raises(BudgetExceededError) as exc:
            execute_plan_sqlite(wide_db, pair_flock, plan, guard=self.BUDGET)
        assert exc.value.limit == "intermediate_rows"
        completed = [s.name for s in exc.value.trace.steps if s.filtered]
        assert completed == ["ok0", "ok1"]
        assert exc.value.node == "ok1"

    def test_sufficient_budget_runs_plan_to_completion(
        self, wide_db, pair_flock
    ):
        plan = two_step_plan(pair_flock)
        roomy = ResourceBudget(max_intermediate_rows=1000)
        unbudgeted = execute_plan(wide_db, pair_flock, plan).relation
        assert execute_plan(
            wide_db, pair_flock, plan, guard=roomy
        ).relation == unbudgeted
        assert execute_plan_sqlite(
            wide_db, pair_flock, plan, guard=roomy
        ) == unbudgeted


# ----------------------------------------------------------------------
# No SQLite step table outlives its plan (ROADMAP 5f)
# ----------------------------------------------------------------------


class TestSQLiteLeavesNoStepTables:
    """After a guard abort or a backend fault mid-plan the catalog holds
    the base tables only, and the same backend object answers the next
    plan correctly."""

    @staticmethod
    def leaked(backend, db):
        tables = {
            name for (name,) in backend.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        return tables - set(db.names())

    def test_after_budget_abort(self, wide_db, pair_flock):
        plan = two_step_plan(pair_flock)
        expected = execute_plan(wide_db, pair_flock, plan).relation
        with SQLiteBackend(wide_db) as backend:
            with pytest.raises(BudgetExceededError) as exc:
                backend.execute_plan(
                    pair_flock, plan,
                    guard=ResourceBudget(max_intermediate_rows=50),
                )
            assert [s.name for s in exc.value.trace.steps if s.filtered] == [
                "ok0", "ok1",
            ]
            assert self.leaked(backend, wide_db) == set()
            again = backend.execute_plan(pair_flock, plan)
        assert again == expected

    @pytest.mark.faults
    def test_after_fault_mid_plan(self, wide_db, pair_flock):
        plan = two_step_plan(pair_flock)
        expected = execute_plan(wide_db, pair_flock, plan).relation
        broken = sqlite3.OperationalError("disk I/O error")
        with SQLiteBackend(wide_db) as backend:
            # Count the plan's statements, then fail from the last step on.
            with inject("sqlite.execute", broken, skip=10**9) as counted:
                backend.execute_plan(pair_flock, plan)
            assert self.leaked(backend, wide_db) == set()
            with inject("sqlite.execute", broken, skip=counted.hits - 2):
                with pytest.raises(EvaluationError, match="disk I/O"):
                    backend.execute_plan(pair_flock, plan)
            assert self.leaked(backend, wide_db) == set()
            again = backend.execute_plan(pair_flock, plan)
        assert again == expected


# ----------------------------------------------------------------------
# Strategy degradation
# ----------------------------------------------------------------------


def mining_downgrades(report):
    """The report's downgrades minus the cpu-count clamp of a defaulted
    ``REPRO_JOBS`` — that entry says the machine has fewer cores than
    the environment asked for, not that strategy or backend degraded."""
    return [d for d in report.downgrades if d.kind != "parallelism"]


class TestStrategyDegradation:
    @pytest.mark.faults
    def test_optimizer_fault_degrades_to_dynamic(
        self, small_basket_db, basket_flock
    ):
        expected = evaluate_flock(small_basket_db, basket_flock)
        with inject("optimizer.search", PlanError):
            relation, report = mine(
                small_basket_db, basket_flock, strategy="optimized"
            )
        assert relation == expected
        assert report.strategy_used == "dynamic"
        assert report.degraded
        (downgrade,) = mining_downgrades(report)
        assert (downgrade.kind, downgrade.from_name, downgrade.to_name) == (
            "strategy", "optimized", "dynamic",
        )
        assert "downgrade [strategy] optimized -> dynamic" in str(report)

    @pytest.mark.faults
    def test_degrades_all_the_way_to_naive(
        self, small_basket_db, basket_flock
    ):
        expected = evaluate_flock(small_basket_db, basket_flock)
        with inject("optimizer.search", PlanError):
            with inject("dynamic.join", PlanError):
                relation, report = mine(
                    small_basket_db, basket_flock, strategy="optimized"
                )
        assert relation == expected
        assert report.strategy_used == "naive"
        assert [d.to_name for d in mining_downgrades(report)] == [
            "dynamic", "naive",
        ]

    @pytest.mark.faults
    def test_naive_has_no_fallback(self, small_basket_db, basket_flock):
        with inject("relational.join", PlanError):
            with pytest.raises(PlanError):
                mine(small_basket_db, basket_flock, strategy="naive")

    @pytest.mark.faults
    def test_union_flock_degrades_to_naive(self, small_web_db, web_flock):
        """Dynamic is unsound for unions, so the chain skips it."""
        expected = evaluate_flock(small_web_db, web_flock)
        with inject("optimizer.search", PlanError):
            relation, report = mine(
                small_web_db, web_flock, strategy="optimized"
            )
        assert relation == expected
        assert report.strategy_used == "naive"

    @pytest.mark.faults
    def test_budget_death_mid_plan_search_degrades(
        self, small_basket_db, basket_flock
    ):
        """Budget exhaustion before any plan exists loses no work, so
        mine() may still try a cheaper strategy."""
        expected = evaluate_flock(small_basket_db, basket_flock)
        with inject("optimizer.search", BudgetExceededError):
            relation, report = mine(
                small_basket_db, basket_flock, strategy="optimized"
            )
        assert relation == expected
        assert report.strategy_used == "dynamic"

    @pytest.mark.faults
    def test_downgrade_drops_the_abandoned_plans_certificate(self):
        """The report's certificate is the answering plan's: after the
        optimized plan fails mid-execution and dynamic answers, none."""
        from repro.workloads import basket_database

        db = basket_database(
            n_baskets=200, n_items=60, avg_basket_size=5, skew=1.1, seed=1
        )
        query = rule(
            "answer", ["B"],
            [atom("baskets", "B", "$1"), atom("baskets", "B", "$2"),
             comparison("$1", "<", "$2")],
        )
        flock = QueryFlock(query, support_filter(5, target="B"))
        with inject("executor.step", PlanError, times=1):
            relation, report = mine(db, flock, strategy="optimized")
        assert relation == evaluate_flock(db, flock)
        assert report.strategy_used == "dynamic"
        assert report.plan_text is None
        assert report.certificate is None

    # flock shape -> {requested strategy: (strategy used, downgrade chain)}
    FALLBACKS = {
        "monotone": {
            "auto": ("dynamic", []),
            "naive": ("naive", []),
            "optimized": ("optimized", []),
            "dynamic": ("dynamic", []),
        },
        "union": {
            "auto": ("optimized", []),
            "naive": ("naive", []),
            "optimized": ("optimized", []),
            "dynamic": ("naive", [("dynamic", "naive")]),
        },
        "non-monotone": {
            "auto": ("naive", []),
            "naive": ("naive", []),
            "optimized": ("naive", [("optimized", "naive")]),
            "dynamic": ("naive", [("dynamic", "naive")]),
        },
    }

    @pytest.mark.parametrize(
        "shape, requested",
        [(s, r) for s, row in FALLBACKS.items() for r in row],
    )
    def test_fallback_table(self, request, shape, requested):
        """Which strategy answers each flock shape, and through which
        ``kind="strategy"`` downgrades, for every requested strategy."""
        if shape == "monotone":
            db = request.getfixturevalue("small_basket_db")
            flock = request.getfixturevalue("basket_flock")
        elif shape == "union":
            db = request.getfixturevalue("small_web_db")
            flock = request.getfixturevalue("web_flock")
        else:
            db = request.getfixturevalue("small_medical_db")
            flock = QueryFlock(
                request.getfixturevalue("medical_query"),
                parse_filter("COUNT(answer.P) = 2"),
            )
        relation, report = mine(db, flock, strategy=requested)
        used, chain = self.FALLBACKS[shape][requested]
        assert relation == evaluate_flock(db, flock)
        assert report.strategy_used == used
        assert [
            (d.from_name, d.to_name)
            for d in report.downgrades if d.kind == "strategy"
        ] == chain

    @pytest.mark.faults
    def test_budget_death_mid_execution_propagates(
        self, small_basket_db, basket_flock
    ):
        """Once a plan is executing, a budget abort is final — retrying
        cheaper would turn a hard limit into a soft one."""
        with inject("executor.step", BudgetExceededError):
            with pytest.raises(BudgetExceededError):
                mine(small_basket_db, basket_flock, strategy="optimized")


# ----------------------------------------------------------------------
# Backend degradation
# ----------------------------------------------------------------------


class TestBackendDegradation:
    @pytest.mark.faults
    def test_permanent_sqlite_fault_degrades_to_memory(
        self, small_basket_db, basket_flock
    ):
        expected = evaluate_flock(small_basket_db, basket_flock)
        with inject(
            "sqlite.execute", sqlite3.OperationalError("database is locked")
        ) as fault:
            relation, report = mine(
                small_basket_db, basket_flock,
                strategy="naive", backend="sqlite",
            )
        assert relation == expected
        assert report.backend_requested == "sqlite"
        assert report.backend_used == "memory"
        (downgrade,) = mining_downgrades(report)
        assert (downgrade.kind, downgrade.from_name, downgrade.to_name) == (
            "backend", "sqlite", "memory",
        )
        assert "locked" in downgrade.reason
        assert fault.failures > 1, "transient errors must be retried first"

    @pytest.mark.faults
    def test_transient_sqlite_fault_heals_without_downgrade(
        self, small_basket_db, basket_flock
    ):
        expected = evaluate_flock(small_basket_db, basket_flock)
        with inject(
            "sqlite.execute",
            sqlite3.OperationalError("database is locked"),
            times=2,
        ) as fault:
            relation, report = mine(
                small_basket_db, basket_flock,
                strategy="naive", backend="sqlite",
            )
        assert relation == expected
        assert report.backend_used == "sqlite"
        assert not mining_downgrades(report)
        assert fault.failures == 2

    @pytest.mark.faults
    def test_nontransient_sqlite_fault_fails_fast_with_sql(
        self, small_basket_db, basket_flock
    ):
        """Satellite contract: raw sqlite3 errors never escape; the
        wrapper names the offending statement."""
        with inject(
            "sqlite.execute", sqlite3.OperationalError("no such table: xyz")
        ) as fault:
            with pytest.raises(EvaluationError) as exc:
                evaluate_flock_sqlite(small_basket_db, basket_flock)
        assert fault.failures == 1, "non-transient errors are not retried"
        assert exc.value.sql
        assert "while executing:" in str(exc.value)

    @pytest.mark.faults
    def test_transient_fault_after_create_table_reruns_the_step(
        self, small_basket_db, basket_flock, monkeypatch
    ):
        """The loop's retry rung re-runs a SQLite step whose read-back
        failed after its table was created: the re-run replaces the
        table, the run stays on SQLite, and cleanup still drops it."""
        statements, leaked = [], []
        execute, close = SQLiteBackend._execute, SQLiteBackend.close

        def spy(self, cursor, statement, *args, **kwargs):
            statements.append(statement)
            return execute(self, cursor, statement, *args, **kwargs)

        def audit(self):
            leaked.append(TestSQLiteLeavesNoStepTables.leaked(
                self, small_basket_db
            ))
            close(self)

        monkeypatch.setattr(SQLiteBackend, "_execute", spy)
        monkeypatch.setattr(SQLiteBackend, "close", audit)
        expected = evaluate_flock(small_basket_db, basket_flock)
        mine(small_basket_db, basket_flock, strategy="optimized",
             backend="sqlite")
        readback = next(
            i for i, s in enumerate(statements) if s.startswith("SELECT *")
        )
        assert statements[readback - 1].startswith("CREATE TABLE")
        with inject("sqlite.execute", TransientFault, skip=readback,
                    times=1) as fault:
            relation, report = mine(
                small_basket_db, basket_flock, strategy="optimized",
                backend="sqlite",
                retry=RetryPolicy(base_delay=0.0, jitter=0.0),
            )
        assert fault.failures == 1
        assert relation == expected
        assert report.backend_used == "sqlite"
        (retry,) = [d for d in report.downgrades if d.kind == "retry"]
        assert retry.to_name == "recovered"
        assert leaked == [set(), set()]

    @pytest.mark.faults
    def test_exhausted_statement_retry_is_not_retried_again(
        self, small_basket_db, basket_flock
    ):
        """Statement retries end in an EvaluationError, which the loop's
        retry rung classifies fatal: the attempts do not multiply."""
        supervisor = RetrySupervisor(RetryPolicy(base_delay=0.0, jitter=0.0))
        with SQLiteBackend(small_basket_db) as backend:
            backend._sleep = lambda seconds: None
            locked = sqlite3.OperationalError("database is locked")
            with inject("sqlite.execute", locked) as fault:
                with pytest.raises(EvaluationError, match="locked") as exc:
                    backend.execute_plan(
                        basket_flock, single_step_plan(basket_flock),
                        supervisor=supervisor,
                    )
        assert supervisor.policy.classify(exc.value) == "fatal"
        assert fault.failures == backend.retry_policy.max_attempts
        assert supervisor.events == []

    def test_dynamic_on_sqlite_records_backend_downgrade(
        self, small_basket_db, basket_flock
    ):
        expected = evaluate_flock(small_basket_db, basket_flock)
        relation, report = mine(
            small_basket_db, basket_flock,
            strategy="dynamic", backend="sqlite",
        )
        assert relation == expected
        assert report.backend_used == "memory"
        (downgrade,) = mining_downgrades(report)
        assert downgrade.kind == "backend"
        assert "in-memory" in downgrade.reason

    def test_refused_dynamic_on_sqlite_records_no_backend_downgrade(
        self, small_web_db, web_flock
    ):
        """A union flock is refused by the dynamic evaluator before any
        backend switch: naive then runs on SQLite, and the report lists
        the strategy downgrade alone."""
        expected = evaluate_flock(small_web_db, web_flock)
        relation, report = mine(
            small_web_db, web_flock, strategy="dynamic", backend="sqlite",
        )
        assert relation == expected
        assert report.strategy_used == "naive"
        assert report.backend_used == "sqlite"
        assert [
            (d.kind, d.from_name, d.to_name) for d in mining_downgrades(report)
        ] == [("strategy", "dynamic", "naive")]

    @pytest.mark.parametrize("strategy", ["optimized", "naive"])
    def test_int_sqlite_cannot_store_degrades_to_memory(
        self, basket_flock, strategy
    ):
        """An int outside SQLite's 64 bits fails the load as an
        EvaluationError, so mine() answers from memory."""
        big = 2**70
        rows = [(big + b, item) for b in range(4) for item in ("x", "y")]
        db = database_from_dict({"baskets": (("BID", "Item"), rows)})
        expected = evaluate_flock(db, basket_flock)
        relation, report = mine(
            db, basket_flock, strategy=strategy, backend="sqlite"
        )
        assert relation == expected and len(relation) > 0
        assert report.backend_used == "memory"
        (downgrade,) = mining_downgrades(report)
        assert (downgrade.kind, downgrade.from_name, downgrade.to_name) == (
            "backend", "sqlite", "memory",
        )
        assert "too large" in downgrade.reason

    def test_healthy_sqlite_backend_reports_no_downgrade(
        self, small_basket_db, basket_flock
    ):
        expected = evaluate_flock(small_basket_db, basket_flock)
        relation, report = mine(
            small_basket_db, basket_flock,
            strategy="optimized", backend="sqlite",
        )
        assert relation == expected
        assert report.backend_used == "sqlite"
        assert not mining_downgrades(report)
        assert "backend: sqlite" in str(report)
