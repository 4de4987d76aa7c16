"""Execution guards: budgets, cancellation, and partial-trace semantics.

Acceptance surface of the resilience layer: a flock evaluated under a
ResourceBudget aborts promptly on every strategy and both backends,
raising BudgetExceededError with a non-empty partial trace; a
CancellationToken stops any evaluation at its next checkpoint.
"""

import pytest

from repro import (
    BudgetExceededError,
    CancellationToken,
    EvaluationError,
    ExecutionCancelled,
    ExecutionGuard,
    ParseError,
    ResourceBudget,
    evaluate_flock,
    evaluate_flock_dynamic,
    mine,
    optimize,
)
from repro.errors import ExecutionAborted, ReproError
from repro.flocks import SQLiteBackend, evaluate_flock_sqlite, execute_plan_sqlite
from repro.flocks.options import STRATEGIES
from repro.guard import as_guard


#: Every explicit strategy ("auto" only picks one of them).
ALL_STRATEGIES = tuple(s for s in STRATEGIES if s != "auto")


class TestResourceBudget:
    def test_unbounded_by_default(self):
        assert ResourceBudget().is_unbounded

    @pytest.mark.parametrize(
        "kwargs",
        [{"seconds": -1}, {"max_intermediate_rows": -1}, {"max_answer_rows": -5}],
    )
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResourceBudget(**kwargs)

    def test_start_returns_fresh_guard_each_time(self):
        budget = ResourceBudget(seconds=100)
        first, second = budget.start(), budget.start()
        assert first is not second
        assert first.deadline is not None

    def test_guard_errors_subclass_repro_error(self):
        assert issubclass(BudgetExceededError, ExecutionAborted)
        assert issubclass(ExecutionCancelled, ExecutionAborted)
        assert issubclass(ExecutionAborted, ReproError)


class TestAsGuard:
    def test_none_passthrough(self):
        assert as_guard(None) is None

    def test_guard_passthrough(self):
        guard = ExecutionGuard()
        assert as_guard(guard) is guard

    def test_budget_coerces(self):
        guard = as_guard(ResourceBudget(seconds=10))
        assert isinstance(guard, ExecutionGuard)
        assert guard.remaining_seconds <= 10

    def test_token_coerces(self):
        token = CancellationToken()
        guard = as_guard(token)
        assert guard.cancel is token

    def test_junk_rejected(self):
        with pytest.raises(TypeError):
            as_guard(42)


class TestCancellationToken:
    def test_flag_semantics(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        assert "cancelled" in repr(token)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_cancel_stops_every_strategy(
        self, strategy, small_basket_db, basket_flock
    ):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(ExecutionCancelled) as exc:
            mine(small_basket_db, basket_flock, strategy=strategy, cancel=token)
        assert exc.value.trace is not None

    def test_cancel_stops_sqlite(self, small_basket_db, basket_flock):
        token = CancellationToken()
        token.cancel()
        with SQLiteBackend(small_basket_db) as backend:
            with pytest.raises(ExecutionCancelled):
                backend.evaluate_flock(basket_flock, guard=as_guard(token))


class TestWallClockBudget:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_zero_deadline_aborts_every_strategy(
        self, strategy, small_basket_db, basket_flock
    ):
        with pytest.raises(BudgetExceededError) as exc:
            mine(
                small_basket_db,
                basket_flock,
                strategy=strategy,
                budget=ResourceBudget(seconds=0),
            )
        assert exc.value.limit == "seconds"
        assert exc.value.trace is not None
        assert len(exc.value.trace.steps) > 0, "partial trace must be non-empty"

    def test_zero_deadline_aborts_sqlite_naive(self, small_basket_db, basket_flock):
        with pytest.raises(BudgetExceededError) as exc:
            evaluate_flock_sqlite(
                small_basket_db, basket_flock, guard=ResourceBudget(seconds=0)
            )
        assert exc.value.limit == "seconds"
        assert len(exc.value.trace.steps) > 0

    def test_zero_deadline_aborts_sqlite_plan(self, small_basket_db, basket_flock):
        plan = optimize(small_basket_db, basket_flock)
        with pytest.raises(BudgetExceededError) as exc:
            execute_plan_sqlite(
                small_basket_db, basket_flock, plan,
                guard=ResourceBudget(seconds=0),
            )
        assert len(exc.value.trace.steps) > 0

    def test_generous_deadline_does_not_interfere(
        self, small_basket_db, basket_flock
    ):
        unbudgeted = evaluate_flock(small_basket_db, basket_flock)
        budgeted = evaluate_flock(
            small_basket_db, basket_flock, guard=ResourceBudget(seconds=300)
        )
        assert budgeted == unbudgeted


class TestRowBudgets:
    def test_intermediate_row_budget_aborts(self, small_basket_db, basket_flock):
        with pytest.raises(BudgetExceededError) as exc:
            evaluate_flock(
                small_basket_db,
                basket_flock,
                guard=ResourceBudget(max_intermediate_rows=1),
            )
        assert exc.value.limit == "intermediate_rows"

    def test_answer_row_budget_aborts(self, small_basket_db, basket_flock):
        full = evaluate_flock(small_basket_db, basket_flock)
        assert len(full) >= 2  # sanity: budget below is genuinely binding
        with pytest.raises(BudgetExceededError) as exc:
            evaluate_flock(
                small_basket_db,
                basket_flock,
                guard=ResourceBudget(max_answer_rows=len(full) - 1),
            )
        assert exc.value.limit == "answer_rows"

    def test_sufficient_row_budget_matches_unbudgeted(
        self, small_basket_db, basket_flock
    ):
        unbudgeted = evaluate_flock(small_basket_db, basket_flock)
        guard = ResourceBudget(max_intermediate_rows=10**9).start()
        budgeted = evaluate_flock(small_basket_db, basket_flock, guard=guard)
        assert budgeted == unbudgeted
        assert guard.high_water_rows > 0

    def test_high_water_mark_is_a_binding_threshold(
        self, small_basket_db, basket_flock
    ):
        """Budgeting one row below the observed high-water mark aborts."""
        probe = ResourceBudget().start()
        evaluate_flock(small_basket_db, basket_flock, guard=probe)
        high = probe.high_water_rows
        assert high > 0
        with pytest.raises(BudgetExceededError):
            evaluate_flock(
                small_basket_db,
                basket_flock,
                guard=ResourceBudget(max_intermediate_rows=high - 1),
            )


class TestGuardSharing:
    def test_one_guard_spans_strategies(self, small_basket_db, basket_flock):
        """A shared guard accumulates trace across evaluations."""
        guard = ResourceBudget().start()
        evaluate_flock(small_basket_db, basket_flock, guard=guard)
        after_first = len(guard.trace.steps)
        evaluate_flock_dynamic(small_basket_db, basket_flock, guard=guard)
        assert len(guard.trace.steps) > after_first

    def test_mine_rejects_guard_plus_budget(self, small_basket_db, basket_flock):
        with pytest.raises(ValueError):
            mine(
                small_basket_db,
                basket_flock,
                guard=ExecutionGuard(),
                budget=ResourceBudget(seconds=1),
            )


class TestErrorDiagnostics:
    def test_parse_error_renders_caret(self):
        error = ParseError("unexpected token", text="answer(B :- x", position=9)
        rendered = str(error)
        lines = rendered.split("\n")
        assert lines[0] == "unexpected token"
        assert lines[1].strip() == "answer(B :- x"
        assert lines[2].index("^") == 2 + 9  # two-space indent + position

    def test_parse_error_caret_multiline_text(self):
        error = ParseError("bad filter", text="QUERY:\nanswerB", position=10)
        rendered = str(error)
        assert "answerB" in rendered
        assert rendered.split("\n")[-1].index("^") == 2 + 3

    def test_parse_error_without_position_is_plain(self):
        assert str(ParseError("oops", text="zzz")) == "oops"

    def test_evaluation_error_carries_sql(self):
        error = EvaluationError("SQLite error: no such table", sql="SELECT 1")
        assert error.sql == "SELECT 1"
        assert "while executing: SELECT 1" in str(error)


class TestDeadlineEdgeCases:
    """The deadline arithmetic the retry supervisor leans on: behaviour
    exactly at, and past, the wall-clock boundary."""

    def test_remaining_seconds_unbounded_is_none(self):
        guard = ResourceBudget().start()
        assert guard.remaining_seconds is None

    def test_remaining_seconds_never_negative(self):
        guard = ResourceBudget(seconds=0.0).start()
        # already at (or past) the deadline: clamped to zero, not negative
        assert guard.remaining_seconds == 0.0

    def test_remaining_seconds_decreases_monotonically(self):
        import time

        guard = ResourceBudget(seconds=60.0).start()
        first = guard.remaining_seconds
        time.sleep(0.01)
        second = guard.remaining_seconds
        assert second < first <= 60.0

    def test_clamp_sleep_unbounded_passes_through(self):
        guard = ResourceBudget().start()
        assert guard.clamp_sleep(123.0) == 123.0

    def test_clamp_sleep_bounded_by_remaining(self):
        guard = ResourceBudget(seconds=60.0).start()
        clamped = guard.clamp_sleep(10_000.0)
        assert 0 < clamped <= 60.0

    def test_clamp_sleep_zero_at_expired_deadline(self):
        guard = ResourceBudget(seconds=0.0).start()
        assert guard.clamp_sleep(5.0) == 0.0

    def test_clamp_sleep_rejects_negative_as_zero(self):
        guard = ResourceBudget(seconds=60.0).start()
        assert guard.clamp_sleep(-3.0) == 0.0

    def test_checkpoint_raises_exactly_at_deadline(self):
        guard = ResourceBudget(seconds=0.0).start()
        with pytest.raises(BudgetExceededError) as exc:
            guard.checkpoint(node="edge")
        assert exc.value.limit == "seconds"
        assert exc.value.node == "edge"

    def test_child_budget_unbounded_is_none(self):
        guard = ResourceBudget().start()
        assert guard.child_budget() is None

    def test_child_budget_carries_remaining_not_original(self):
        import time

        guard = ResourceBudget(seconds=60.0).start()
        time.sleep(0.01)
        child = guard.child_budget()
        assert child is not None
        assert child.seconds is not None
        assert child.seconds < 60.0

    def test_child_budget_nearly_exhausted_stays_nonnegative(self):
        guard = ResourceBudget(seconds=0.0).start()
        child = guard.child_budget()
        assert child is not None
        assert child.seconds == 0.0
        # ...and a guard started from it aborts at its first checkpoint
        with pytest.raises(BudgetExceededError):
            child.start().checkpoint(node="child")

    def test_child_budget_preserves_row_caps(self):
        guard = ResourceBudget(
            seconds=60.0, max_intermediate_rows=100, max_answer_rows=10
        ).start()
        child = guard.child_budget()
        assert child.max_intermediate_rows == 100
        assert child.max_answer_rows == 10

    def test_supervisor_backoff_never_sleeps_past_deadline(self):
        """The cross-layer contract: RetrySupervisor.backoff sleeps are
        clamp_sleep()-bounded, so total backoff can never overshoot the
        budget the retry is trying to save."""
        from repro import RetryPolicy, RetrySupervisor

        guard = ResourceBudget(seconds=1.0).start()
        supervisor = RetrySupervisor(
            RetryPolicy(max_attempts=10, base_delay=5.0, jitter=0.0),
            guard=guard,
            sleep=lambda _s: None,
        )
        supervisor.backoff(1, site="edge")
        supervisor.backoff(2, site="edge")
        assert all(s <= 1.0 for s in supervisor.slept)
