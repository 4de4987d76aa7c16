"""A conventional-DBMS execution backend (SQLite).

Section 1.4: "we assume that the data is stored in a conventional
relational system and that mining occurs by issuing a sequence of SQL
queries to the database."  This backend does exactly that: it loads a
:class:`~repro.relational.catalog.Database` into SQLite and is a *step
runner* of the one executor loop
(:func:`~repro.flocks.executor.execute_plan`): each FILTER step's
physical :class:`~repro.engine.ir.StepPlan`, lowered once by the loop,
becomes the SQL :mod:`repro.engine.sqlgen` renders from it — the naive
Fig. 1 statement for a whole flock (the single-step plan), or the
Section 1.3 rewrite for a searched plan, one materialized table per
step.  The loop's hooks (session sink, retry supervisor, checkpoint
recorder, runtime filters) attach exactly as for the in-memory runners;
an ok-relation the loop obtained without this runner — served by a
session cache, resumed from a checkpoint — is mirrored into a table
before a step reads it.

The backend is the "DBMS-based setting" of the paper's argument; the
in-memory engine is the "file-based" one.  Both must agree on every
answer, which the test suite checks for all the canonical flocks.

Robustness contract:

* every raw :mod:`sqlite3` exception escaping a public method is wrapped
  as :class:`~repro.errors.EvaluationError` with the offending SQL
  attached;
* *transient* operational errors ("database is locked"/"busy") are
  retried per statement with capped exponential backoff before giving
  up (:func:`~repro.recovery.run_statement`; loading runs outside the
  loop's retry rung) — the :func:`~repro.flocks.mining.mine` front door
  falls back to the in-memory engine when the retries are exhausted, or
  when the data holds a value SQLite cannot store (an int outside
  64 bits);
* a step re-run by the loop's retry rung first drops the table its
  failed attempt may have left;
* an :class:`~repro.guard.ExecutionGuard` is enforced from inside the
  SQLite VM via a progress handler (wall-clock deadline and
  cancellation) and, by the executor loop, per materialized step
  table (row budget), raising
  :class:`~repro.errors.BudgetExceededError` /
  :class:`~repro.errors.ExecutionCancelled` with the partial trace of
  the steps that completed.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Any, Iterable, Sequence

from ..engine.ir import StepPlan
from ..engine.memory import StepResult
from ..engine.sqlgen import column_source, materialize_step
from ..errors import EvaluationError, ExecutionAborted
from ..guard import ExecutionGuard, GuardLike, as_guard
from ..recovery import STATEMENT_RETRY, run_statement
from ..relational.catalog import Database
from ..relational.relation import Relation
from .executor import execute_plan
from .flock import QueryFlock
from .plans import QueryPlan, single_step_plan


#: How many SQLite VM opcodes run between guard polls.
_PROGRESS_OPCODES = 1000


class SQLiteBackend:
    """Evaluate flocks on SQLite via generated SQL.

    Usage::

        with SQLiteBackend(db) as backend:
            result = backend.evaluate_flock(flock)          # Fig. 1 SQL
            faster = backend.execute_plan(flock, plan)      # rewrite script
        assert result == faster

    The connection is an in-memory SQLite database.
    """

    #: The per-statement retry :func:`~repro.recovery.run_statement`
    #: applies.
    retry_policy = STATEMENT_RETRY

    def __init__(self, db: Database | None = None):
        self.connection = sqlite3.connect(":memory:")
        #: Injectable for tests; production uses time.sleep.
        self._sleep = time.sleep
        #: The guard of the plan currently running (polled from inside
        #: the VM; retry sleeps are clamped to its remaining wall-clock).
        self._active_guard: ExecutionGuard | None = None
        #: Step tables materialized or mirrored so far.
        self._step_tables: set[str] = set()
        self._loaded: Database | None = None
        #: Guard abort raised from inside the progress handler, if any.
        self._guard_abort: list[ExecutionAborted] = []
        if db is not None:
            self.load(db)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def load(self, db: Database) -> None:
        """(Re)load every relation of ``db`` as a SQLite table."""
        for name in db.names():
            relation = db.get(name)
            self._put_table(name, relation.columns, relation.tuples)
        self.connection.commit()
        self._loaded = db

    def _put_table(
        self, name: str, columns: Sequence[str], rows: Iterable[tuple]
    ) -> None:
        """(Re)create table ``name`` over ``columns`` holding ``rows``."""
        cursor = self.connection.cursor()
        self._execute(cursor, f"DROP TABLE IF EXISTS {name}")
        self._execute(cursor, f"CREATE TABLE {name} ({', '.join(columns)})")
        placeholders = ", ".join("?" for _ in columns)
        self._execute(
            cursor,
            f"INSERT INTO {name} VALUES ({placeholders})",
            parameters=sorted(rows, key=repr),
            many=True,
        )

    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self.connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _require_loaded(self) -> Database:
        if self._loaded is None:
            raise EvaluationError("no database loaded into the SQL backend")
        return self._loaded

    def evaluate_flock(
        self,
        flock: QueryFlock,
        guard: GuardLike = None,
    ) -> Relation:
        """The naive one-statement evaluation (the Fig. 1 path): the
        single-step plan through :meth:`execute_plan`."""
        return self.execute_plan(flock, single_step_plan(flock), guard=guard)

    def execute_plan(
        self,
        flock: QueryFlock,
        plan: QueryPlan,
        guard: GuardLike = None,
        **loop: Any,
    ) -> Relation:
        """The rewritten evaluation: the executor loop with this backend
        as its step runner, one materialized table per FILTER step (the
        Section 1.3 path).  Step tables are dropped afterwards — also
        on an abort or a failure — so the backend can be reused.

        ``loop`` is passed to :func:`~repro.flocks.executor.execute_plan`
        unchanged: ``sink``, ``supervisor``, ``recorder`` — the hooks
        every runner gets.  Runtime filters render as semi-join ``IN``
        conjuncts over earlier step tables.
        """
        db = self._require_loaded()
        self._active_guard = as_guard(guard)
        try:
            return execute_plan(
                db, flock, plan, validate=False, guard=self._active_guard,
                runner=self, **loop,
            ).relation
        finally:
            self._active_guard = None
            self.drop_step_tables()

    def run_step(
        self,
        step_plan: StepPlan,
        db: Database | None = None,
        need_aggregates: bool = False,
    ) -> StepResult:
        """The step-runner seam: render the lowered step, materialize it
        as its step table (``CREATE TABLE ok AS ...``) and read the
        small ok-relation back.

        ``db`` is the loop's scratch catalog (default: the loaded
        database).  A relation the step reads that is there but not yet
        a table here — an ok-relation the loop served from a session
        cache or a checkpoint, which no :meth:`run_step` materialized —
        is mirrored first.  Step tables, materialized or mirrored, carry
        :func:`~repro.engine.sqlgen.column_source` names.  The step's
        own table is dropped before it is created, so a re-run by the
        loop's retry rung is safe.  With ``need_aggregates`` the table
        and ``passed`` also carry one ``_agg{i}`` column per filter
        conjunct — the SQL rendering of the in-memory engine's
        ``passed`` relation.  The table stays until
        :meth:`drop_step_tables`, so later steps can join it.
        """
        base = self._require_loaded()
        db = base if db is None else db
        name = step_plan.result_name
        if name in base:
            raise EvaluationError(
                f"step table {name!r} would overwrite a base relation"
            )
        out_columns = (
            step_plan.group.columns if need_aggregates
            else step_plan.root.columns
        )
        # Registered before it exists: cleanup must cover a table whose
        # creation was interrupted.
        self._step_tables.add(name)
        columns_of = column_source(db, self._step_tables)
        for branch in step_plan.branches:
            for read in branch.query.predicates():
                if read not in base and read not in self._step_tables:
                    self._step_tables.add(read)
                    self._put_table(read, columns_of(read), db.get(read).tuples)
        self._run(f"DROP TABLE IF EXISTS {name}", name)
        self._run(
            materialize_step(
                step_plan, columns_of, include_aggregates=need_aggregates
            ),
            name,
        )
        rows = self._run(f"SELECT * FROM {name}", name)
        passed = Relation(name, out_columns, rows)
        if not need_aggregates:
            return StepResult(passed, None, len(passed))
        result = passed.project(list(step_plan.root.columns), name=name)
        return StepResult(result, passed, len(passed))

    def drop_step_tables(self) -> None:
        """Drop every step table :meth:`run_step` materialized or
        mirrored."""
        cursor = self.connection.cursor()
        for name in self._step_tables:
            try:
                cursor.execute(f"DROP TABLE IF EXISTS {name}")
            except sqlite3.Error:  # cleanup must not mask the error
                pass
        self.connection.commit()
        self._step_tables = set()

    # ------------------------------------------------------------------
    # Statement machinery
    # ------------------------------------------------------------------

    def _execute(
        self,
        cursor: sqlite3.Cursor,
        statement: str,
        parameters: Sequence | None = None,
        many: bool = False,
    ) -> sqlite3.Cursor:
        """Run one statement through :func:`~repro.recovery.run_statement`
        (retries clamped to the active guard), except that a guard
        interrupt from the progress handler re-raises the guard's own
        exception, not "interrupted"."""
        try:
            return run_statement(
                cursor, statement, parameters, many,
                sleep=self._sleep, guard=self._active_guard,
            )
        except EvaluationError as error:
            if self._guard_abort:
                raise self._guard_abort.pop() from error.__cause__
            raise

    def _install_guard(self, guard: ExecutionGuard | None) -> bool:
        """Poll the guard from inside the SQLite VM loop.

        Returns True when a handler was installed (caller must remove)."""
        if guard is None:
            return False
        if guard.deadline is None and guard.cancel is None:
            return False
        self._guard_abort.clear()

        def handler() -> int:
            try:
                guard.checkpoint(node="sqlite progress handler")
            except ExecutionAborted as aborted:
                self._guard_abort.append(aborted)
                return 1  # interrupt the VM
            return 0

        self.connection.set_progress_handler(handler, _PROGRESS_OPCODES)
        return True

    def _run(self, statement: str, label: str) -> list[tuple]:
        """Execute one statement of step ``label`` under the active
        guard and return its rows.  An abort from inside the VM marks
        the interrupted step on the guard, so the partial trace is never
        empty and shows where work stopped."""
        guard = self._active_guard
        installed = self._install_guard(guard)
        started = time.perf_counter()
        try:
            return self._execute(self.connection.cursor(), statement).fetchall()
        except ExecutionAborted:
            if guard is not None:
                guard.note_step(
                    name=f"aborted:{label}",
                    description=statement.replace("\n", " ")[:100],
                    input_tuples=0,
                    output_assignments=0,
                    seconds=time.perf_counter() - started,
                    filtered=False,
                )
            raise
        finally:
            if installed:
                self.connection.set_progress_handler(None, 0)


def evaluate_flock_sqlite(
    db: Database, flock: QueryFlock, guard: GuardLike = None
) -> Relation:
    """One-call convenience: load, evaluate naively, close."""
    with SQLiteBackend(db) as backend:
        return backend.evaluate_flock(flock, guard=guard)


def execute_plan_sqlite(
    db: Database, flock: QueryFlock, plan: QueryPlan, guard: GuardLike = None
) -> Relation:
    """One-call convenience: load, run the rewrite script, close."""
    with SQLiteBackend(db) as backend:
        return backend.execute_plan(flock, plan, guard=guard)
