"""SQL-translation tests (Fig. 1, Section 1.3)."""

import sqlite3

import pytest

from repro.datalog.subqueries import SubqueryCandidate
from repro.flocks import FlockOptimizer, SQLiteBackend, evaluate_flock, execute_plan, fig1_sql, flock_to_sql, itemset_flock, itemset_plan, optimize_union, parse_flock, plan_to_sql, plan_from_subqueries, single_step_plan


def _run_sqlite(db, script_or_query: str) -> set[tuple]:
    """Load our relations into SQLite and run the generated SQL —
    the generated text must be *real* SQL, not just pretty-printing."""
    conn = sqlite3.connect(":memory:")
    for name in db.names():
        rel = db.get(name)
        cols = ", ".join(rel.columns)
        conn.execute(f"CREATE TABLE {name} ({cols})")
        placeholders = ", ".join("?" for _ in rel.columns)
        conn.executemany(
            f"INSERT INTO {name} VALUES ({placeholders})", sorted(rel.tuples, key=repr)
        )
    statements = [s.strip() for s in script_or_query.split(";") if s.strip()]
    rows: set[tuple] = set()
    for i, statement in enumerate(statements):
        cursor = conn.execute(statement)
        if i == len(statements) - 1:
            rows = {tuple(r) for r in cursor.fetchall()}
    conn.close()
    return rows


class TestFlockToSql:
    def test_contains_group_by_having(self, basket_flock, small_basket_db):
        sql = flock_to_sql(basket_flock, small_basket_db)
        assert "GROUP BY" in sql
        assert "HAVING" in sql
        assert "COUNT(DISTINCT" in sql

    def test_sqlite_agrees_with_engine(self, basket_flock, small_basket_db):
        sql = flock_to_sql(basket_flock, small_basket_db)
        sqlite_rows = _run_sqlite(small_basket_db, sql)
        ours = evaluate_flock(small_basket_db, basket_flock)
        assert sqlite_rows == set(ours.tuples)

    def test_medical_with_negation_on_sqlite(
        self, medical_flock, small_medical_db
    ):
        sql = flock_to_sql(medical_flock, small_medical_db)
        assert "NOT EXISTS" in sql
        sqlite_rows = _run_sqlite(small_medical_db, sql)
        ours = evaluate_flock(small_medical_db, medical_flock)
        assert sqlite_rows == set(ours.tuples)

    def test_union_flock_sql(self, web_flock, small_web_db):
        sql = flock_to_sql(web_flock, small_web_db)
        assert "UNION" in sql
        # sqlite can't COUNT(DISTINCT a, b) over multiple columns, but
        # the Fig. 4 union has single-column heads so it runs.
        sqlite_rows = _run_sqlite(small_web_db, sql)
        ours = evaluate_flock(small_web_db, web_flock)
        assert sqlite_rows == set(ours.tuples)

    def test_weighted_sum_sql(self, small_basket_db):
        from repro.relational import database_from_dict

        db = database_from_dict(
            {
                "baskets": (
                    ("BID", "Item"),
                    [(1, "a"), (1, "b"), (2, "a"), (2, "b"), (3, "a")],
                ),
                "importance": (("BID", "W"), [(1, 10), (2, 15), (3, 1)]),
            }
        )
        flock = parse_flock(
            """
            QUERY:
            answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND
                           importance(B,W) AND $1 < $2
            FILTER:
            SUM(answer.W) >= 20
            """
        )
        sql = flock_to_sql(flock, db)
        sqlite_rows = _run_sqlite(db, sql)
        ours = evaluate_flock(db, flock)
        assert sqlite_rows == set(ours.tuples)


class TestPlanToSql:
    def test_tables_created_per_prefilter(self, small_basket_db):
        flock = itemset_flock(2, support=2)
        plan = itemset_plan(flock)
        sql = plan_to_sql(flock, plan, small_basket_db)
        assert sql.count("CREATE TABLE") == 2

    def test_plan_sql_agrees_with_engine(self, small_basket_db):
        flock = itemset_flock(2, support=2)
        plan = itemset_plan(flock)
        sql = plan_to_sql(flock, plan, small_basket_db)
        sqlite_rows = _run_sqlite(small_basket_db, sql)
        ours = evaluate_flock(small_basket_db, flock)
        assert sqlite_rows == set(ours.tuples)

    def test_medical_plan_sql(self, medical_flock, small_medical_db):
        rule = medical_flock.rules[0]
        plan = plan_from_subqueries(
            medical_flock,
            [
                ("okS", SubqueryCandidate((0,), rule.with_body_subset([0]))),
                ("okM", SubqueryCandidate((1,), rule.with_body_subset([1]))),
            ],
        )
        sql = plan_to_sql(medical_flock, plan, small_medical_db)
        sqlite_rows = _run_sqlite(small_medical_db, sql)
        ours = evaluate_flock(small_medical_db, medical_flock)
        assert sqlite_rows == set(ours.tuples)

    def test_union_plan_sql(self, web_flock, small_web_db):
        plan = optimize_union(small_web_db, web_flock)
        sql = plan_to_sql(web_flock, plan, small_web_db)
        assert "UNION" in sql
        sqlite_rows = _run_sqlite(small_web_db, sql)
        assert sqlite_rows == set(evaluate_flock(small_web_db, web_flock).tuples)

    def test_naive_is_the_single_step_script(self, web_flock, small_web_db):
        assert flock_to_sql(web_flock, small_web_db) == plan_to_sql(
            web_flock, single_step_plan(web_flock), small_web_db
        )

    @pytest.mark.parametrize("fixture", ["basket", "medical"])
    def test_every_enumerated_plan_agrees_with_both_runners(
        self, request, fixture
    ):
        """The printed script, the SQLite runner and the in-memory
        runner give one survivor set for every plan the optimizer
        enumerates."""
        flock = request.getfixturevalue(f"{fixture}_flock")
        db = request.getfixturevalue(f"small_{fixture}_db")
        plans = FlockOptimizer(db, flock).enumerate_plans()
        assert len(plans) > 1
        with SQLiteBackend(db) as backend:
            for plan in plans:
                script = _run_sqlite(db, plan_to_sql(flock, plan, db))
                memory = execute_plan(db, flock, plan).relation.tuples
                assert script == backend.execute_plan(flock, plan).tuples
                assert script == memory, plan.render(flock)


class TestFig1:
    def test_literal_text(self):
        sql = fig1_sql()
        assert "FROM baskets i1, baskets i2" in sql
        assert "HAVING 20 <= COUNT(i1.BID)" in sql

    def test_fig1_runs_on_sqlite(self, small_basket_db):
        # Lower the threshold to the test scale, then compare with the
        # flock evaluation of the same query.
        sql = fig1_sql().replace("20 <=", "2 <=")
        sqlite_rows = _run_sqlite(small_basket_db, sql)
        flock = itemset_flock(2, support=2)
        ours = evaluate_flock(small_basket_db, flock)
        assert sqlite_rows == set(ours.tuples)
