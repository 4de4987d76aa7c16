"""Query flocks and plans as SQL text (Section 1.3, Fig. 1).

The paper argues flocks *can* be written in SQL — Fig. 1 is the pair
query as a self-join with GROUP BY/HAVING — but that conventional
optimizers won't discover the a-priori rewrite.  This module prints
both artifacts through the one renderer the SQLite backend executes
(:mod:`repro.engine.sqlgen`), from the same lowered step plans:

* :func:`plan_to_sql` — the rewritten script, one ``CREATE TABLE ... AS``
  per pre-filter step and a final ``SELECT`` (the rewrite the paper
  reports gave a 20-fold speedup on word-occurrence data);
* :func:`flock_to_sql` — the naive one-statement translation, which is
  the script of the single-step plan (the thing a conventional DBMS
  would be handed).
"""

from __future__ import annotations

from ..engine.sqlgen import column_source, materialize_step, render_step
from ..relational.catalog import Database
from ..relational.relation import Relation
from .executor import lower_filter_step
from .flock import QueryFlock
from .plans import QueryPlan, single_step_plan


def _schema_catalog(flock: QueryFlock) -> Database:
    """Empty relations with ``c{i}`` columns for every predicate the
    flock reads — what a script is lowered against without data."""
    arities = {
        atom.predicate: atom.arity
        for rule in flock.rules
        for atom in rule.positive_atoms() + rule.negated_atoms()
    }
    return Database(
        Relation(name, [f"c{i}" for i in range(arity)], ())
        for name, arity in arities.items()
    )


def plan_to_sql(
    flock: QueryFlock, plan: QueryPlan, db: Database | None = None
) -> str:
    """The rewritten script: one materialized table per FILTER step.

    This is the Section 1.3 rewrite — e.g. for market baskets, a first
    relation of frequent items joined back into the pair query —
    expressed mechanically for any legal plan, union steps included.
    Each step is lowered like the executor loop lowers it, later steps
    against an empty placeholder for every earlier step table; ``db``
    supplies column names and the statistics the join order follows
    (``None``: a schema-only catalog, see :func:`_schema_catalog`).
    """
    scratch = (db if db is not None else _schema_catalog(flock)).scratch()
    columns_of = column_source(scratch, {s.result_name for s in plan.steps})
    statements: list[str] = []
    for step in plan.steps:
        step_plan = lower_filter_step(scratch, flock, step)
        if step is plan.final_step:
            statements.append(render_step(step_plan, columns_of) + ";")
        else:
            statements.append(materialize_step(step_plan, columns_of) + ";")
            scratch.add(Relation(step.result_name, step_plan.root.columns, ()))
    return "\n\n".join(statements)


def flock_to_sql(flock: QueryFlock, db: Database | None = None) -> str:
    """The naive single-statement translation (Fig. 1 generalized): the
    script of the single-step plan.  Parameters become the GROUP BY
    columns, the filter becomes HAVING, union branches are UNIONed."""
    return plan_to_sql(flock, single_step_plan(flock), db)


def fig1_sql() -> str:
    """The literal Fig. 1 query, for documentation and tests."""
    return (
        "SELECT i1.Item, i2.Item\n"
        "FROM baskets i1, baskets i2\n"
        "WHERE i1.Item < i2.Item AND\n"
        "      i1.BID = i2.BID\n"
        "GROUP BY i1.Item, i2.Item\n"
        "HAVING 20 <= COUNT(i1.BID)"
    )
