"""Reference evaluators for query flocks.

Two independent implementations of the Section 2 semantics:

* :func:`evaluate_flock` — the "SQL way" (the paper's Fig. 1): compute
  the full parametrized query once with the parameters as output
  columns, GROUP BY the parameters, apply the filter as a HAVING
  condition — i.e. the single-step plan, handed to the executor loop.
  This is the *baseline* every optimized plan must match — and the
  thing the a-priori plans beat.

* :func:`evaluate_flock_bruteforce` — the literal generate-and-test
  semantics: enumerate every active-domain assignment of the
  parameters, instantiate the query, evaluate it, test the filter.
  Exponentially slower; exists purely as a differential oracle for the
  test suite ("in principle, trying all such assignments in the query").
"""

from __future__ import annotations

from itertools import product

from ..errors import EvaluationError
from ..datalog.query import as_union
from ..datalog.terms import Parameter
from ..guard import GuardLike, as_guard
from ..relational.aggregates import AggregateFunction
from ..relational.catalog import Database
from ..relational.evaluate import evaluate_conjunctive
from ..relational.relation import Relation
from .executor import execute_plan
from .filters import STAR, iter_conditions
from .flock import QueryFlock
from .plans import single_step_plan


def evaluate_flock(
    db: Database,
    flock: QueryFlock,
    guard: GuardLike = None,
    sink=None,
    parallel=None,
) -> Relation:
    """Group-by evaluation: the flock result as a relation over its
    parameter columns (sorted by parameter name) — "the original query
    flock expressed as a single filter step", run through the one
    executor loop (:func:`~repro.flocks.executor.execute_plan`).
    Composite filters intersect the per-conjunct survivor sets.

    ``guard`` (an :class:`~repro.guard.ExecutionGuard`,
    :class:`~repro.guard.ResourceBudget` or
    :class:`~repro.guard.CancellationToken`) bounds the evaluation; the
    guard is checked after every join of the answer computation.

    ``sink`` (a :class:`repro.session.SessionSink`) receives the result
    together with its per-conjunct aggregate values, so a session can
    answer later requests at stricter thresholds without re-running the
    joins.

    ``parallel`` (a :class:`~repro.engine.parallel.ParallelExecutor`)
    evaluates the flock as one partitioned step — the whole
    join-group-filter pipeline fans out over hash partitions of a
    parameter column, bit-identical to the serial result.
    """
    return execute_plan(
        db, flock, single_step_plan(flock), validate=False,
        guard=guard, sink=sink, parallel=parallel,
    ).relation


def parameter_domains(db: Database, flock: QueryFlock) -> dict[Parameter, set]:
    """The active domain of each parameter: all values appearing at a
    position where the parameter occurs in some positive subgoal.

    This is the candidate space the brute-force evaluator enumerates.
    Any acceptable assignment must draw from these sets — a value never
    co-occurring with the parameter's positions yields an empty answer,
    which no admissible filter accepts (flock construction refuses
    filters that pass on empty answers).
    """
    domains: dict[Parameter, set] = {p: set() for p in flock.parameters}
    for rule in flock.rules:
        for sg in rule.positive_atoms():
            base = db.get(sg.predicate)
            for position, term in enumerate(sg.terms):
                if isinstance(term, Parameter):
                    values = {row[position] for row in base.tuples}
                    domains[term] |= values
    return domains


def evaluate_flock_bruteforce(
    db: Database, flock: QueryFlock, guard: GuardLike = None
) -> Relation:
    """The literal Section 2 semantics; exponential, test-oracle only."""
    guard = as_guard(guard)
    params = list(flock.parameters)
    domains = parameter_domains(db, flock)
    candidate_lists = [sorted(domains[p], key=repr) for p in params]

    union = as_union(flock.query)
    rows: set[tuple] = set()
    for values in product(*candidate_lists):
        if guard is not None:
            guard.checkpoint(node="bruteforce assignment loop")
        assignment = dict(zip(params, values))
        instantiated = union.instantiate(assignment)
        width = instantiated.head_arity
        head_cols = tuple(f"_h{i}" for i in range(width))
        answer_rows: set[tuple] = set()
        for rule in instantiated.rules:
            branch = evaluate_conjunctive(
                db, rule, output_terms=list(rule.head_terms)
            )
            answer_rows |= branch.tuples
        answer = Relation("answer", head_cols, answer_rows)
        if _test_filter_on_answer(flock, answer):
            rows.add(tuple(values))
    return Relation("flock", flock.parameter_columns, rows)


def _test_filter_on_answer(flock: QueryFlock, answer: Relation) -> bool:
    """Apply the flock's filter to one instantiated answer relation,
    resolving a named target to the positional column for unions.  For
    composite filters every conjunct must pass."""
    return all(
        _test_single_condition(flock, condition, answer)
        for condition in iter_conditions(flock.filter)
    )


def _test_single_condition(
    flock: QueryFlock, condition, answer: Relation
) -> bool:
    if condition.target == STAR:
        return condition.test_relation(answer)
    # Single-rule flock: the answer columns are the head variables but
    # evaluate_conjunctive named them after the terms; map by position.
    rule = flock.rules[0]
    head_names = [str(t) for t in rule.head_terms]
    if condition.target not in head_names:
        raise EvaluationError(
            f"filter target {condition.target!r} not among head terms"
        )
    position = head_names.index(condition.target)
    projected = answer.project([answer.columns[position]])
    if condition.aggregate is AggregateFunction.COUNT:
        return condition.passes(len(projected))
    return condition.test_relation(
        answer.rename({answer.columns[position]: condition.target})
    )
