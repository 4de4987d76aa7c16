"""repro — a full reproduction of *Query Flocks: A Generalization of
Association-Rule Mining* (Tsur, Ullman, Abiteboul, Clifton, Motwani,
Nestorov, Rosenthal; SIGMOD 1998).

Quickstart::

    from repro import parse_flock, database_from_dict, evaluate_flock, optimize, execute_plan

    flock = parse_flock('''
        QUERY:
        answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2

        FILTER:
        COUNT(answer.B) >= 20
    ''')
    result = evaluate_flock(db, flock)          # the naive/SQL way
    plan = optimize(db, flock)                  # a-priori rewrite
    fast = execute_plan(db, flock, plan)        # same answer, faster
    assert fast.relation == result

Subpackages:

* :mod:`repro.analysis` — static verification: structured diagnostics,
  plan legality certificates (safety reports + containment witnesses),
  and the physical-IR schema checker;
* :mod:`repro.datalog` — the flock query language (terms, extended CQs,
  unions, parser, safety, containment, safe-subquery enumeration);
* :mod:`repro.relational` — the in-memory relational engine;
* :mod:`repro.flocks` — flocks, filters, plans, optimizers, executors,
  SQL translation, the classic a-priori baseline;
* :mod:`repro.recovery` — fault tolerance: retry policies with
  guard-clamped backoff, and step-level checkpoint–resume for
  long-running mining runs;
* :mod:`repro.session` — interactive mining sessions with a
  containment-aware result cache (re-ask at a stricter threshold and
  the answer comes from the cache, no joins);
* :mod:`repro.serve` — mining-as-a-service: an HTTP/JSON daemon
  multiplexing many concurrent clients over one shared session/cache,
  with per-tenant admission control and Prometheus metrics;
* :mod:`repro.workloads` — synthetic data generators for the paper's
  example domains.
"""

from .errors import (
    BudgetExceededError,
    EvaluationError,
    ExecutionAborted,
    ExecutionCancelled,
    FilterError,
    HungWorkerError,
    ParseError,
    PlanError,
    ReproError,
    ResumeError,
    SafetyError,
    SchemaError,
)
from .guard import (
    CancellationToken,
    ExecutionGuard,
    ResourceBudget,
)
from .recovery import (
    CheckpointStore,
    RetryPolicy,
    RetrySupervisor,
    TransientFault,
)
from .analysis import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    plan_verification,
    set_plan_verification,
)
from .datalog import (
    ConjunctiveQuery,
    Parameter,
    UnionQuery,
    Variable,
    atom,
    comparison,
    negated,
    parse_query,
    parse_rule,
    rule,
)
from .relational import (
    Database,
    Relation,
    database_from_dict,
    load_database,
    save_database,
)
from .flocks import (
    FilterCondition,
    FilterStep,
    FlockOptimizer,
    FlockResult,
    MiningOptions,
    QueryFlock,
    QueryPlan,
    apriori_itemsets,
    evaluate_flock,
    evaluate_flock_bruteforce,
    evaluate_flock_dynamic,
    execute_plan,
    flock_to_sql,
    itemset_flock,
    itemset_plan,
    mine,
    optimize,
    parse_filter,
    parse_flock,
    plan_to_sql,
    support_filter,
    validate_plan,
)
from .session import (
    MiningSession,
    ResultCache,
    SessionStats,
    with_support_threshold,
)
from .serve import (
    MiningClient,
    MiningService,
    ServeError,
    ServerConfig,
    TenantPolicy,
)

__version__ = "1.0.0"

__all__ = [
    "BudgetExceededError",
    "CancellationToken",
    "CheckpointStore",
    "ConjunctiveQuery",
    "Database",
    "Diagnostic",
    "DiagnosticReport",
    "EvaluationError",
    "ExecutionAborted",
    "ExecutionCancelled",
    "ExecutionGuard",
    "FilterCondition",
    "FilterError",
    "FilterStep",
    "FlockOptimizer",
    "FlockResult",
    "HungWorkerError",
    "MiningClient",
    "MiningOptions",
    "MiningService",
    "MiningSession",
    "Parameter",
    "ParseError",
    "PlanError",
    "QueryFlock",
    "QueryPlan",
    "Relation",
    "ReproError",
    "ResourceBudget",
    "ResultCache",
    "ResumeError",
    "RetryPolicy",
    "RetrySupervisor",
    "SafetyError",
    "SchemaError",
    "ServeError",
    "ServerConfig",
    "SessionStats",
    "Severity",
    "TenantPolicy",
    "TransientFault",
    "UnionQuery",
    "Variable",
    "apriori_itemsets",
    "atom",
    "comparison",
    "database_from_dict",
    "evaluate_flock",
    "evaluate_flock_bruteforce",
    "evaluate_flock_dynamic",
    "execute_plan",
    "flock_to_sql",
    "itemset_flock",
    "itemset_plan",
    "load_database",
    "mine",
    "negated",
    "optimize",
    "parse_filter",
    "parse_flock",
    "parse_query",
    "parse_rule",
    "plan_to_sql",
    "plan_verification",
    "rule",
    "save_database",
    "set_plan_verification",
    "support_filter",
    "validate_plan",
    "with_support_threshold",
]
