"""Query flocks: the paper's primary contribution.

The flock model (Section 2), filter conditions and monotonicity
(Sections 2.1, 5), reference evaluators, the FILTER-step plan notation
and legality rule (Sections 4.1–4.2), the static optimizer (Section
4.3), the dynamic evaluator (Section 4.4), SQL translation (Section
1.3/Fig. 1), and the classic a-priori baseline it all generalizes.
"""

from .apriori import (
    apriori_itemsets,
    baskets_as_sets,
    frequent_pairs,
    itemset_flock,
    itemset_plan,
    itemsets_from_flock_result,
)
from .dynamic import (
    DynamicDecision,
    DynamicEvaluator,
    DynamicTrace,
    evaluate_flock_dynamic,
)
from .executor import execute_plan, execute_step
from .filters import (
    STAR,
    CompositeFilter,
    FilterCondition,
    iter_conditions,
    parse_filter,
    filter_implies,
    filter_signature,
    refilter_aggregates,
    support_filter,
)
from .flock import QueryFlock, parse_flock
from .lint import LintCode, LintWarning, lint_diagnostics, lint_flock
from .mining import Downgrade, MiningReport, mine
from .options import BACKENDS, STRATEGIES, MiningOptions
from .paper import (
    fig2_flock,
    fig3_flock,
    fig4_flock,
    fig5_plan,
    fig6_flock,
    fig6_query,
    fig7_plan,
    fig10_flock,
)
from .naive import (
    evaluate_flock,
    evaluate_flock_bruteforce,
    parameter_domains,
)
from .optimizer import (
    FlockOptimizer,
    ScoredPlan,
    estimate_rule_size,
    optimize,
    optimize_union,
)
from .plans import (
    FilterStep,
    QueryPlan,
    chained_plan,
    plan_from_subqueries,
    single_step_plan,
    validate_plan,
)
from .result import ExecutionTrace, FlockResult, StepTrace
from .rules import AssociationRule, mine_association_rules, rules_for_consequent
from .sequence import (
    FlockSequence,
    SequenceResult,
    SequenceStep,
    mine_maximal_itemsets,
)
from .sql import fig1_sql, flock_to_sql, plan_to_sql
from .sqlbackend import (
    SQLiteBackend,
    evaluate_flock_sqlite,
    execute_plan_sqlite,
)

__all__ = [
    "AssociationRule",
    "BACKENDS",
    "CompositeFilter",
    "Downgrade",
    "DynamicDecision",
    "DynamicEvaluator",
    "DynamicTrace",
    "ExecutionTrace",
    "FilterCondition",
    "FilterStep",
    "FlockOptimizer",
    "FlockResult",
    "FlockSequence",
    "LintCode",
    "LintWarning",
    "MiningOptions",
    "MiningReport",
    "QueryFlock",
    "QueryPlan",
    "SQLiteBackend",
    "STAR",
    "STRATEGIES",
    "ScoredPlan",
    "SequenceResult",
    "SequenceStep",
    "StepTrace",
    "apriori_itemsets",
    "baskets_as_sets",
    "chained_plan",
    "estimate_rule_size",
    "evaluate_flock",
    "evaluate_flock_bruteforce",
    "evaluate_flock_dynamic",
    "evaluate_flock_sqlite",
    "execute_plan",
    "execute_plan_sqlite",
    "execute_step",
    "fig10_flock",
    "fig1_sql",
    "fig2_flock",
    "fig3_flock",
    "fig4_flock",
    "fig5_plan",
    "fig6_flock",
    "fig6_query",
    "fig7_plan",
    "filter_implies",
    "filter_signature",
    "flock_to_sql",
    "frequent_pairs",
    "itemset_flock",
    "itemset_plan",
    "itemsets_from_flock_result",
    "iter_conditions",
    "lint_diagnostics",
    "lint_flock",
    "mine",
    "mine_association_rules",
    "mine_maximal_itemsets",
    "optimize",
    "optimize_union",
    "parameter_domains",
    "parse_filter",
    "parse_flock",
    "plan_from_subqueries",
    "plan_to_sql",
    "refilter_aggregates",
    "rules_for_consequent",
    "single_step_plan",
    "support_filter",
    "validate_plan",
]
