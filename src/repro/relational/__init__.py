"""Relational substrate: the in-memory engine flocks run on.

Set-semantics relations, hash joins/anti-joins, grouped aggregation
(the HAVING machinery), a statistics-bearing catalog, and an evaluator
for extended conjunctive queries.
"""

from .aggregates import (
    AggregateFunction,
    group_aggregate,
)
from .catalog import Database, database_from_dict
from .dictionary import ValueDictionary, stable_hash
from .evaluate import (
    atom_binding_relation,
    evaluate_conjunctive,
    term_column,
)
from .io import load_database, load_relation, save_database, save_relation
from .joinorder import (
    AtomBounds,
    atom_bounds,
    chain_upper_bounds,
    join_bounds,
    ues_join_order,
)
from .operators import (
    anti_join,
    cartesian_product,
    natural_join,
    semi_join,
    shared_columns,
    union_all,
)
from .relation import Relation, relation_from_rows
from .statistics import RelationStats, tuples_per_assignment

__all__ = [
    "AggregateFunction",
    "AtomBounds",
    "Database",
    "Relation",
    "RelationStats",
    "ValueDictionary",
    "anti_join",
    "atom_binding_relation",
    "atom_bounds",
    "cartesian_product",
    "chain_upper_bounds",
    "database_from_dict",
    "evaluate_conjunctive",
    "group_aggregate",
    "join_bounds",
    "load_database",
    "load_relation",
    "natural_join",
    "relation_from_rows",
    "save_database",
    "save_relation",
    "semi_join",
    "shared_columns",
    "stable_hash",
    "term_column",
    "tuples_per_assignment",
    "ues_join_order",
    "union_all",
]
