"""Grouped aggregation — the machinery behind flock filters.

A flock filter is a condition on the *query result per parameter
assignment* (``COUNT(answer.P) >= 20``).  Operationally that is a
GROUP BY over the parameter columns with an aggregate over the answer
columns, exactly the SQL ``HAVING`` pattern of the paper's Fig. 1.

:func:`group_values` computes one aggregate per group key, over any
column reader — the in-memory step's answer, read through its last
join's index pairs or its distinct rows, or a relation's
(:func:`relation_group_values`);
:func:`survivor_relations` applies a filter's conjuncts to those values
and builds the surviving groups in canonical order — the one place an
in-memory FILTER picks its survivors.  :func:`group_aggregate` is the
same aggregation as a relation.  When the group-by column list is empty
the whole relation is one group (a flock with no parameters
degenerates to a single yes/no test).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, Sequence

from ..errors import EvaluationError, FilterError
from .dictionary import ValueDictionary
from .operators import ColumnReader, shared_dictionary
from .relation import Relation

if TYPE_CHECKING:
    from ..flocks.filters import FilterCondition


class AggregateFunction(Enum):
    """Aggregates admitted in filter conditions (Section 2.1, Section 5)."""

    COUNT = "COUNT"
    SUM = "SUM"
    MIN = "MIN"
    MAX = "MAX"

    @classmethod
    def from_name(cls, name: str) -> "AggregateFunction":
        try:
            return cls[name.upper()]
        except KeyError:
            raise FilterError(f"unknown aggregate function {name!r}") from None


def group_aggregate(
    relation: Relation,
    group_by: Sequence[str],
    fn: AggregateFunction,
    target: Sequence[str] | None = None,
    name: str = "agg",
    result_column: str = "agg",
) -> Relation:
    """GROUP BY ``group_by``, aggregate ``fn`` over the ``target`` columns.

    The members of each group are the **distinct non-group sub-tuples**
    (set semantics: the query result has no duplicate rows, so a group's
    members are exactly its distinct answer tuples).

    * For COUNT, ``target`` defaults to all non-group columns; the count
      is of distinct target sub-tuples within the group.
    * For SUM/MIN/MAX, ``target`` must be exactly one column; the
      aggregate ranges over that column's value **in each distinct
      member tuple** — so in Fig. 10's weighted baskets, two distinct
      baskets with equal weight both contribute to ``SUM(answer.W)``.

    Returns a relation with columns ``group_by + (result_column,)``.
    With an empty ``group_by`` the whole relation is one group; COUNT of
    an empty input yields a single row with value 0 (SQL's scalar
    aggregate), while other aggregates of an empty input yield no rows.
    """
    group_set = set(group_by)
    member_columns = [c for c in relation.columns if c not in group_set]
    if target is None:
        if fn is not AggregateFunction.COUNT:
            raise FilterError(f"{fn.value} requires an explicit target column")
        target = member_columns
    if fn is not AggregateFunction.COUNT and len(target) != 1:
        raise FilterError(
            f"{fn.value} aggregates exactly one column, got {list(target)}"
        )
    missing = [c for c in target if c not in set(member_columns)]
    if missing:
        raise FilterError(
            f"aggregate target columns {missing} are group-by columns or "
            "absent; targets must be non-group columns"
        )

    # The keys are codes, and the group-key side of the output stays
    # encoded (codes are equality-faithful, so code groups are exactly
    # value groups).
    dictionary, (relation,) = shared_dictionary(relation)
    per_group = relation_group_values(relation, group_by, fn, target)
    if not group_by and not per_group and fn is AggregateFunction.COUNT:
        per_group = {(): 0}

    # Group keys are unique by construction, so the output is distinct
    # and can be built columnar with no re-deduplication pass.
    if len(group_by) == 1:
        key_columns = [list(per_group.keys())]
    elif group_by and per_group:
        key_columns = [list(col) for col in zip(*per_group.keys())]
    else:
        key_columns = [[] for _ in group_by]
    aggregate_column = dictionary.encode_column(list(per_group.values()))
    return Relation.from_encoded(
        name,
        tuple(group_by) + (result_column,),
        key_columns + [aggregate_column],
        dictionary,
        count=len(aggregate_column),
    )


def count_groups(
    column: ColumnReader,
    group_by: Sequence[str],
    target: Sequence[str],
    columns: Sequence[str],
    rows: int,
) -> Counter:
    """COUNT of distinct ``target`` sub-tuples per group key, over
    ``rows`` distinct rows whose ``columns`` are read by ``column``.

    Keys are scalars for one group column, tuples for several, ``()``
    for none.  Rows are distinct (set semantics), so when the target
    covers every non-group column a group's count is its row count: one
    Counter over the keys.  Otherwise distinct (key, target) pairs
    collapse through a set first.  Either way the counting runs in C.
    """
    keys = [column(c) for c in group_by] or [repeat((), rows)]
    nk = len(keys)
    if set(group_by) | set(target) >= set(columns):
        return Counter(keys[0] if nk == 1 else zip(*keys))
    pairs = set(zip(*keys, *(column(c) for c in target)))
    picker = itemgetter(0) if nk == 1 else itemgetter(slice(0, nk))
    return Counter(map(picker, pairs))


def group_values(
    column: ColumnReader,
    group_by: Sequence[str],
    fn: AggregateFunction,
    target: Sequence[str],
    columns: Sequence[str],
    rows: int,
) -> dict:
    """``{group key: fn over the group's members}`` — one filter
    conjunct's aggregate, over the rows :func:`count_groups` reads.

    COUNT is :func:`count_groups`.  SUM/MIN/MAX read the one target
    column's real values (codes are neither order- nor
    arithmetic-faithful) and stream them: set semantics makes a group's
    member sub-tuples distinct (key + member = the whole row), so each
    row contributes once.  Values the aggregate cannot add or order
    raise :class:`~repro.errors.EvaluationError`.
    """
    if fn is AggregateFunction.COUNT:
        return count_groups(column, group_by, target, columns, rows)
    keys = [column(c) for c in group_by]
    keyed = zip(
        keys[0] if len(keys) == 1 else zip(*keys) if keys else repeat((), rows),
        column(target[0], True),
    )
    per_group: dict
    try:
        if fn is AggregateFunction.SUM:
            per_group = defaultdict(int)
            for key, value in keyed:
                per_group[key] += value
            return per_group
        pick = min if fn is AggregateFunction.MIN else max
        per_group = {}
        for key, value in keyed:
            current = per_group.get(key)
            per_group[key] = value if current is None else pick(current, value)
        return per_group
    except TypeError as error:
        # Values the aggregate cannot add or order (3 and "x").
        raise EvaluationError(
            f"cannot evaluate {fn.value} over the answer: {error}"
        ) from None


def relation_group_values(
    relation: Relation,
    group_by: Sequence[str],
    fn: AggregateFunction,
    target: Sequence[str],
) -> dict:
    """:func:`group_values` over a relation (keys are codes)."""
    dictionary, (relation,) = shared_dictionary(relation)
    codes = relation.code_columns()

    def column(name: str, decode: bool = False) -> Sequence:
        values = codes[relation.column_position(name)]
        return dictionary.decode_column(values) if decode else values

    return group_values(
        column, group_by, fn, target, relation.columns, len(relation)
    )


def survivor_relations(
    values: Sequence[Mapping],
    conditions: Sequence["FilterCondition"],
    columns: Sequence[str],
    name: str,
    dictionary: ValueDictionary,
    agg_columns: Sequence[str] | None = None,
) -> tuple[Relation, Relation | None]:
    """The groups passing a filter: (survivor keys, the same with each
    conjunct's value as its ``agg_columns`` entry — or ``None`` without
    them).

    ``values[i]`` maps each group key to conjunct ``i``'s aggregate
    (:func:`group_values`); a group survives when every map has it and
    every ``conditions[i]`` passes its value.  With no group columns,
    a COUNT of no rows is 0 (SQL's scalar aggregate), any other
    aggregate of no rows has no value.  Rows are canonically sorted by
    the decoded ``repr`` of their keys, so serial, parallel and SQLite
    runs produce identical column arrays; only survivors pay the decode.
    The keys are codes under ``dictionary``, and the output is encoded
    under it.
    """
    if not columns:
        values = [
            {(): 0} if not v and c.aggregate is AggregateFunction.COUNT else v
            for v, c in zip(values, conditions)
        ]
    first, *rest = values
    keep = conditions[0].passing_keys(first.items())
    for condition, more in zip(conditions[1:], rest):
        keep = condition.passing_keys((k, more[k]) for k in keep if k in more)

    single = len(columns) == 1
    decoded = dictionary.values

    def canonical(key) -> str:
        return repr(tuple(decoded[c] for c in ((key,) if single else key)))

    keep.sort(key=canonical)
    key_columns = (
        [keep] if single
        else [list(col) for col in zip(*keep)] or [[] for _ in columns]
    )

    def build(labels: tuple[str, ...], data: list[list]) -> Relation:
        return Relation.from_encoded(
            name, labels, data, dictionary, count=len(keep)
        )

    result = build(tuple(columns), key_columns)
    if agg_columns is None:
        return result, None
    totals = [dictionary.encode_column([v[key] for key in keep]) for v in values]
    return result, build(tuple(columns) + tuple(agg_columns), key_columns + totals)
