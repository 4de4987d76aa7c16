"""Grouped aggregation — the machinery behind flock filters.

A flock filter is a condition on the *query result per parameter
assignment* (``COUNT(answer.P) >= 20``).  Operationally that is a
GROUP BY over the parameter columns with an aggregate over the answer
columns, exactly the SQL ``HAVING`` pattern of the paper's Fig. 1.

:func:`group_aggregate` computes one aggregate per group;
:func:`grouped_counts` is the common COUNT special case.  When the
group-by column list is empty the whole relation is one group (a flock
with no parameters degenerates to a single yes/no test).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from ..errors import FilterError
from .dictionary import ValueDictionary
from .relation import Relation


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
    group_positions = [relation.column_position(c) for c in group_by]
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

    # All paths aggregate over the column arrays rather than the row
    # set: keys come from zipping only the group columns, so no full-row
    # tuples are materialized.  With one group column the scalar values
    # themselves serve as keys.  On an encoded relation the key columns
    # are the integer *code* columns — grouping hashes small ints and the
    # group-key side of the output stays encoded (codes are
    # equality-faithful, so code groups are exactly value groups).
    dictionary = relation.dictionary if relation.is_encoded else None
    columns: Sequence[Sequence] = (
        relation.code_columns() if dictionary is not None
        else relation.columns_data()
    )
    single_key = len(group_positions) == 1
    per_group: dict
    if fn is AggregateFunction.COUNT:
        per_group = relation_group_counts(relation, group_by, target)
    else:
        # SUM/MIN/MAX need real values (codes are not order- or
        # arithmetic-faithful): decode only the one target column, and
        # stream it — set semantics makes the member sub-tuples within a
        # group distinct (key + member = the whole row).
        position = relation.column_position(target[0])
        values = (
            dictionary.decode_column(columns[position])
            if dictionary is not None else columns[position]
        )
        keys: Sequence = (
            columns[group_positions[0]] if single_key
            else list(zip(*(columns[p] for p in group_positions)))
            if group_positions
            else [()] * len(relation)  # whole relation is one group
        )
        if fn is AggregateFunction.SUM:
            per_group = defaultdict(int)
            for key, value in zip(keys, values):
                per_group[key] += value
        else:
            pick = min if fn is AggregateFunction.MIN else max
            per_group = {}
            for key, value in zip(keys, values):
                current = per_group.get(key)
                per_group[key] = (
                    value if current is None else pick(current, value)
                )

    if not group_by and not per_group and fn is AggregateFunction.COUNT:
        per_group = {(): 0}

    # Group keys are unique by construction, so the output is distinct
    # and can be built columnar with no re-deduplication pass.
    out_columns = tuple(group_by) + (result_column,)
    if single_key:
        key_columns = [list(per_group.keys())]
    elif group_positions and per_group:
        key_columns = [list(col) for col in zip(*per_group.keys())]
    else:
        key_columns = [[] for _ in group_positions]
    aggregate_column = list(per_group.values())
    if dictionary is not None:
        return Relation.from_encoded(
            name,
            out_columns,
            key_columns + [dictionary.encode_column(aggregate_column)],
            dictionary,
            count=len(aggregate_column),
        )
    return Relation.from_columns(
        name,
        out_columns,
        key_columns + [aggregate_column],
        count=len(aggregate_column),
    )


def count_groups(
    column: Callable[[str], Iterable],
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


def relation_group_counts(
    relation: Relation, group_by: Sequence[str], target: Sequence[str]
) -> Counter:
    """:func:`count_groups` over a relation (keys are codes when it is
    encoded)."""
    columns = (
        relation.code_columns() if relation.is_encoded
        else relation.columns_data()
    )
    return count_groups(
        lambda c: columns[relation.column_position(c)],
        group_by, target, relation.columns, len(relation),
    )


def survivor_relations(
    counts: Counter,
    cap: int,
    columns: Sequence[str],
    name: str,
    dictionary: ValueDictionary | None,
    agg_column: str | None = None,
) -> tuple[Relation, Relation | None]:
    """The groups whose count reaches ``cap``: (survivor keys, the same
    with their counts as ``agg_column`` — or ``None`` without one).

    Rows are canonically sorted by the decoded ``repr`` (like
    :meth:`~repro.engine.memory.MemoryEngine.project_unique`); only
    survivors pay the decode, and encoded keys stay encoded.
    """
    if not columns and not counts:
        counts = Counter({(): 0})  # SQL's scalar COUNT of no rows
    single = len(columns) == 1
    rows = [
        ((key,) if single else key) + (count,)
        for key, count in counts.items()
        if count >= cap
    ]
    values = dictionary.values if dictionary is not None else None
    rows.sort(key=lambda row: repr(
        row[:-1] if values is None else tuple(values[c] for c in row[:-1])
    ))
    *keys, totals = [list(col) for col in zip(*rows)] or [
        [] for _ in range(len(columns) + 1)
    ]

    def build(labels: tuple[str, ...], data: list[list]) -> Relation:
        if dictionary is None:
            return Relation.from_columns(name, labels, data, count=len(rows))
        return Relation.from_encoded(
            name, labels, data, dictionary, count=len(rows)
        )

    result = build(tuple(columns), keys)
    if agg_column is None:
        return result, None
    if dictionary is not None:
        totals = dictionary.encode_column(totals)
    return result, build(tuple(columns) + (agg_column,), keys + [totals])


def grouped_counts(
    relation: Relation,
    group_by: Sequence[str],
    name: str = "counts",
    result_column: str = "count",
) -> Relation:
    """COUNT of distinct non-group sub-tuples per group."""
    return group_aggregate(
        relation,
        group_by,
        AggregateFunction.COUNT,
        name=name,
        result_column=result_column,
    )


def having(
    counts: Relation,
    predicate: Callable[[object], bool],
    result_column: str = "count",
    name: str = "having",
    keep_aggregate: bool = False,
) -> Relation:
    """Filter a grouped-aggregate relation by its aggregate value —
    the HAVING clause.  Drops the aggregate column unless asked to keep it.
    """
    pos = counts.column_position(result_column)
    rows = {row for row in counts.tuples if predicate(row[pos])}
    if keep_aggregate:
        return Relation(name, counts.columns, rows)
    keep = [c for c in counts.columns if c != result_column]
    keep_pos = [counts.column_position(c) for c in keep]
    return Relation(name, tuple(keep), {tuple(r[p] for p in keep_pos) for r in rows})
