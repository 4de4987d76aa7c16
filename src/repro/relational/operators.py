"""Relational-algebra operators used by the query engine.

Joins are columnar hash joins: build a hash table on the smaller input
keyed by the shared columns, probe with the larger, then gather the
matching row indexes through the column arrays batch-at-a-time.  Negated
subgoals become anti-joins (Section 2.3's ``NOT`` is evaluated against
fully bound terms, which safety guarantees).  Everything is
set-semantics.

A key property keeps these operators cheap: the natural join of two
duplicate-free relations is duplicate-free.  Two matched pairs
``(l1, r1)`` and ``(l2, r2)`` produce equal output rows only if
``l1 == l2`` (the output contains every left column), which forces the
shared key columns equal and hence ``r1 == r2``.  Joins, semi-joins,
anti-joins, and selections therefore never re-deduplicate; only
projections that drop columns and unions do.

When both inputs carry encoded code columns interned against the *same*
:class:`~.dictionary.ValueDictionary`, every operator here runs on the
integer codes instead of the values — build/probe keys are small ints,
gathers move ints, and the output is itself encoded (no decode on the
hot path).  Mixed or differently-encoded inputs transparently fall back
to the value arrays.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator, Sequence

from ..errors import SchemaError
from .dictionary import ValueDictionary
from .relation import Relation


def shared_columns(left: Relation, right: Relation) -> tuple[str, ...]:
    """Columns common to both relations, in ``left``'s order."""
    right_set = set(right.columns)
    return tuple(c for c in left.columns if c in right_set)


def shared_dictionary(left: Relation, right: Relation) -> ValueDictionary | None:
    """The common dictionary when both sides are encoded against one."""
    d = left.dictionary
    if d is not None and right.dictionary is d and left.is_encoded and right.is_encoded:
        return d
    return None


def key_reader(
    rel: Relation, keys: Sequence[str], encoded: bool = False
) -> Iterator[object]:
    """An iterator of per-row key values for ``rel`` over ``keys``.

    Single-column keys iterate the raw column array (no tuple boxing);
    multi-column keys zip the key arrays.  ``encoded`` reads the code
    columns instead of the value arrays.
    """
    if encoded:
        codes = rel.code_columns()
        arrays = [codes[rel.column_position(c)] for c in keys]
    else:
        arrays = [rel.column_array(c) for c in keys]
    if len(arrays) == 1:
        return iter(arrays[0])
    return zip(*arrays)


def _gather(arrays: Sequence[list], indexes: Sequence[int]) -> list[list]:
    """Materialize selected rows of row-aligned arrays, column by column."""
    return [list(map(arr.__getitem__, indexes)) for arr in arrays]


def join_indexes(
    left: Relation, right: Relation, encoded: bool = False
) -> tuple[list[int], Sequence[int]]:
    """The matching ``(left, right)`` row-index pairs of the natural join,
    as two aligned sequences — the join without its gather.

    A hash join on all shared columns that builds on the smaller side
    and probes with the larger; with no shared columns every pair
    matches (a cartesian product, which the evaluator's join ordering
    tries to avoid but must support — the paper's queries can have
    disconnected subgoal sets after deletion).  ``encoded`` hashes the
    code columns instead of the values.  Against a one-row left side
    (the unit relation) the right indexes are the identity ``range``.
    """
    keys = shared_columns(left, right)
    n, m = len(left), len(right)
    if not keys:
        left_idx = list(chain.from_iterable(repeat(i, m) for i in range(n)))
        return left_idx, range(m) if n == 1 else list(range(m)) * n

    # Build on the smaller side, probe with the larger.
    build, probe, build_is_left = (
        (left, right, True) if n <= m else (right, left, False)
    )

    table: dict[object, list[int]] = {}
    for i, key in enumerate(key_reader(build, keys, encoded)):
        bucket = table.get(key)
        if bucket is None:
            table[key] = [i]
        else:
            bucket.append(i)

    build_idx: list[int] = []
    probe_idx: list[int] = []
    for i, key in enumerate(key_reader(probe, keys, encoded)):
        bucket = table.get(key)
        if bucket is not None:
            probe_idx.extend([i] * len(bucket))
            build_idx.extend(bucket)

    if build_is_left:
        return build_idx, probe_idx
    return probe_idx, build_idx


def natural_join(left: Relation, right: Relation, name: str = "join") -> Relation:
    """Natural (hash) join on all shared columns (see :func:`join_indexes`;
    no shared columns is a cartesian product)."""
    left_cols = set(left.columns)
    right_only = [c for c in right.columns if c not in left_cols]
    out_columns = left.columns + tuple(right_only)
    dictionary = shared_dictionary(left, right)
    left_idx, right_idx = join_indexes(left, right, dictionary is not None)
    if dictionary is not None:
        right_codes = right.code_columns()
        right_only_codes = [
            right_codes[right.column_position(c)] for c in right_only
        ]
        codes = _gather(left.code_columns(), left_idx) + _gather(
            right_only_codes, right_idx
        )
        return Relation.from_encoded(
            name, out_columns, codes, dictionary, count=len(left_idx)
        )
    right_only_arrays = [right.column_array(c) for c in right_only]
    data = _gather(left.columns_data(), left_idx) + _gather(
        right_only_arrays, right_idx
    )
    return Relation.from_columns(name, out_columns, data, count=len(left_idx))


def semi_join(left: Relation, right: Relation, name: str = "semijoin") -> Relation:
    """Tuples of ``left`` that join with at least one tuple of ``right``."""
    return _filter_by_membership(left, right, name, keep_matches=True)


def anti_join(left: Relation, right: Relation, name: str = "antijoin") -> Relation:
    """Tuples of ``left`` that join with **no** tuple of ``right``.

    This is how a fully bound ``NOT p(...)`` subgoal is applied to the
    current binding relation.
    """
    return _filter_by_membership(left, right, name, keep_matches=False)


def _filter_by_membership(
    left: Relation, right: Relation, name: str, keep_matches: bool
) -> Relation:
    keys = shared_columns(left, right)
    if not keys:
        # No shared columns: left survives iff right is (non)empty.
        if bool(len(right)) == keep_matches:
            return left.with_name(name)
        return Relation(name, left.columns)
    encoded = shared_dictionary(left, right) is not None
    right_keys = set(key_reader(right, keys, encoded))
    keep = [
        i
        for i, key in enumerate(key_reader(left, keys, encoded))
        if (key in right_keys) == keep_matches
    ]
    return left.take(keep, name=name)


def cartesian_product(left: Relation, right: Relation, name: str = "product") -> Relation:
    """Explicit cartesian product (shared columns must be disjoint)."""
    if shared_columns(left, right):
        raise SchemaError(
            "cartesian_product requires disjoint columns; use natural_join"
        )
    return natural_join(left, right, name)


def union_all(relations: Sequence[Relation], name: str = "union") -> Relation:
    """Set union of same-schema relations (duplicates collapse)."""
    if not relations:
        raise ValueError("union_all needs at least one relation")
    first = relations[0]
    rows: set[tuple] = set()
    for rel in relations:
        if rel.columns != first.columns:
            raise SchemaError(
                f"union_all schema mismatch: {first.columns} vs {rel.columns}"
            )
        rows |= rel.tuples
    return Relation.from_distinct_rows(name, first.columns, rows)
