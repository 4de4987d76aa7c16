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

Every operator runs on integer codes: build/probe keys are small ints,
gathers move ints, and the output is itself encoded.  Engine inputs
already share their catalog's dictionary; :func:`shared_dictionary` is
the one place a library caller's plain or differently-encoded input is
interned into a common code space.  Codes are equality-faithful, so
code-space results are exactly the value-space set results.
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


def shared_dictionary(
    *relations: Relation,
) -> tuple[ValueDictionary, tuple[Relation, ...]]:
    """``relations`` in one code space: (its dictionary, each relation
    encoded under it).

    The engine's inputs already share their catalog's dictionary and
    pass through untouched.  A library caller's plain or
    differently-encoded relation is interned into the dictionary of the
    first input that has one, or into a fresh one.  A columnless
    relation (the unit relation) fits any code space.
    """
    dictionary = next(
        (
            r.dictionary for r in relations
            if r.columns and r.dictionary is not None
        ),
        None,
    )
    if dictionary is None:
        dictionary = ValueDictionary()
    return dictionary, tuple(
        r if r.dictionary is dictionary or not r.columns
        else Relation.from_encoded(
            r.name, r.columns, r.encode_with(dictionary), dictionary,
            count=len(r),
        )
        for r in relations
    )


def key_reader(rel: Relation, keys: Sequence[str]) -> Iterator[object]:
    """An iterator of per-row key codes for ``rel`` over ``keys``.

    Single-column keys iterate the raw code column (no tuple boxing);
    multi-column keys zip the key columns.
    """
    codes = rel.code_columns()
    arrays = [codes[rel.column_position(c)] for c in keys]
    if len(arrays) == 1:
        return iter(arrays[0])
    return zip(*arrays)


def _gather(arrays: Sequence[list], indexes: Sequence[int]) -> list[list]:
    """Materialize selected rows of row-aligned arrays, column by column."""
    return [list(map(arr.__getitem__, indexes)) for arr in arrays]


def join_indexes(
    left: Relation, right: Relation
) -> tuple[list[int], Sequence[int]]:
    """The matching ``(left, right)`` row-index pairs of the natural join
    of two relations in one code space, as two aligned sequences — the
    join without its gather.

    A hash join on all shared columns' codes that builds on the smaller
    side and probes with the larger; with no shared columns every pair
    matches (a cartesian product, which the evaluator's join ordering
    tries to avoid but must support — the paper's queries can have
    disconnected subgoal sets after deletion).  Against a one-row left
    side (the unit relation) the right indexes are the identity
    ``range``.
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
    for i, key in enumerate(key_reader(build, keys)):
        bucket = table.get(key)
        if bucket is None:
            table[key] = [i]
        else:
            bucket.append(i)

    build_idx: list[int] = []
    probe_idx: list[int] = []
    for i, key in enumerate(key_reader(probe, keys)):
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
    dictionary, (left, right) = shared_dictionary(left, right)
    left_cols = set(left.columns)
    right_only = [c for c in right.columns if c not in left_cols]
    left_idx, right_idx = join_indexes(left, right)
    right_codes = right.code_columns()
    codes = _gather(left.code_columns(), left_idx) + _gather(
        [right_codes[right.column_position(c)] for c in right_only], right_idx
    )
    return Relation.from_encoded(
        name, left.columns + tuple(right_only), codes, dictionary,
        count=len(left_idx),
    )


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
    _, (left, right) = shared_dictionary(left, right)
    keys = shared_columns(left, right)
    if not keys:
        # No shared columns: left survives iff right is (non)empty.
        if bool(len(right)) == keep_matches:
            return left.with_name(name)
        return left.take([], name=name)
    right_keys = set(key_reader(right, keys))
    keep = [
        i
        for i, key in enumerate(key_reader(left, keys))
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
    for rel in relations:
        if rel.columns != first.columns:
            raise SchemaError(
                f"union_all schema mismatch: {first.columns} vs {rel.columns}"
            )
    dictionary, encoded = shared_dictionary(*relations)
    rows: set[tuple[int, ...]] = set()
    for rel in encoded:
        rows.update(rel.code_rows())
    return Relation.from_code_rows(name, first.columns, rows, dictionary)
