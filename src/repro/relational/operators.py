"""Relational-algebra operators used by the query engine.

Joins are columnar hash joins: build a hash table on the smaller input
keyed by the shared columns, probe with the larger, and keep the
matching ``(left, right)`` row-index pairs (:class:`JoinPairs`).
Filters narrow the pairs with keep-masks; only a gather
(:meth:`JoinPairs.relation`, which is :func:`natural_join`) moves
column data, batch-at-a-time.  Negated subgoals become anti-joins
(Section 2.3's ``NOT`` is evaluated against fully bound terms, which
safety guarantees); every membership test — semi-join, anti-join,
runtime scan filter — is one kernel, :func:`member_mask`.  Everything
is set-semantics.

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

from itertools import chain, compress, repeat
from operator import not_
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import SchemaError
from .dictionary import ValueDictionary
from .relation import Relation


#: Reads one column of a row set by name: ``column(name)`` its codes,
#: ``column(name, True)`` its values (e.g. :meth:`JoinPairs.column`).
ColumnReader = Callable[..., Iterable]


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


class JoinPairs:
    """The natural join of two relations in one code space, held as its
    surviving ``(left, right)`` row-index pairs (:func:`join_indexes`).

    Attached filters narrow the pairs with keep-masks (:meth:`keep`)
    over output columns read through them (:meth:`column`); only
    :meth:`relation` gathers, and a counting caller never does.
    """

    def __init__(
        self, left: Relation, right: Relation, dictionary: ValueDictionary
    ) -> None:
        self.left, self.right, self.dictionary = left, right, dictionary
        self.left_idx, self.right_idx = join_indexes(left, right)
        left_cols = set(left.columns)
        self.columns = left.columns + tuple(
            c for c in right.columns if c not in left_cols
        )

    def __len__(self) -> int:
        return len(self.left_idx)

    def column(self, name: str, decode: bool = False) -> Iterator:
        """One output column, read through the surviving pairs: its
        codes, or its values with ``decode``."""
        rel, idx = (
            (self.left, self.left_idx) if name in self.left.columns
            else (self.right, self.right_idx)
        )
        codes = rel.code_columns()[rel.column_position(name)]
        data = self.dictionary.decode_column(codes) if decode else codes
        if isinstance(idx, range):
            return iter(data)
        return map(data.__getitem__, idx)

    def keep(self, mask: Iterable[bool]) -> None:
        """Drop the pairs whose ``mask`` entry is false."""
        # Read twice below; a list mask (a comparison's) is not copied.
        selected = mask if isinstance(mask, list) else list(mask)
        self.left_idx = list(compress(self.left_idx, selected))
        self.right_idx = list(compress(self.right_idx, selected))

    def relation(self, name: str = "join") -> Relation:
        """The surviving pairs gathered into a relation.  Against the
        unit relation with nothing dropped, that is the right side in
        place (renamed, its arrays shared)."""
        if not self.left.columns and isinstance(self.right_idx, range):
            return self.right.with_name(name)
        return Relation.from_encoded(
            name, self.columns, [list(self.column(c)) for c in self.columns],
            self.dictionary, count=len(self),
        )


def member_mask(
    rel: Relation, keys: Sequence[str], probe_columns: Sequence[Iterable]
) -> Iterator[bool]:
    """Whether each probe row's ``keys`` codes are a key of ``rel`` —
    the one membership test (codes are equality-faithful, so code
    membership is value membership).

    ``probe_columns[i]`` reads column ``keys[i]`` of every probe row.
    With no keys every probe row matches iff ``rel`` is non-empty; that
    mask is endless, so bound it by the probe rows.
    """
    if not keys:
        return repeat(bool(len(rel)))
    members = set(key_reader(rel, keys))
    probe = probe_columns[0] if len(keys) == 1 else zip(*probe_columns)
    return map(members.__contains__, probe)


def natural_join(left: Relation, right: Relation, name: str = "join") -> Relation:
    """Natural (hash) join on all shared columns (see :func:`join_indexes`;
    no shared columns is a cartesian product)."""
    dictionary, (left, right) = shared_dictionary(left, right)
    return JoinPairs(left, right, dictionary).relation(name)


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
    codes = left.code_columns()
    mask = member_mask(
        right, keys, [codes[left.column_position(c)] for c in keys]
    )
    if not keep_matches:
        mask = map(not_, mask)
    return left.take(list(compress(range(len(left)), mask)), name=name)


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
