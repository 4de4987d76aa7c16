"""In-memory relations with set semantics and columnar storage.

The paper's language assumes "conventional set semantics rather than bag
semantics ... Some of our claims would not hold for bag semantics", so a
:class:`Relation` never contains duplicate rows — which is what makes the
subquery upper-bound property (Section 3.1) sound.

A relation is a named, column-labelled set of equal-width tuples.
Columns are strings; by convention the evaluator labels columns with the
rendered form of the Datalog term they bind (``"P"``, ``"$s"``), which
makes intermediate results self-describing.

Internally a relation keeps up to two representations of the same rows:

* encoded columns (one row-aligned list of integer codes per column,
  interned against a shared :class:`~.dictionary.ValueDictionary`) —
  the data plane: every operator and engine kernel runs on these small
  ints, and the flat codes pack into ``array('q')`` buffers for
  zero-copy shipping through shared memory;
* a row set (``frozenset`` of tuples) — the API edge: membership
  tests, set algebra on results, hashing, SQLite loading and the
  pickling wire form.  A relation built from rows keeps them; one born
  encoded decodes its rows once, the first time a caller asks.

Values are only ever read at the edge: :meth:`Relation.columns_data`
is an uncached decoded view.  Both forms describe a duplicate-free set
of rows; the ``distinct`` construction paths
(:meth:`Relation.from_encoded`, :meth:`Relation.from_distinct_rows`)
let operators that provably preserve distinctness — e.g. the natural
join of two duplicate-free inputs — skip re-deduplication entirely.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from ..errors import SchemaError
from .dictionary import ValueDictionary

#: Width of one encoded cell in bytes (``array('q')`` signed 64-bit).
CODE_BYTES = 8


class Relation:
    """A named set of tuples over labelled columns.

    Neither representation is copied defensively on read access, but a
    relation is never mutated after construction; all operations return
    new relations.
    """

    __slots__ = (
        "name",
        "columns",
        "_column_index",
        "_rows",
        "_count",
        "_codes",
        "_dict",
    )

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        tuples: Iterable[tuple] = (),
    ) -> None:
        self.name = name
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column names in {name}: {self.columns}")
        width = len(self.columns)
        normalized: set[tuple] = set()
        for row in tuples:
            row_t = tuple(row)
            if len(row_t) != width:
                raise SchemaError(
                    f"tuple {row_t!r} has width {len(row_t)}, relation "
                    f"{name!r} expects {width}"
                )
            normalized.add(row_t)
        self._rows: frozenset[tuple] | None = frozenset(normalized)
        self._codes: tuple[list[int], ...] | None = None
        self._dict: ValueDictionary | None = None
        self._count = len(normalized)
        self._column_index = {c: i for i, c in enumerate(self.columns)}

    # ------------------------------------------------------------------
    # Trusted constructors (no re-validation, no re-deduplication)
    # ------------------------------------------------------------------

    @classmethod
    def from_encoded(
        cls,
        name: str,
        columns: Sequence[str],
        codes: Sequence[Sequence[int]],
        dictionary: ValueDictionary,
        count: int | None = None,
    ) -> "Relation":
        """Build a relation directly from dictionary-encoded code columns.

        The caller asserts the rows are already **distinct** and every
        code is valid in ``dictionary``.  ``codes`` columns may be lists,
        ``array('q')`` instances, or ``memoryview``s over shared memory;
        they are normalized to plain lists (the fastest layout for the
        pure-Python kernels) exactly once.  ``count`` is required only
        for zero-column relations.
        """
        rel = cls.__new__(cls)
        rel.name = name
        rel.columns = tuple(columns)
        if len(set(rel.columns)) != len(rel.columns):
            raise SchemaError(f"duplicate column names in {name}: {rel.columns}")
        if len(codes) != len(rel.columns):
            raise SchemaError(
                f"relation {name!r} got {len(codes)} code columns for "
                f"{len(rel.columns)} columns"
            )
        normalized = tuple(
            col if type(col) is list else list(col) for col in codes
        )
        if normalized:
            rel._count = len(normalized[0])
            for col in normalized:
                if len(col) != rel._count:
                    raise SchemaError(
                        f"relation {name!r} has ragged code columns"
                    )
        else:
            rel._count = int(count or 0)
        rel._codes = normalized
        rel._dict = dictionary
        rel._rows = None
        rel._column_index = {c: i for i, c in enumerate(rel.columns)}
        return rel

    @classmethod
    def from_code_rows(
        cls,
        name: str,
        columns: Sequence[str],
        rows: Collection[tuple[int, ...]],
        dictionary: ValueDictionary,
    ) -> "Relation":
        """Build an encoded relation from distinct code tuples (see
        :meth:`from_encoded`)."""
        codes = [list(col) for col in zip(*rows)] or [[] for _ in columns]
        return cls.from_encoded(name, columns, codes, dictionary, count=len(rows))

    @classmethod
    def from_distinct_rows(
        cls,
        name: str,
        columns: Sequence[str],
        rows: frozenset[tuple] | set[tuple],
    ) -> "Relation":
        """Build a relation from an already-deduplicated row set.

        The caller asserts every row has the right width; no per-row
        validation is performed.
        """
        rel = cls.__new__(cls)
        rel.name = name
        rel.columns = tuple(columns)
        if len(set(rel.columns)) != len(rel.columns):
            raise SchemaError(f"duplicate column names in {name}: {rel.columns}")
        rel._rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        rel._codes = None
        rel._dict = None
        rel._count = len(rel._rows)
        rel._column_index = {c: i for i, c in enumerate(rel.columns)}
        return rel

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------

    @property
    def tuples(self) -> frozenset[tuple]:
        """The rows as a frozenset — the rows the relation was built
        from, or its codes decoded once and cached."""
        if self._rows is None:
            self._rows = frozenset(self._decoded_rows())
        return self._rows

    def columns_data(self) -> tuple[list, ...]:
        """Row-aligned per-column value arrays: an uncached view of the
        codes decoded in code-row order (or of the rows transposed)."""
        if self._codes is not None and self._dict is not None:
            decode = self._dict.decode_column
            return tuple(decode(col) for col in self._codes)
        # One C-level pass per column: ``zip(*rows)`` would allocate an
        # iterator per row, and the garbage collector runs it over a
        # warm heap.
        rows = self._rows or ()
        return tuple(
            list(map(itemgetter(p), rows)) for p in range(len(self.columns))
        )

    def _decoded_rows(self) -> Iterator[tuple]:
        """The rows as value tuples, in code-row order."""
        data = self.columns_data()
        return zip(*data) if data else iter([()] * self._count)

    # ------------------------------------------------------------------
    # Encoded representation
    # ------------------------------------------------------------------

    @property
    def is_encoded(self) -> bool:
        """Whether the encoded-column representation is materialized."""
        return self._codes is not None

    @property
    def dictionary(self) -> ValueDictionary | None:
        """The value dictionary the code columns are interned against."""
        return self._dict

    def code_columns(self) -> tuple[list[int], ...]:
        """The encoded code columns (shared, do not mutate).

        A columnless relation has no codes to disagree on: it reads as
        encoded in any code space.  Otherwise raises
        :class:`SchemaError` if the relation is not encoded; use
        :meth:`encode_with` to encode against a dictionary first.
        """
        if self._codes is None:
            if not self.columns:
                return ()
            raise SchemaError(
                f"relation {self.name!r} has no encoded representation"
            )
        return self._codes

    def code_rows(self) -> Iterator[tuple[int, ...]]:
        """The rows as code tuples (see :meth:`code_columns`)."""
        codes = self.code_columns()
        return zip(*codes) if codes else iter([()] * self._count)

    def encode_with(self, dictionary: ValueDictionary) -> tuple[list[int], ...]:
        """Encode (and cache) the rows as code columns over ``dictionary``.

        Idempotent when already encoded against the same dictionary.
        Encoding against a *different* dictionary decodes first and does
        not replace the cached representation.
        """
        if self._codes is not None and self._dict is dictionary:
            return self._codes
        codes = tuple(
            dictionary.encode_column(col) for col in self.columns_data()
        )
        if self._codes is None:
            self._codes = codes
            self._dict = dictionary
        return codes

    def encoded_nbytes(self) -> int:
        """Size of the encoded columns as flat int64 buffers."""
        return CODE_BYTES * self._count * len(self.columns)

    def encoded_buffers(self) -> tuple[memoryview, ...]:
        """The code columns as read-only ``memoryview``s over ``array('q')``.

        This is the zero-copy transport form: each buffer can be written
        into a shared-memory segment (or sent over a pipe) byte-for-byte
        and reattached with ``memoryview.cast('q')`` on the other side.
        """
        return tuple(
            memoryview(array("q", col)).toreadonly()
            for col in self.code_columns()
        )

    def take(self, indexes: Sequence[int], name: str | None = None) -> "Relation":
        """The rows at code-row positions ``indexes``, gathered in code
        space (caller asserts they stay distinct).  A columnless
        relation fits any code space."""
        return Relation.from_encoded(
            name or self.name,
            self.columns,
            [list(map(col.__getitem__, indexes)) for col in self.code_columns()],
            self._dict or ValueDictionary(),
            count=len(indexes),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple]:
        if self._rows is not None:
            return iter(self._rows)
        return self._decoded_rows()

    def __contains__(self, row: tuple) -> bool:
        return tuple(row) in self.tuples

    def __eq__(self, other: object) -> bool:
        """Equality is by schema and contents; the name is a label only."""
        if not isinstance(other, Relation):
            return NotImplemented
        return self.columns == other.columns and self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash((self.columns, self.tuples))

    def column_position(self, column: str) -> int:
        """The 0-based index of ``column``; SchemaError if unknown."""
        try:
            return self._column_index[column]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no column {column!r}; "
                f"columns are {self.columns}"
            ) from None

    def column_values(self, column: str) -> set:
        """The set of distinct values in one column."""
        return set(self.columns_data()[self.column_position(column)])

    def distinct_count(self, column: str) -> int:
        """Number of distinct values in one column."""
        return len(self.column_values(column))

    # ------------------------------------------------------------------
    # Core operations (set semantics; all return new relations)
    # ------------------------------------------------------------------

    def project(self, columns: Sequence[str], name: str | None = None) -> "Relation":
        """Projection with duplicate elimination.

        A projection that is a pure permutation of all columns cannot
        create duplicates and skips the dedup pass.  An encoded relation
        deduplicates in code space (codes are equality-faithful) and
        stays encoded — nothing is decoded.
        """
        positions = [self.column_position(c) for c in columns]
        permutation = len(set(positions)) == len(self.columns)
        if self._codes is not None and self._dict is not None:
            codes = [self._codes[p] for p in positions]
            count = self._count
            if not permutation:
                if len(codes) == 1:
                    codes = [list(set(codes[0]))]
                elif codes:
                    codes = [
                        list(col) for col in zip(*set(zip(*codes)))
                    ] or [[] for _ in codes]
                else:
                    count = min(count, 1)
            return Relation.from_encoded(
                name or self.name, tuple(columns), codes, self._dict,
                count=count,
            )
        rows = {tuple(row[p] for p in positions) for row in self.tuples}
        return Relation.from_distinct_rows(name or self.name, tuple(columns), rows)

    def select(
        self, predicate: Callable[[dict], bool], name: str | None = None
    ) -> "Relation":
        """Selection by an arbitrary row predicate.

        The predicate receives each row as a ``{column: value}`` dict.
        """
        cols = self.columns
        rows = frozenset(
            row
            for row in self.tuples
            if predicate(dict(zip(cols, row)))
        )
        return Relation.from_distinct_rows(name or self.name, cols, rows)

    def select_eq(self, column: str, value: object, name: str | None = None) -> "Relation":
        """Fast-path selection ``column = value``.

        On an encoded relation the comparison runs over integer codes:
        a constant that was never interned matches nothing.
        """
        pos = self.column_position(column)
        if self._codes is not None and self._dict is not None:
            code = self._dict.code_of(value)
            if code is None:
                keep: list[int] = []
            else:
                keep = [
                    i for i, c in enumerate(self._codes[pos]) if c == code
                ]
            return self.take(keep, name=name)
        return Relation.from_distinct_rows(
            name or self.name,
            self.columns,
            frozenset(row for row in self.tuples if row[pos] == value),
        )

    def rename(self, mapping: dict[str, str], name: str | None = None) -> "Relation":
        """Rename columns; unmentioned columns keep their names."""
        new_cols = tuple(mapping.get(c, c) for c in self.columns)
        return self._relabelled(new_cols, name or self.name)

    def with_name(self, name: str) -> "Relation":
        """A copy of this relation under a different name."""
        return self._relabelled(self.columns, name)

    def _relabelled(self, new_cols: tuple[str, ...], name: str) -> "Relation":
        """Share both representations under new labels (rows unchanged)."""
        if len(set(new_cols)) != len(new_cols):
            raise SchemaError(f"duplicate column names in {name}: {new_cols}")
        rel = Relation.__new__(Relation)
        rel.name = name
        rel.columns = new_cols
        rel._rows = self._rows
        rel._codes = self._codes
        rel._dict = self._dict
        rel._count = self._count
        rel._column_index = {c: i for i, c in enumerate(new_cols)}
        return rel

    def union(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set union with a same-schema relation."""
        self._require_same_schema(other, "union")
        return Relation.from_distinct_rows(
            name or self.name, self.columns, self.tuples | other.tuples
        )

    def difference(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set difference with a same-schema relation."""
        self._require_same_schema(other, "difference")
        return Relation.from_distinct_rows(
            name or self.name, self.columns, self.tuples - other.tuples
        )

    def intersection(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set intersection with a same-schema relation."""
        self._require_same_schema(other, "intersection")
        return Relation.from_distinct_rows(
            name or self.name, self.columns, self.tuples & other.tuples
        )

    def _require_same_schema(self, other: "Relation", op: str) -> None:
        if self.columns != other.columns:
            raise SchemaError(
                f"{op} requires identical columns: "
                f"{self.columns} vs {other.columns}"
            )

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __reduce__(self) -> tuple:
        """Pickle as the decoded row set.

        ``__slots__`` + trusted constructor paths do not round-trip
        through the default reduce protocol, and pickling an encoded
        relation naively would drag the entire shared
        :class:`ValueDictionary` into every payload.  The wire form is
        (name, columns, rows) — self-contained, and rebuilt through the
        distinct-preserving fast path on the other side, where a catalog
        encodes it into its own code space on first read.
        """
        return (
            Relation.from_distinct_rows, (self.name, self.columns, self.tuples)
        )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, columns={self.columns}, "
            f"rows={len(self)})"
        )

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width text rendering, for examples and debugging."""
        header = " | ".join(self.columns) if self.columns else "(no columns)"
        lines = [f"{self.name} ({len(self)} rows)", header, "-" * len(header)]
        for i, row in enumerate(sorted(self.tuples, key=repr)):
            if i >= limit:
                lines.append(f"... and {len(self) - limit} more")
                break
            lines.append(" | ".join(str(v) for v in row))
        return "\n".join(lines)


def relation_from_rows(
    name: str, columns: Sequence[str], rows: Iterable[Sequence]
) -> Relation:
    """Build a relation from any iterable of row sequences."""
    return Relation(name, columns, (tuple(r) for r in rows))
