"""Interned value dictionaries for dictionary-encoded columns.

The engine's :class:`~repro.relational.relation.Relation` form —
typed, flat code columns — needs a mapping between arbitrary Python
values and small integer codes.  A :class:`ValueDictionary` provides it:
an append-only intern table where equal values (by Python ``==``/``hash``
semantics, exactly the semantics the row-set representation already uses
for deduplication) always receive the same code.

One dictionary is shared per :class:`~repro.relational.catalog.Database`,
so codes are *join-comparable across relations*: two code columns encoded
against the same dictionary can be hash-joined, compared, grouped, and
partitioned without ever touching the underlying values.  Codes fit in a
signed 64-bit slot (``array('q')``), which is what lets the parallel
engine ship whole relations through ``multiprocessing.shared_memory`` as
flat buffers.

Interning is append-only, which gives a cheap cross-process sync
protocol: a worker seeded with a snapshot of the first *n* values can be
extended with ``suffix(n)`` later, and every code below *n* means the
same value on both sides forever.
"""

from __future__ import annotations

import sys
import threading
import zlib
from typing import Iterable, Sequence


def stable_hash(value: object) -> int:
    """A process-independent hash of one value.

    Python's builtin ``hash`` is salted per process for strings, so it
    cannot be used to agree on a partition assignment across workers.
    CRC-32 of the canonical ``repr`` is stable, fast, and good enough
    for load balancing.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


class ValueDictionary:
    """An append-only value ⇄ code intern table shared by relations.

    Codes are dense non-negative integers assigned in first-seen order.
    Equality follows Python semantics: ``1``, ``1.0`` and ``True`` share
    one code, mirroring how they would collapse in a row set.  The
    instance is thread-safe; interning takes a lock, pure lookups do not.
    """

    __slots__ = ("values", "_index", "_lock", "_tables", "_value_bytes")

    def __init__(self, values: Iterable[object] = ()) -> None:
        self.values: list[object] = []
        self._index: dict[object, int] = {}
        self._lock = threading.RLock()
        #: parts -> per-code partition table (``table[code] = partition``)
        self._tables: dict[int, list[int]] = {}
        self._value_bytes = 0
        if values:
            self.extend(values)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: object) -> int:
        """The code for ``value``, assigning a fresh one if unseen."""
        code = self._index.get(value)
        if code is not None:
            return code
        with self._lock:
            code = self._index.get(value)
            if code is None:
                code = len(self.values)
                self.values.append(value)
                self._index[value] = code
                self._value_bytes += sys.getsizeof(value)
            return code

    def code_of(self, value: object) -> int | None:
        """The code for ``value`` if already interned, else None.

        Never interns — selection against a constant that was never
        loaded must see "no code" (an empty result), not invent one.
        """
        return self._index.get(value)

    def encode_column(self, column: Sequence[object]) -> list[int]:
        """Bulk-encode one value column into a row-aligned code list."""
        try:
            # C-speed fast path: every value already interned.
            return list(map(self._index.__getitem__, column))
        except KeyError:
            pass
        intern = self.intern
        return [intern(v) for v in column]

    def decode_column(self, codes: Iterable[int]) -> list[object]:
        """Bulk-decode a code column back into values."""
        return list(map(self.values.__getitem__, codes))

    # ------------------------------------------------------------------
    # Partition tables (per-code, cached)
    # ------------------------------------------------------------------

    def partition_table(self, parts: int) -> list[int]:
        """``table[code] = stable_hash(value) % parts`` for every code.

        Cached per ``parts`` and extended in place when the dictionary
        has grown since the last call, so hash-partitioning a relation
        costs one list lookup per row instead of a ``repr`` + CRC-32.
        """
        with self._lock:
            table = self._tables.get(parts)
            if table is None:
                table = []
                self._tables[parts] = table
            if len(table) < len(self.values):
                table.extend(
                    stable_hash(v) % parts
                    for v in self.values[len(table):]
                )
            return table

    # ------------------------------------------------------------------
    # Cross-process sync (append-only snapshots)
    # ------------------------------------------------------------------

    def snapshot_size(self) -> int:
        """How many values exist right now (a prefix marker)."""
        with self._lock:
            return len(self.values)

    def suffix(self, start: int) -> list[object]:
        """The values interned at code ``start`` and beyond."""
        with self._lock:
            return list(self.values[start:])

    def extend(self, values: Iterable[object]) -> None:
        """Intern ``values`` in order (idempotent for known values)."""
        intern = self.intern
        for value in values:
            intern(value)

    # ------------------------------------------------------------------
    # Accounting / pickling
    # ------------------------------------------------------------------

    def approx_bytes(self) -> int:
        """Approximate heap footprint of the interned values."""
        with self._lock:
            # values list + index dict slots (8 bytes per pointer, twice)
            return self._value_bytes + 16 * len(self.values)

    def __reduce__(self) -> tuple:
        with self._lock:
            return (ValueDictionary, (list(self.values),))

    def __repr__(self) -> str:
        return f"ValueDictionary({len(self.values)} values)"


__all__ = ["ValueDictionary", "stable_hash"]
