"""Relation statistics for cost-based plan decisions.

Section 4 decides whether a FILTER step pays off from two kinds of
numbers: relation cardinalities and "the number of tuples per assignment
of values to the parameters" (Section 4.4).  :class:`RelationStats`
caches the per-relation numbers, and :func:`tuples_per_assignment`
computes the Section 4.4 ratio for an intermediate relation and a
parameter column set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .relation import CODE_BYTES, Relation


@dataclass(frozen=True)
class RelationStats:
    """Cardinality, per-column distinct counts, and the encoded row
    width (bytes per row in the dictionary-encoded flat layout) for one
    relation.  The width feeds byte-based cost decisions — e.g. whether
    a partitioned step is big enough to amortize process workers.

    ``max_freq`` records, per column, the largest number of tuples that
    share one value — the *guaranteed* (not average) join fan-out that
    the pessimistic (UES) join ordering bounds with.  It is exact when
    the stats were computed from a relation (:meth:`of`); hand-built
    stats without it fall back to the cardinality, which is always a
    sound upper bound.
    """

    name: str
    cardinality: int
    distinct: dict[str, int]
    row_bytes: int = 0
    max_freq: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, relation: Relation) -> "RelationStats":
        # One Counter pass per column yields both the distinct count
        # (its length) and the maximum per-value frequency.  Codes and
        # values are bijective, so counting codes is equivalent and
        # skips decoding.
        arrays = (
            relation.code_columns()
            if relation.is_encoded
            else relation.columns_data()
        )
        distinct: dict[str, int] = {}
        max_freq: dict[str, int] = {}
        for position, column in enumerate(relation.columns):
            counts = Counter(arrays[position])
            distinct[column] = len(counts)
            max_freq[column] = max(counts.values(), default=0)
        return cls(
            relation.name,
            len(relation),
            distinct,
            row_bytes=CODE_BYTES * relation.arity,
            max_freq=max_freq,
        )

    def distinct_count(self, column: str) -> int:
        return self.distinct.get(column, 0)

    def max_frequency(self, column: str) -> int:
        """The largest number of tuples sharing one value of ``column``.
        Sound fallback for stats built without frequency data: every
        value occurs at most ``cardinality`` times."""
        recorded = self.max_freq.get(column)
        if recorded is None:
            return self.cardinality
        return recorded

    def encoded_bytes(self) -> int:
        """Flat-buffer size of the whole relation when encoded."""
        return self.cardinality * self.row_bytes

    def tuples_per_value(self, column: str) -> float:
        """Average number of tuples sharing one value of ``column`` —
        e.g. average patients per symptom in ``exhibits``.  Zero for an
        empty relation."""
        d = self.distinct_count(column)
        if d == 0:
            return 0.0
        return self.cardinality / d


def tuples_per_assignment(
    relation: Relation, parameter_columns: Sequence[str]
) -> float:
    """The Section 4.4 ratio: average tuples per distinct assignment of
    the parameter columns.

    "we should ask whether the number of tuples per value-assignment for
    the parameters is low or high compared with the support threshold."
    Low (below the threshold) means many assignments are prunable and a
    FILTER step is likely worthwhile.
    """
    if not parameter_columns:
        return float(len(relation))
    assignments = len(relation.project(parameter_columns))
    if assignments == 0:
        return 0.0
    return len(relation) / assignments
