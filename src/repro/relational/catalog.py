"""The database catalog: named base relations plus cached statistics.

A :class:`Database` is the substrate every flock/plan evaluation runs
against.  Base relations are immutable once added (replacing a relation
invalidates its cached statistics).  Plans materialize their ``ok``
relations into a *scratch* overlay so the base data is never polluted.

Every mutation bumps a **per-relation version counter** (and a global
one), so consumers holding derived artifacts — cached statistics,
``explain`` output, and most importantly the
:mod:`repro.session` result cache — can detect staleness *exactly*:
an artifact derived from relations ``R1..Rk`` is current iff each
``version(Ri)`` still equals the value recorded when the artifact was
built.  Versions only ever grow; removing a relation bumps its counter
too, so a later re-add under the same name is distinguishable from the
original.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import SchemaError
from .dictionary import ValueDictionary
from .relation import Relation
from .statistics import RelationStats


class Database:
    """A mapping of relation names to relations, with statistics.

    Every database owns one :class:`ValueDictionary` shared by all of
    its relations, so encoded code columns are join-comparable across
    the whole catalog (and across scratch overlays, which share the
    parent's dictionary).
    """

    def __init__(
        self,
        relations: Iterable[Relation] = (),
        dictionary: ValueDictionary | None = None,
    ) -> None:
        self._relations: dict[str, Relation] = {}
        self._stats: dict[str, RelationStats] = {}
        self._versions: dict[str, int] = {}
        self._mutations = 0
        self.dictionary = dictionary if dictionary is not None else ValueDictionary()
        for rel in relations:
            self.add(rel)

    # ------------------------------------------------------------------
    # Catalog maintenance
    # ------------------------------------------------------------------

    def add(self, relation: Relation) -> None:
        """Add or replace a relation under its own name."""
        self._relations[relation.name] = relation
        self._stats.pop(relation.name, None)
        self._bump(relation.name)

    def add_rows(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence]
    ) -> Relation:
        """Convenience: build and register a relation in one call."""
        rel = Relation(name, columns, (tuple(r) for r in rows))
        self.add(rel)
        return rel

    def remove(self, name: str) -> None:
        """Drop a relation (no-op when absent)."""
        if name in self._relations:
            del self._relations[name]
            self._stats.pop(name, None)
            self._bump(name)

    def _bump(self, name: str) -> None:
        self._versions[name] = self._versions.get(name, 0) + 1
        self._mutations += 1

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------

    def version(self, name: str | None = None) -> int:
        """The version counter of one relation, or (``name=None``) the
        global mutation counter.

        A relation's version starts at 1 when first added and grows by
        one on every replacement or removal; 0 means "never seen".  The
        global counter grows on *any* catalog mutation, so ``version()``
        is a cheap "has anything changed?" probe.
        """
        if name is None:
            return self._mutations
        return self._versions.get(name, 0)

    def versions(self, names: Iterable[str] | None = None) -> dict[str, int]:
        """A snapshot of per-relation versions.

        ``names`` restricts the snapshot (useful for recording exactly
        the relations a query reads); by default every relation ever
        seen is included.
        """
        if names is None:
            return dict(self._versions)
        return {n: self.version(n) for n in names}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> Relation:
        """The relation registered under ``name``; SchemaError with the
        known names when absent."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"unknown relation {name!r}; known: {sorted(self._relations)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def names(self) -> list[str]:
        """All relation names, sorted."""
        return sorted(self._relations)

    def relations(self) -> list[Relation]:
        """All relations, in name order."""
        return [self._relations[n] for n in self.names()]

    def stats(self, name: str) -> RelationStats:
        """Statistics for one relation, computed lazily and cached."""
        if name not in self._stats:
            self._stats[name] = RelationStats.of(self.get(name))
        return self._stats[name]

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def scratch(self) -> "Database":
        """A shallow overlay sharing this database's relations.

        Plans materialize their intermediate ``ok`` relations into the
        scratch copy; the original catalog is untouched.
        """
        child = Database(dictionary=self.dictionary)
        child._relations = dict(self._relations)
        child._stats = dict(self._stats)
        child._versions = dict(self._versions)
        child._mutations = self._mutations
        return child

    def encoded(self, name: str) -> Relation:
        """The relation under ``name`` in this catalog's code space —
        encoded against its shared dictionary, the only code space the
        memory engine reads.

        Encoding is cached on the relation.  A relation object another
        catalog encoded first (one object added to two databases) is
        re-encoded once into a new relation that replaces it here only:
        the shared object is never mutated, and the rows are the same,
        so no version moves.
        """
        rel = self.get(name)
        codes = rel.encode_with(self.dictionary)
        if rel.dictionary is not self.dictionary:
            rel = Relation.from_encoded(
                rel.name, rel.columns, codes, self.dictionary, count=len(rel)
            )
            self._relations[name] = rel
        return rel

    def encoded_bytes(self) -> int:
        """Flat-buffer size of every relation's encoded columns (only
        counting relations that are actually encoded)."""
        return sum(
            r.encoded_nbytes()
            for r in self._relations.values()
            if r.is_encoded
        )

    def total_tuples(self) -> int:
        """Sum of cardinalities across every relation."""
        return sum(len(r) for r in self._relations.values())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{n}[{len(self._relations[n])}]" for n in self.names()
        )
        return f"Database({parts})"


def database_from_dict(
    data: Mapping[str, tuple[Sequence[str], Iterable[Sequence]]]
) -> Database:
    """Build a database from ``{name: (columns, rows)}`` — the most common
    test/example entry point."""
    db = Database()
    for name, (columns, rows) in data.items():
        db.add_rows(name, columns, rows)
    return db
