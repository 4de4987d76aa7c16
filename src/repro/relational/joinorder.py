"""Join ordering by UES bounds.

The paper defers join ordering to "the general theory of cost-based
optimization ([G*79])" and notes its filtering idea "is independent of
how the join order is actually chosen" (Section 4.4).  Every lowered
plan takes :func:`ues_join_order`: it orders stages by *guaranteed*
upper bounds on each join's output (UES-style, after Hertzschuch et
al.), built from exact per-column distinct counts and maximum per-value
frequencies instead of independence estimates — on skew-correlated
data, where averages lie but maxima cannot, the bound-minimal order
avoids the blown-up intermediates an estimate-minimal order walks
into.  The physical planner (:mod:`repro.engine.planner`) lowers the
order into the plan IR, so what ``explain`` prints is what the engines
run.

The bound algebra (:class:`AtomBounds`, :func:`chain_upper_bounds`) is
shared with the planner, which annotates every lowered stage with its
guaranteed output bound: for a running prefix ``L`` and a new scan
``R`` joined on columns ``C``, each column ``c`` certifies

    |L ⋈ R|  ≤  min( min(d_L(c), d_R(c)) · mf_L(c) · mf_R(c),
                     |L| · mf_R(c),  |R| · mf_L(c) )

where ``d`` is a distinct-count upper bound and ``mf`` a max-frequency
upper bound, both propagated pessimistically through the prefix.  A
scan restricted by a runtime filter of ``k`` survivor keys on column
``c`` additionally certifies ``|R| ≤ k · mf_R(c)`` and ``d_R(c) ≤ k`` —
that is how survivor sets served from the session cache tighten the
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..datalog.atoms import RelationalAtom, is_bindable
from .binding import term_column
from .catalog import Database

#: Per-atom scan caps for the bound algebra: atom index → rendered
#: binding column → number of distinct survivor keys a runtime filter
#: restricts that column's scan to.
ScanCaps = Mapping[int, Mapping[str, int]]


@dataclass(frozen=True)
class AtomBounds:
    """Guaranteed statistics for a scan or a join prefix, over rendered
    binding columns: an output-cardinality upper bound plus per-column
    distinct-count and max-frequency upper bounds.  Every field is a
    certified *bound* (never an estimate), so any order ranked by these
    numbers is ranked by worst cases."""

    card: float
    distinct: dict[str, float]
    freq: dict[str, float]

    def columns(self) -> frozenset[str]:
        return frozenset(self.distinct)


def atom_bounds(
    db: Database,
    atom: RelationalAtom,
    caps: Mapping[str, int] | None = None,
) -> AtomBounds:
    """Exact base statistics for one positive subgoal's scan, as bounds.

    ``caps`` maps rendered binding columns to runtime-filter key counts:
    a scan restricted to ``k`` distinct keys on column ``c`` keeps at
    most ``k * max_frequency(c)`` rows and at most ``k`` distinct values
    of ``c``.
    """
    stats = db.stats(atom.predicate)
    base_columns = db.get(atom.predicate).columns
    distinct: dict[str, float] = {}
    freq: dict[str, float] = {}
    card = float(stats.cardinality)
    for position, term in enumerate(atom.terms):
        if not is_bindable(term):
            continue
        column = term_column(term)
        if column in distinct:
            continue
        if position < len(base_columns):
            base = base_columns[position]
            distinct[column] = float(stats.distinct_count(base))
            freq[column] = float(stats.max_frequency(base))
        else:
            distinct[column] = card
            freq[column] = card
    if caps:
        for column, keys in caps.items():
            if column in distinct:
                distinct[column] = min(distinct[column], float(keys))
                card = min(card, float(keys) * freq[column])
    for column in distinct:
        distinct[column] = min(distinct[column], card)
        freq[column] = min(freq[column], card)
    return AtomBounds(card, distinct, freq)


def join_bounds(left: AtomBounds, right: AtomBounds) -> AtomBounds:
    """The bound algebra's join: certified output bounds for
    ``left ⋈ right`` (natural join on the shared columns; cartesian
    product when none are shared)."""
    shared = left.columns() & right.columns()
    card = left.card * right.card
    if shared:
        for column in shared:
            card = min(
                card,
                min(left.distinct[column], right.distinct[column])
                * left.freq[column]
                * right.freq[column],
                left.card * right.freq[column],
                right.card * left.freq[column],
            )
        # At most this many right (resp. left) rows can match any one
        # row of the other side — the per-row fan-out certificate.
        fan_from_right = min(right.freq[c] for c in shared)
        fan_from_left = min(left.freq[c] for c in shared)
    else:
        fan_from_right = right.card
        fan_from_left = left.card
    distinct: dict[str, float] = {}
    freq: dict[str, float] = {}
    for column in left.columns() | right.columns():
        if column in shared:
            d = min(left.distinct[column], right.distinct[column])
            f = left.freq[column] * right.freq[column]
        elif column in left.distinct:
            d = left.distinct[column]
            f = left.freq[column] * fan_from_right
        else:
            d = right.distinct[column]
            f = right.freq[column] * fan_from_left
        distinct[column] = min(d, card)
        freq[column] = min(f, card)
    return AtomBounds(card, distinct, freq)


def ues_join_order(
    db: Database,
    atoms: Sequence[RelationalAtom],
    scan_caps: ScanCaps | None = None,
) -> list[int]:
    """A left-deep join order minimizing guaranteed upper bounds.

    Greedy over the bound algebra: the first join is the connected
    *pair* of subgoals with the smallest certified output bound (not a
    fixed smallest-relation start — a tiny relation whose only join
    partner fans out explosively is a terrible opening move, and the
    pair bound knows it), then the order repeatedly appends the
    connected subgoal whose join yields the smallest certified bound
    (cartesian products only when forced).  Unlike an estimate-driven
    order, a skew-correlated join — cheap on average, explosive on its
    hot keys — carries its worst case in the bound and is deferred until
    selective subgoals have shrunk the prefix.
    """
    n = len(atoms)
    if n == 0:
        return []
    if n == 1:
        return [0]
    caps = scan_caps or {}
    profiles = [
        atom_bounds(db, atom, caps.get(index))
        for index, atom in enumerate(atoms)
    ]
    remaining = set(range(n))
    best_pair: tuple[int, int] | None = None
    best_key: tuple[float, float, int, int] | None = None
    for i in range(n):
        for j in range(i + 1, n):
            if not (profiles[i].columns() & profiles[j].columns()):
                continue
            key = (
                join_bounds(profiles[i], profiles[j]).card,
                min(profiles[i].card, profiles[j].card),
                i,
                j,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (i, j)
    if best_pair is None:
        # Every pair is a cartesian product; open with the smallest.
        start = min(remaining, key=lambda i: (profiles[i].card, i))
        order = [start]
        remaining.remove(start)
        state = profiles[start]
    else:
        i, j = best_pair
        first, second = (
            (i, j) if (profiles[i].card, i) <= (profiles[j].card, j)
            else (j, i)
        )
        order = [first, second]
        remaining -= {first, second}
        state = join_bounds(profiles[first], profiles[second])

    while remaining:
        connected = [
            i for i in remaining if profiles[i].columns() & state.columns()
        ]
        pool = connected or sorted(remaining)
        pick = min(
            pool,
            key=lambda i: (join_bounds(state, profiles[i]).card,
                           profiles[i].card, i),
        )
        state = join_bounds(state, profiles[pick])
        order.append(pick)
        remaining.remove(pick)
    return order


def chain_upper_bounds(
    db: Database,
    atoms: Sequence[RelationalAtom],
    order: Sequence[int],
    scan_caps: ScanCaps | None = None,
) -> list[float]:
    """The certified output bound after each stage of a left-deep order.

    ``result[k]`` bounds the intermediate after joining
    ``atoms[order[0]] ⋈ ... ⋈ atoms[order[k]]`` — what the planner
    records on each lowered stage so ``explain`` can print estimate and
    bound side by side.
    """
    caps = scan_caps or {}
    bounds: list[float] = []
    state: AtomBounds | None = None
    for index in order:
        profile = atom_bounds(db, atoms[index], caps.get(index))
        state = profile if state is None else join_bounds(state, profile)
        bounds.append(state.card)
    return bounds
