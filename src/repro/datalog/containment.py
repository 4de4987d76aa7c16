"""Conjunctive-query containment via containment mappings (Section 3.1).

The a-priori generalization rests on upper bounds: a cheaper query Q1
bounds Q2 whenever Q2 ⊆ Q1 holds *for all databases*.  For pure
conjunctive queries this containment is decidable by the
Chandra–Merlin containment-mapping theorem [CM77]: Q2 ⊆ Q1 iff there is
a homomorphism from Q1 to Q2 that

* maps each constant to itself,
* maps the head of Q1 onto the head of Q2, and
* maps every subgoal of Q1 onto some subgoal of Q2.

Flock **parameters** are free terms shared between a query and its
subqueries — an upper bound for a particular parameter assignment must
hold for that same assignment — so a containment mapping must map each
parameter to itself (they behave like distinguished variables).

For the extended language (negation, arithmetic) the paper notes that
full containment is harder ([Klu82], [ZO93], [LS93]) and that the
containing query can occasionally fail to be a subgoal subset; it then
*chooses* to restrict the plan space to subgoal subsets anyway.  We
follow suit: :func:`contains` decides containment exactly for pure CQs,
and for extended CQs implements the sound (but not complete)
subgoal-subset criterion via :func:`is_subquery_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .atoms import Comparison, RelationalAtom
from .query import ConjunctiveQuery
from .terms import Constant, Parameter, Term


def is_pure(query: ConjunctiveQuery) -> bool:
    """True when the query is a plain CQ: positive relational atoms only
    (the Chandra–Merlin test applies)."""
    return all(
        isinstance(sg, RelationalAtom) and not sg.negated for sg in query.body
    )


def has_negation(query: ConjunctiveQuery) -> bool:
    """True when the query negates a relational atom: neither the
    Chandra–Merlin nor Klug's test applies."""
    return any(
        isinstance(sg, RelationalAtom) and sg.negated for sg in query.body
    )


def _extend_mapping(
    mapping: dict[Term, Term], source: Term, target: Term
) -> Optional[dict[Term, Term]]:
    """Try to extend a homomorphism with ``source -> target``.

    Constants and parameters must map to themselves; variables map
    freely but consistently.  Returns the extended mapping, or ``None``
    on conflict.
    """
    if isinstance(source, Constant):
        return mapping if source == target else None
    if isinstance(source, Parameter):
        return mapping if source == target else None
    existing = mapping.get(source)
    if existing is not None:
        return mapping if existing == target else None
    extended = dict(mapping)
    extended[source] = target
    return extended


def find_containment_mapping(
    container: ConjunctiveQuery, contained: ConjunctiveQuery
) -> Optional[Mapping[Term, Term]]:
    """Search for a containment mapping from ``container`` to ``contained``.

    A non-``None`` result witnesses ``contained ⊆ container`` (for pure
    CQs).  Both queries must be pure; callers should use
    :func:`is_subquery_bound` for extended queries.
    """
    if not is_pure(container) or not is_pure(contained):
        raise ValueError(
            "containment mappings are defined for pure conjunctive queries; "
            "use is_subquery_bound for extended queries"
        )
    if len(container.head_terms) != len(contained.head_terms):
        return None

    # Seed the mapping with the head correspondence.
    mapping: Optional[dict[Term, Term]] = {}
    for src, dst in zip(container.head_terms, contained.head_terms):
        mapping = _extend_mapping(mapping, src, dst)
        if mapping is None:
            return None

    container_atoms = [sg for sg in container.body if isinstance(sg, RelationalAtom)]
    contained_atoms = [sg for sg in contained.body if isinstance(sg, RelationalAtom)]

    def search(index: int, current: dict[Term, Term]) -> Optional[dict[Term, Term]]:
        if index == len(container_atoms):
            return current
        atom = container_atoms[index]
        for candidate in contained_atoms:
            if candidate.predicate != atom.predicate:
                continue
            if candidate.arity != atom.arity:
                continue
            extended: Optional[dict[Term, Term]] = current
            for src, dst in zip(atom.terms, candidate.terms):
                extended = _extend_mapping(extended, src, dst)
                if extended is None:
                    break
            if extended is None:
                continue
            result = search(index + 1, extended)
            if result is not None:
                return result
        return None

    return search(0, mapping)


def contains(container: ConjunctiveQuery, contained: ConjunctiveQuery) -> bool:
    """Decide ``contained ⊆ container`` for pure conjunctive queries."""
    return find_containment_mapping(container, contained) is not None


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Decide query equivalence: mutual containment."""
    return contains(q1, q2) and contains(q2, q1)


def is_subquery_bound(
    container: ConjunctiveQuery, contained: ConjunctiveQuery
) -> bool:
    """Sound upper-bound test for the extended language.

    Returns ``True`` when ``container``'s body is a sub-multiset of
    ``contained``'s body with identical subgoals (same predicate, terms,
    polarity — or the identical comparison) and the heads agree.  This is
    exactly the paper's restriction: containing queries are formed by
    *deleting* subgoals, no variable splitting, no rewriting.  Deleting a
    positive subgoal can only grow the result; deleting a negated or
    arithmetic subgoal drops a filter and can also only grow the result —
    hence soundness under set semantics.
    """
    if container.head_name != contained.head_name:
        return False
    if container.head_terms != contained.head_terms:
        return False
    remaining = list(contained.body)
    for sg in container.body:
        try:
            remaining.remove(sg)
        except ValueError:
            return False
    return True


@dataclass(frozen=True)
class ExtendedWitness:
    """The [Klu82] containment argument, as a checkable object.

    ``mapping`` is the homomorphism over the relational subgoals (pairs,
    so the witness hashes); ``entailed`` are the container's arithmetic
    subgoals *after* applying the mapping — each is entailed by the
    contained query's comparison system, which
    :func:`verify_extended_witness` re-checks from scratch.  When the
    contained query's comparisons are inconsistent the containment is
    vacuous (``∅ ⊆ anything``) and ``contained_unsatisfiable`` is set
    with an empty mapping.
    """

    mapping: tuple[tuple[Term, Term], ...]
    entailed: tuple[Comparison, ...]
    contained_unsatisfiable: bool = False

    def as_mapping(self) -> dict[Term, Term]:
        return dict(self.mapping)


def _apply_to_comparison(
    mapping: Mapping[Term, Term], comp: Comparison
) -> Comparison:
    def sub(term: Term) -> Term:
        if isinstance(term, Constant):
            return term
        return mapping.get(term, term)  # type: ignore[arg-type]

    return Comparison(sub(comp.left), comp.op, sub(comp.right))


def _contained_system(
    container: ConjunctiveQuery, contained: ConjunctiveQuery
):
    """The contained query's comparison system, seeded with the
    constants the container's comparisons mention."""
    from .arithmetic import ComparisonSystem

    container_comparisons = [
        sg for sg in container.body if isinstance(sg, Comparison)
    ]
    known_constants = [
        term.value
        for comp in container_comparisons
        for term in (comp.left, comp.right)
        if isinstance(term, Constant)
    ]
    contained_comparisons = [
        sg for sg in contained.body if isinstance(sg, Comparison)
    ]
    return ComparisonSystem.from_comparisons(
        contained_comparisons, known_constants=known_constants
    )


def find_extended_witness(
    container: ConjunctiveQuery, contained: ConjunctiveQuery
) -> Optional[ExtendedWitness]:
    """Search for a Klug-style containment witness (arithmetic, no
    negation); ``None`` when the test cannot establish containment.

    A non-``None`` result witnesses ``contained ⊆ container`` and can be
    re-checked without search by :func:`verify_extended_witness`.
    """
    if has_negation(container) or has_negation(contained):
        raise ValueError(
            "contains_extended handles arithmetic but not negation; "
            "use is_subquery_bound for negated queries"
        )
    if len(container.head_terms) != len(contained.head_terms):
        return None

    container_atoms = [
        sg for sg in container.body if isinstance(sg, RelationalAtom)
    ]
    contained_atoms = [
        sg for sg in contained.body if isinstance(sg, RelationalAtom)
    ]
    container_comparisons = [
        sg for sg in container.body if isinstance(sg, Comparison)
    ]
    system = _contained_system(container, contained)
    if not system.is_consistent():
        # The contained query is unsatisfiable: contained ⊆ anything.
        return ExtendedWitness((), (), contained_unsatisfiable=True)

    seed: Optional[dict[Term, Term]] = {}
    for src, dst in zip(container.head_terms, contained.head_terms):
        seed = _extend_mapping(seed, src, dst)
        if seed is None:
            return None

    def search(
        index: int, current: dict[Term, Term]
    ) -> Optional[dict[Term, Term]]:
        if index == len(container_atoms):
            mapped = [
                _apply_to_comparison(current, c) for c in container_comparisons
            ]
            if all(system.entails_comparison(c) for c in mapped):
                return current
            return None
        atom = container_atoms[index]
        for candidate in contained_atoms:
            if (
                candidate.predicate != atom.predicate
                or candidate.arity != atom.arity
            ):
                continue
            extended: Optional[dict[Term, Term]] = current
            for src, dst in zip(atom.terms, candidate.terms):
                extended = _extend_mapping(extended, src, dst)
                if extended is None:
                    break
            if extended is None:
                continue
            result = search(index + 1, extended)
            if result is not None:
                return result
        return None

    found = search(0, seed)
    if found is None:
        return None
    entailed = tuple(
        _apply_to_comparison(found, c) for c in container_comparisons
    )
    return ExtendedWitness(tuple(sorted(found.items(), key=repr)), entailed)


def contains_extended(
    container: ConjunctiveQuery, contained: ConjunctiveQuery
) -> bool:
    """Sound containment test for CQs **with arithmetic** (no negation).

    Following [Klu82]'s homomorphism criterion: ``contained ⊆ container``
    if some containment mapping ``h`` over the relational subgoals also
    makes every arithmetic subgoal of ``container`` a logical consequence
    of ``contained``'s arithmetic subgoals (entailment over a dense
    order, via :mod:`repro.datalog.arithmetic`).

    This is sound always, and complete when ``contained``'s comparisons
    induce a total order on the terms involved (Klug's completeness
    condition); in the incomplete cases it may return ``False`` for a
    true containment — never the reverse.  Negated subgoals are not
    handled; callers should fall back to :func:`is_subquery_bound`.
    """
    return find_extended_witness(container, contained) is not None


def verify_containment_mapping(
    container: ConjunctiveQuery,
    contained: ConjunctiveQuery,
    mapping: Mapping[Term, Term],
) -> bool:
    """Re-check a Chandra–Merlin witness **without searching**.

    Verifies the three homomorphism conditions directly: constants and
    parameters are fixed, the mapped head of ``container`` is the head
    of ``contained``, and every relational subgoal of ``container`` maps
    onto some subgoal of ``contained`` (same polarity).  Linear in the
    witness — this is the point of carrying one.
    """
    for source, target in mapping.items():
        if isinstance(source, (Constant, Parameter)) and source != target:
            return False

    def image(term: Term) -> Term:
        if isinstance(term, Constant):
            return term
        return mapping.get(term, term)  # type: ignore[arg-type]

    if len(container.head_terms) != len(contained.head_terms):
        return False
    for src, dst in zip(container.head_terms, contained.head_terms):
        if image(src) != dst:
            return False

    contained_atoms = {
        (sg.predicate, sg.negated, sg.terms)
        for sg in contained.body
        if isinstance(sg, RelationalAtom)
    }
    for sg in container.body:
        if not isinstance(sg, RelationalAtom):
            continue
        mapped = tuple(image(t) for t in sg.terms)
        if (sg.predicate, sg.negated, mapped) not in contained_atoms:
            return False
    return True


def verify_extended_witness(
    container: ConjunctiveQuery,
    contained: ConjunctiveQuery,
    witness: ExtendedWitness,
) -> bool:
    """Re-check a Klug witness independently of how it was found.

    Rebuilds the contained query's comparison system from scratch, then
    (a) for a vacuous witness, confirms the system really is
    inconsistent; (b) otherwise confirms the mapping is a homomorphism
    over the relational subgoals and that every mapped container
    comparison is entailed.  No search happens here.
    """
    system = _contained_system(container, contained)
    if witness.contained_unsatisfiable:
        return not system.is_consistent()
    if not system.is_consistent():
        return False
    mapping = witness.as_mapping()
    if not verify_containment_mapping(container, contained, mapping):
        return False
    container_comparisons = [
        sg for sg in container.body if isinstance(sg, Comparison)
    ]
    mapped = tuple(
        _apply_to_comparison(mapping, c) for c in container_comparisons
    )
    if mapped != witness.entailed:
        return False
    return all(system.entails_comparison(c) for c in mapped)


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Chandra–Merlin minimization of a pure CQ.

    Repeatedly drop a subgoal whenever the reduced query still contains
    the original (i.e. the two are equivalent).  The result is a core of
    the query: a minimal equivalent subquery.  Useful for normalizing
    flock queries before subquery enumeration so that redundant subgoals
    don't inflate the plan space.
    """
    if not is_pure(query):
        raise ValueError("minimization implemented for pure conjunctive queries")
    current = query
    changed = True
    while changed:
        changed = False
        for i in range(len(current.body)):
            candidate = current.without_subgoals([i])
            # candidate has fewer subgoals, so current ⊆ candidate always;
            # equivalence needs candidate ⊆ current.
            if candidate.body and contains(current, candidate):
                current = candidate
                changed = True
                break
    return current
