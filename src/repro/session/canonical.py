"""Canonical forms and reuse tests for (extended) conjunctive queries.

The result cache (:mod:`repro.session.cache`) needs two query-level
operations, both grounded in the Section 3.1 containment theory of
:mod:`repro.datalog.containment`:

* **canonical keys** — alpha-equivalent queries (equal up to a bijective
  renaming of their variables and a reordering of their subgoals) must
  share a cache key, so a re-issued query finds the result computed for
  a differently-spelled twin.  :func:`canonicalize` renames variables to
  ``_c0, _c1, ...`` over a deterministically ordered body;
  :func:`canonical_key` renders that form as a string.  Parameters and
  constants are part of the key — a flock is a query *about its
  parameters*, so ``$s`` and ``$m`` are as distinguishing as relation
  names (the containment module treats them as distinguished variables
  for the same reason).

* **reuse tests** — :func:`alpha_equivalent` confirms that a cache-key
  collision really is the same query (the key is canonical for
  alpha-equivalence whenever the tie-break search below completes, and a
  conservative bucket label otherwise), and :func:`serves_as_bound`
  decides "is every answer of ``contained`` also produced by
  ``container``?" — the soundness condition for serving a cached result
  as an a-priori pruning upper bound.  The strongest applicable test is
  chosen per query class: Chandra–Merlin homomorphisms for pure CQs,
  Klug's criterion for CQs with arithmetic, and the paper's
  subgoal-subset restriction once negation appears.

Canonicalization caveat: choosing the lexicographically least body
ordering over all variable renamings is graph-isomorphism-hard in
general, so ties between structurally identical subgoals are broken by
bounded permutation search (:data:`MAX_TIE_PERMUTATIONS`).  Realistic
flock queries (a handful of subgoals) are far below the bound; if a
pathological query exceeds it, the key degrades to a deterministic but
not-fully-canonical label — lookups then miss some alpha-variants but
never conflate distinct queries, because every key hit is re-verified
with :func:`alpha_equivalent`.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, Optional

from ..analysis.certify import find_witness
from ..datalog.atoms import Comparison, ComparisonOp, RelationalAtom, Subgoal
from ..datalog.query import ConjunctiveQuery, FlockQuery, as_union
from ..datalog.terms import Constant, Parameter, Term, Variable

#: Cap on the tie-break permutations tried while canonicalizing one body.
MAX_TIE_PERMUTATIONS = 720


def _oriented(sg: Subgoal) -> Subgoal:
    """Normalize comparison orientation: ``a > b`` becomes ``b < a`` so
    the two spellings canonicalize identically."""
    if isinstance(sg, Comparison) and sg.op in (ComparisonOp.GT, ComparisonOp.GE):
        return Comparison(sg.right, sg.op.flipped(), sg.left)
    return sg


def _term_signature(term: Term, local: dict[Variable, int]) -> tuple:
    """A variable-name-independent signature of one term.

    Variables are abstracted to their first-occurrence index *within the
    subgoal* (``local``), so ``p(X, X)`` and ``p(X, Y)`` stay distinct
    while ``p(X, Y)`` and ``p(U, V)`` coincide.
    """
    if isinstance(term, Constant):
        return ("c", repr(term.value))
    if isinstance(term, Parameter):
        return ("p", term.name)
    if term not in local:
        local[term] = len(local)
    return ("v", local[term])


def _subgoal_signature(sg: Subgoal) -> tuple:
    sg = _oriented(sg)
    local: dict[Variable, int] = {}
    if isinstance(sg, RelationalAtom):
        return (
            "atom",
            sg.predicate,
            sg.negated,
            sg.arity,
            tuple(_term_signature(t, local) for t in sg.terms),
        )
    return (
        "cmp",
        sg.op.value,
        _term_signature(sg.left, local),
        _term_signature(sg.right, local),
    )


def _rename_terms(terms: Iterable[Term], names: dict[Variable, Variable]) -> tuple:
    renamed = []
    for term in terms:
        if isinstance(term, Variable):
            if term not in names:
                names[term] = Variable(f"_c{len(names)}")
            renamed.append(names[term])
        else:
            renamed.append(term)
    return tuple(renamed)


def _rename_query(
    query: ConjunctiveQuery, body: tuple[Subgoal, ...]
) -> ConjunctiveQuery:
    """Rename variables to ``_c0, _c1, ...`` in head-then-body first
    occurrence order over the given body ordering."""
    names: dict[Variable, Variable] = {}
    head = _rename_terms(query.head_terms, names)
    new_body: list[Subgoal] = []
    for sg in body:
        sg = _oriented(sg)
        if isinstance(sg, RelationalAtom):
            new_body.append(
                RelationalAtom(sg.predicate, _rename_terms(sg.terms, names), sg.negated)
            )
        else:
            left, right = _rename_terms((sg.left, sg.right), names)
            new_body.append(Comparison(left, sg.op, right))
    return ConjunctiveQuery(query.head_name, head, tuple(new_body))


def _tie_groups(body: tuple[Subgoal, ...]) -> list[list[Subgoal]]:
    """The body sorted by name-independent signature, as runs of ties."""
    decorated = sorted(
        ((_subgoal_signature(sg), sg) for sg in body), key=lambda pair: pair[0]
    )
    groups: list[list[Subgoal]] = []
    previous = None
    for signature, sg in decorated:
        if signature != previous:
            groups.append([])
            previous = signature
        groups[-1].append(sg)
    return groups


def canonicalize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The canonical alpha-variant of an extended conjunctive query.

    Subgoals are ordered by a variable-name-independent signature;
    within each run of structurally identical subgoals every permutation
    (up to :data:`MAX_TIE_PERMUTATIONS` combinations in total) is tried,
    and the ordering whose renamed rendering is lexicographically least
    wins.  The result is idempotent — ``canonicalize(canonicalize(q))``
    equals ``canonicalize(q)`` — and equal for alpha-equivalent inputs
    whenever the permutation search completes.
    """
    groups = _tie_groups(query.body)
    total = 1
    for group in groups:
        for k in range(2, len(group) + 1):
            total *= k
        if total > MAX_TIE_PERMUTATIONS:
            break

    if total > MAX_TIE_PERMUTATIONS:
        # Degraded mode: deterministic but possibly non-canonical order.
        flat = tuple(sg for group in groups for sg in group)
        return _rename_query(query, flat)

    best: Optional[tuple[str, ConjunctiveQuery]] = None
    for ordering in _orderings(groups):
        candidate = _rename_query(query, ordering)
        rendered = str(candidate)
        if best is None or rendered < best[0]:
            best = (rendered, candidate)
    assert best is not None  # at least one ordering always exists
    return best[1]


def _orderings(
    groups: list[list[Subgoal]],
) -> "Iterator[tuple[Subgoal, ...]]":
    """Every body ordering that permutes only within tie groups."""

    def rec(
        index: int, prefix: tuple[Subgoal, ...]
    ) -> "Iterator[tuple[Subgoal, ...]]":
        if index == len(groups):
            yield prefix
            return
        for perm in permutations(groups[index]):
            yield from rec(index + 1, prefix + perm)

    yield from rec(0, ())


def canonical_key(query: FlockQuery) -> str:
    """A string key shared by alpha-equivalent queries.

    For a union, branches are canonicalized independently and sorted, so
    branch order does not matter either.
    """
    union = as_union(query)
    branch_keys = sorted(str(canonicalize(rule)) for rule in union.rules)
    return "\nUNION\n".join(branch_keys)


# ----------------------------------------------------------------------
# Reuse tests
# ----------------------------------------------------------------------


def alpha_equivalent(q1: FlockQuery, q2: FlockQuery) -> bool:
    """Exact test: equal up to bijective variable renaming and subgoal
    (and union-branch) reordering.  Handles the full extended language —
    negation and arithmetic subgoals must match structurally.
    """
    u1, u2 = as_union(q1), as_union(q2)
    if len(u1.rules) != len(u2.rules):
        return False
    if len(u1.rules) == 1:
        return _alpha_equivalent_rules(u1.rules[0], u2.rules[0])
    # Branch-order-insensitive matching via canonical branch keys.
    k1 = sorted(str(canonicalize(r)) for r in u1.rules)
    k2 = sorted(str(canonicalize(r)) for r in u2.rules)
    return k1 == k2


def _alpha_equivalent_rules(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    if q1.head_name != q2.head_name or len(q1.head_terms) != len(q2.head_terms):
        return False
    if len(q1.body) != len(q2.body):
        return False
    return str(canonicalize(q1)) == str(canonicalize(q2)) or _match_bijective(q1, q2)


def _match_bijective(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Backtracking search for a variable bijection mapping q1 onto q2.

    Safety net for queries whose canonicalization degraded (tie groups
    over the permutation cap); exact but potentially exponential, so it
    runs only after the cheap canonical comparison failed.
    """
    body2 = [_oriented(sg) for sg in q2.body]

    def extend(
        mapping: dict[Variable, Variable],
        used: set[Variable],
        src: Term,
        dst: Term,
    ) -> Optional[tuple[dict, set]]:
        if isinstance(src, Variable) and isinstance(dst, Variable):
            bound = mapping.get(src)
            if bound is not None:
                return (mapping, used) if bound == dst else None
            if dst in used:
                return None
            mapping = dict(mapping)
            used = set(used)
            mapping[src] = dst
            used.add(dst)
            return (mapping, used)
        return (mapping, used) if src == dst else None

    def match_subgoal(
        sg1: Subgoal,
        sg2: Subgoal,
        mapping: "dict[Term, Term]",
        used: "set[Term]",
    ) -> "tuple[dict[Term, Term], set[Term]] | None":
        pairs: list[tuple[Term, Term]]
        if isinstance(sg1, RelationalAtom) and isinstance(sg2, RelationalAtom):
            if (
                sg1.predicate != sg2.predicate
                or sg1.negated != sg2.negated
                or sg1.arity != sg2.arity
            ):
                return None
            pairs = list(zip(sg1.terms, sg2.terms))
        elif isinstance(sg1, Comparison) and isinstance(sg2, Comparison):
            if sg1.op != sg2.op:
                return None
            pairs = [(sg1.left, sg2.left), (sg1.right, sg2.right)]
        else:
            return None
        state = (mapping, used)
        for src, dst in pairs:
            state = extend(state[0], state[1], src, dst)
            if state is None:
                return None
        return state

    def search(
        index: int,
        remaining: list[Subgoal],
        mapping: "dict[Term, Term]",
        used: "set[Term]",
    ) -> bool:
        if index == len(q1.body):
            return True
        sg1 = _oriented(q1.body[index])
        for i, sg2 in enumerate(remaining):
            state = match_subgoal(sg1, sg2, mapping, used)
            if state is None:
                continue
            if search(index + 1, remaining[:i] + remaining[i + 1:], *state):
                return True
        return False

    seed: Optional[tuple[dict, set]] = ({}, set())
    for src, dst in zip(q1.head_terms, q2.head_terms):
        assert seed is not None
        seed = extend(seed[0], seed[1], src, dst)
        if seed is None:
            return False
    return search(0, body2, *seed)


def serves_as_bound(container: FlockQuery, contained: FlockQuery) -> bool:
    """Sound test that ``container``'s answer upper-bounds ``contained``'s.

    Per parameter assignment, every answer tuple of ``contained`` is an
    answer tuple of ``container`` — so a monotone filter failing on
    ``container``'s answer fails on ``contained``'s, and ``container``'s
    cached survivor set may be joined in as an a-priori pruning bound
    (Section 3.1's Optimization Principle, applied across queries
    instead of within one).

    Alpha-equivalent rules bound each other; otherwise the test is
    :func:`repro.analysis.certify.find_witness`'s one dispatch
    (Chandra–Merlin for pure CQs, Klug's test for arithmetic without
    negation, the paper's subgoal-subset criterion otherwise).
    """
    u1, u2 = as_union(container), as_union(contained)
    if len(u1.rules) != 1 or len(u2.rules) != 1:
        # Union bounds reduce to per-branch bounds: every branch of the
        # contained union must be bounded by some branch of the container.
        return all(
            any(serves_as_bound(c_rule, d_rule) for c_rule in u1.rules)
            for d_rule in u2.rules
        )
    c_rule, d_rule = u1.rules[0], u2.rules[0]
    if alpha_equivalent(c_rule, d_rule):
        return True
    return find_witness(c_rule, d_rule) is not None
