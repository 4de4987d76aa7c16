"""Extended conjunctive queries and unions thereof (paper Sections 2.1–2.3).

A :class:`ConjunctiveQuery` is a single Datalog rule::

    answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND
                 diagnoses(P,D) AND NOT causes(D,$s)

with a head (predicate name + terms) and a body of subgoals that may be
positive relational atoms, negated relational atoms, or arithmetic
comparisons.  A :class:`UnionQuery` is a set of such rules sharing a head
predicate, per Section 3.4 ("Extension to Unions of Datalog Queries").

Queries are immutable.  Structural operations used by the optimizer —
deleting subgoals (Section 3.1's subgoal-subset subqueries), adding
subgoals (Section 4.2's rule 3b, which splices in ``ok`` relations from
prior FILTER steps), and instantiating parameters with constants (the
"in principle, trying all such assignments" semantics of Section 2) —
all return new query objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .atoms import Comparison, RelationalAtom, Subgoal
from .terms import Constant, Parameter, Term, Variable, make_term


@dataclass(frozen=True)
class ConjunctiveQuery:
    """One rule of the flock language: extended CQ with negation/arithmetic.

    Attributes:
        head_name: name of the head predicate (``answer`` in the paper).
        head_terms: terms of the head.  The paper's flocks put only
            ordinary variables in the head (parameters "cannot appear in
            the head" — Section 3.3), but constants are tolerated for
            generality.
        body: the subgoals, in source order.
    """

    head_name: str
    head_terms: tuple[Term, ...]
    body: tuple[Subgoal, ...]

    def __post_init__(self) -> None:
        if not self.head_name:
            raise ValueError("head predicate name must be non-empty")
        for term in self.head_terms:
            if isinstance(term, Parameter):
                raise ValueError(
                    f"parameter {term} may not appear in the head of a flock "
                    "query (the flock result is about parameters; the query "
                    "result is about its head variables)"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def head_variables(self) -> frozenset[Variable]:
        return frozenset(t for t in self.head_terms if isinstance(t, Variable))

    def variables(self) -> frozenset[Variable]:
        """All variables in head and body."""
        found: set[Variable] = set(self.head_variables())
        for sg in self.body:
            found.update(sg.variables())
        return frozenset(found)

    def parameters(self) -> frozenset[Parameter]:
        """All parameters appearing in the body."""
        found: set[Parameter] = set()
        for sg in self.body:
            found.update(sg.parameters())
        return frozenset(found)

    def positive_atoms(self) -> tuple[RelationalAtom, ...]:
        return tuple(
            sg
            for sg in self.body
            if isinstance(sg, RelationalAtom) and not sg.negated
        )

    def negated_atoms(self) -> tuple[RelationalAtom, ...]:
        return tuple(
            sg for sg in self.body if isinstance(sg, RelationalAtom) and sg.negated
        )

    def comparisons(self) -> tuple[Comparison, ...]:
        return tuple(sg for sg in self.body if isinstance(sg, Comparison))

    def predicates(self) -> frozenset[str]:
        """Names of all relations referenced by the body."""
        return frozenset(
            sg.predicate for sg in self.body if isinstance(sg, RelationalAtom)
        )

    # ------------------------------------------------------------------
    # Structural transforms used by the optimizer
    # ------------------------------------------------------------------

    def with_body_subset(self, indices: Iterable[int]) -> "ConjunctiveQuery":
        """The subquery keeping only the body subgoals at ``indices``.

        This realizes Section 3.1's restriction: candidate containing
        queries are formed by *taking a subset of the subgoals* (no
        variable splitting).  Order of the surviving subgoals is
        preserved; indices may be given in any order.
        """
        index_set = sorted(set(indices))
        for i in index_set:
            if not 0 <= i < len(self.body):
                raise IndexError(f"subgoal index {i} out of range")
        return ConjunctiveQuery(
            self.head_name,
            self.head_terms,
            tuple(self.body[i] for i in index_set),
        )

    def without_subgoals(self, indices: Iterable[int]) -> "ConjunctiveQuery":
        """The subquery formed by *deleting* the subgoals at ``indices``."""
        drop = set(indices)
        keep = [i for i in range(len(self.body)) if i not in drop]
        return self.with_body_subset(keep)

    def with_extra_subgoals(
        self, extra: Sequence[Subgoal], prepend: bool = False
    ) -> "ConjunctiveQuery":
        """A copy with additional subgoals (Section 4.2 rule 3b: splice in
        the left sides of earlier FILTER steps)."""
        extra_t = tuple(extra)
        body = extra_t + self.body if prepend else self.body + extra_t
        return ConjunctiveQuery(self.head_name, self.head_terms, body)

    def instantiate(
        self, assignment: Mapping[Parameter, object]
    ) -> "ConjunctiveQuery":
        """Replace parameters with constants per ``assignment``.

        Implements the reference semantics of Section 2: a flock means
        "for every assignment of values to the parameters, instantiate
        the query, evaluate it, and test the filter".  Parameters missing
        from the assignment are left in place.
        """
        const = {p: Constant(v) if not isinstance(v, Constant) else v
                 for p, v in assignment.items()}

        def sub(term: Term) -> Term:
            if isinstance(term, Parameter) and term in const:
                return const[term]
            return term

        new_body: list[Subgoal] = []
        for sg in self.body:
            if isinstance(sg, RelationalAtom):
                new_body.append(
                    RelationalAtom(
                        sg.predicate, tuple(sub(t) for t in sg.terms), sg.negated
                    )
                )
            else:
                new_body.append(Comparison(sub(sg.left), sg.op, sub(sg.right)))
        return ConjunctiveQuery(self.head_name, self.head_terms, tuple(new_body))

    def rename_head(self, name: str) -> "ConjunctiveQuery":
        return ConjunctiveQuery(name, self.head_terms, self.body)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.head_terms)
        head = f"{self.head_name}({args})"
        if not self.body:
            return f"{head} :- TRUE"
        body = " AND ".join(str(sg) for sg in self.body)
        return f"{head} :- {body}"


@dataclass(frozen=True)
class UnionQuery:
    """A union of extended conjunctive queries (Section 3.4).

    All rules must share the same head predicate name; head arities may
    differ only in the degenerate sense the paper allows for Example 2.3
    (counting answers that are anchor IDs in one branch and document IDs
    in another — "we assume that there are no values in common between
    these two types of ID's").  We require equal arity for soundness of
    the union count.
    """

    rules: tuple[ConjunctiveQuery, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("a union query needs at least one rule")
        names = {r.head_name for r in self.rules}
        if len(names) > 1:
            raise ValueError(
                f"union rules must share a head predicate, got {sorted(names)}"
            )
        arities = {len(r.head_terms) for r in self.rules}
        if len(arities) > 1:
            raise ValueError(
                f"union rules must share a head arity, got {sorted(arities)}"
            )

    @property
    def head_name(self) -> str:
        return self.rules[0].head_name

    @property
    def head_arity(self) -> int:
        return len(self.rules[0].head_terms)

    def parameters(self) -> frozenset[Parameter]:
        found: set[Parameter] = set()
        for rule in self.rules:
            found.update(rule.parameters())
        return frozenset(found)

    def predicates(self) -> frozenset[str]:
        found: set[str] = set()
        for rule in self.rules:
            found.update(rule.predicates())
        return frozenset(found)

    def instantiate(self, assignment: Mapping[Parameter, object]) -> "UnionQuery":
        return UnionQuery(tuple(r.instantiate(assignment) for r in self.rules))

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


#: The flock query language: a single extended CQ or a union of them.
FlockQuery = Union[ConjunctiveQuery, UnionQuery]


def as_union(query: FlockQuery) -> UnionQuery:
    """View any flock query uniformly as a union (of one or more rules)."""
    if isinstance(query, UnionQuery):
        return query
    return UnionQuery((query,))


def rule(
    head_name: str,
    head_terms: Sequence[Union[str, int, float, Term]],
    body: Sequence[Subgoal],
) -> ConjunctiveQuery:
    """Convenience constructor mirroring the paper's rule syntax.

    Example::

        rule("answer", ["B"], [atom("baskets", "B", "$1"),
                               atom("baskets", "B", "$2"),
                               comparison("$1", "<", "$2")])
    """
    return ConjunctiveQuery(
        head_name,
        tuple(make_term(t) for t in head_terms),
        tuple(body),
    )
