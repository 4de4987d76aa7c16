"""Binding relations: the leaf inputs of every physical plan.

A positive subgoal becomes a *binding relation* — columns named after
the subgoal's variables/parameters, constants and repeated terms handled
by selection — and an arithmetic comparison becomes a keep-mask
(:func:`comparison_mask`) over the rows of a stage once its terms are
bound.  Binding relations are born in the database's
code space (:meth:`~.catalog.Database.encoded`), the only one the
physical-plan engine (:mod:`repro.engine`) reads.

Column naming convention: a binding column is the rendered term —
``"P"`` for a variable, ``"$s"`` for a parameter — so the same term
always joins with itself across subgoals.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from ..errors import EvaluationError
from ..datalog.atoms import Comparison, RelationalAtom
from ..datalog.terms import Constant, Term
from .catalog import Database
from .operators import ColumnReader
from .relation import Relation


def term_column(term: Term) -> str:
    """The canonical column name for a bindable term."""
    return str(term)


def atom_binding_relation(db: Database, subgoal: RelationalAtom) -> Relation:
    """The binding relation of one (positive-polarity) relational subgoal.

    Applies constant selections and repeated-term equality selections,
    then projects to one column per distinct bindable term.  The result
    has set semantics, so duplicates introduced by the projection
    collapse — this is what makes a one-subgoal subquery like
    ``answer(B) :- baskets(B,$1)`` well defined.

    The binding relation is built on the base relation's code columns
    in the database's code space (:meth:`Database.encoded`): constant
    selections compare integer codes.
    """
    base = db.encoded(subgoal.predicate)
    if base.arity != subgoal.arity:
        raise EvaluationError(
            f"subgoal {subgoal} has arity {subgoal.arity} but relation "
            f"{base.name!r} has arity {base.arity}"
        )

    # Positional filter: constants must match; repeated bindable terms
    # must agree.
    first_position: dict[Term, int] = {}
    constant_checks: list[tuple[int, object]] = []
    equality_checks: list[tuple[int, int]] = []
    output_positions: list[int] = []
    output_columns: list[str] = []
    for i, term in enumerate(subgoal.terms):
        if isinstance(term, Constant):
            constant_checks.append((i, term.value))
        elif term in first_position:
            equality_checks.append((first_position[term], i))
        else:
            first_position[term] = i
            output_positions.append(i)
            output_columns.append(term_column(term))

    columns = base.code_columns()
    if constant_checks or equality_checks:
        keep: list[int] | range = range(len(base))
        for pos, value in constant_checks:
            # A never-seen constant matches nothing.
            code, arr = db.dictionary.code_of(value), columns[pos]
            keep = [] if code is None else [i for i in keep if arr[i] == code]
        for first, other in equality_checks:
            a, b = columns[first], columns[other]
            keep = [i for i in keep if a[i] == b[i]]
        # The surviving rows stay distinct after dropping the checked
        # positions: a dropped column is either a fixed constant or
        # equal to a kept column, so it cannot distinguish two rows.
        picked = [
            list(map(columns[p].__getitem__, keep)) for p in output_positions
        ]
        count = len(keep)
    else:
        # Every position is kept: the arrays can be shared as-is.
        picked = [columns[p] for p in output_positions]
        count = len(base)
    return Relation.from_encoded(
        f"bind:{subgoal.predicate}", tuple(output_columns), picked,
        db.dictionary, count=count,
    )


def unit_relation() -> Relation:
    """The zero-column relation with one (empty) tuple — the identity of
    the natural join, used for queries with no positive subgoals."""
    return Relation("unit", (), {()})


def comparison_mask(
    comp: Comparison, column: ColumnReader, rows: int
) -> list[bool]:
    """Whether each of ``rows`` rows passes an arithmetic subgoal whose
    terms are all bound (or constant) — the one place a comparison is
    evaluated.

    ``column(name, True)`` reads one column's values: ordered
    comparisons need real values (codes are equality-faithful, not
    order-faithful), so only the compared columns are decoded.
    Constants repeat.  Values the operator cannot order (``1 < "a"``)
    raise :class:`EvaluationError`.
    """

    def operand(term: Term) -> Iterable:
        if isinstance(term, Constant):
            return repeat(term.value, rows)
        return column(term_column(term), True)

    try:
        return list(map(comp.op.fn, operand(comp.left), operand(comp.right)))
    except TypeError as error:
        raise EvaluationError(f"cannot evaluate {comp}: {error}") from None
