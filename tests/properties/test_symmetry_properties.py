"""Swapping symmetric parameters is a no-op for the dynamic strategy.

The pair flock ``answer(B) :- r(B,$1) AND r(B,$2) AND $1 < $2`` is
symmetric in ``$1`` and ``$2``: renaming one to the other everywhere,
or spelling the comparison ``$2 > $1``, states the same flock.  So the
survivors and every decision of the size-driven FILTER policy — which
leaves it FILTERs, at what ratio, from and to how many tuples — must be
the same up to parameter names.  The policy's per-run leaf memo relies
on exactly this: a leaf equal to an earlier one up to renaming is
grouped and FILTERed alike.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flocks import evaluate_flock_dynamic, parse_flock
from repro.relational import database_from_dict

ITEMS = {
    "str": st.sampled_from(["a", "b", "c", "d", "e", "f"]),
    "int": st.integers(0, 7),
}


@st.composite
def pair_cases(draw):
    """A random basket relation, a support and a pair-flock body with
    its comparison operator."""
    items = ITEMS[draw(st.sampled_from(sorted(ITEMS)))]
    rows = draw(st.sets(st.tuples(st.integers(0, 11), items), max_size=40))
    db = database_from_dict({"baskets": (("BID", "Item"), rows)})
    op = draw(st.sampled_from(["<", "<=", "!="]))
    return db, draw(st.integers(1, 4)), op


def flock(first: str, second: str, comparison: str, support: int):
    return parse_flock(
        f"QUERY:\nanswer(B) :- baskets(B,{first}) AND baskets(B,{second}) "
        f"AND {comparison}\n\nFILTER:\nCOUNT(answer.B) >= {support}\n"
    )


def swap(text: str) -> str:
    """``$1`` and ``$2`` exchanged."""
    return re.sub(r"\$([12])", lambda m: "$" + "21"[int(m[1]) - 1], text)


def run(db, query, rename=lambda text: text):
    """The dynamic run's survivors as sets of (parameter, value) pairs
    and its decisions, both with parameter names passed through
    ``rename``."""
    result, trace = evaluate_flock_dynamic(db, query)
    relation = result.relation
    survivors = {
        frozenset(zip(map(rename, relation.columns), row))
        for row in relation.tuples
    }
    decisions = [
        (rename(d.node), frozenset(map(rename, d.parameter_columns)),
         d.tuples_per_assignment, d.filtered, d.reason,
         d.size_before, d.size_after)
        for d in trace.decisions
    ]
    return survivors, decisions


@given(case=pair_cases())
@settings(max_examples=80, deadline=None)
def test_swapping_the_parameters_is_a_no_op(case):
    db, support, op = case
    base = run(db, flock("$1", "$2", f"$1 {op} $2", support))
    swapped = run(db, flock("$2", "$1", f"$2 {op} $1", support), swap)
    assert swapped == base


@given(case=pair_cases())
@settings(max_examples=80, deadline=None)
def test_spelling_the_comparison_backwards_is_a_no_op(case):
    db, support, op = case
    mirrored = {"<": ">", "<=": ">=", "!=": "!="}[op]
    base = run(db, flock("$1", "$2", f"$1 {op} $2", support))
    assert run(db, flock("$1", "$2", f"$2 {mirrored} $1", support)) == base
