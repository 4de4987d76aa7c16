"""The bitmap body's ordered candidate grid against the pair body.

When a COUNT step's last stage orders a left key column against a right
one (``$1 < $2``, ``$2 >= $1``, ...) and every key value is of one type,
the bitmap body ANDs only the key pairs that comparison admits, found by
bisecting one sort of the right keys.  These tests force the bitmap body
and compare it with the pair body on random small relations: survivors,
aggregates, answer sizes, stage rows and the guard's row checkpoints
must agree, and with keys of mixed types (which no order holds) both
bodies must raise, or not, alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.memory as memory
from repro.datalog import atom, comparison, rule
from repro.engine.memory import MemoryEngine
from repro.errors import EvaluationError
from repro.flocks import QueryFlock, parse_filter, single_step_plan
from repro.flocks.executor import lower_filter_step
from repro.guard import ExecutionGuard
from repro.relational import database_from_dict

VALUES = {
    "int": st.integers(-3, 5),
    "str": st.sampled_from(["a", "ab", "b", "ba", "c", "cc"]),
    "mixed": st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"])),
}
ORDERS = ("<", "<=", ">", ">=")


def rows(values):
    return st.sets(st.tuples(st.integers(0, 5), values), max_size=24)


@st.composite
def cases(draw, kinds=("int", "str")):
    """A pair flock's database and last-stage filters: the two sides
    one relation (shared code columns) or two, the order comparison
    spelled either way round, and maybe a ``$2 != c`` after it."""
    values = VALUES[draw(st.sampled_from(kinds))]
    relations = {"r": (("B", "I"), draw(rows(values)))}
    right = "r"
    if draw(st.booleans()):
        right = "s"
        relations["s"] = (("B", "I"), draw(rows(values)))
    order = draw(st.sampled_from(ORDERS))
    first = draw(st.sampled_from([("$1", order, "$2"), ("$2", order, "$1")]))
    body = [atom("r", "B", "$1"), atom(right, "B", "$2"), comparison(*first)]
    if draw(st.booleans()):
        body.append(comparison("$2", "!=", draw(values)))
    support = draw(st.integers(1, 3))
    flock = QueryFlock(
        rule("answer", ["B"], body),
        parse_filter(f"COUNT(answer.B) >= {support}"),
    )
    return database_from_dict(relations), flock


def run(db, flock, body):
    """``flock``'s step with the size rule forced to ``body``: its
    outcome (or the error it raised), the stage rows and kernels, and
    the guard's row checkpoints."""
    plan = lower_filter_step(db, flock, single_step_plan(flock).final_step)
    guard = ExecutionGuard()
    seen = []
    real = guard.checkpoint

    def spy(rows=None, node=""):
        if rows is not None:
            seen.append((node, rows))
        return real(rows, node)

    guard.checkpoint = spy
    engine = MemoryEngine(db, guard=guard)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "bitmap_pays", lambda *_: body == "bitmap")
        try:
            outcome = engine.run_step(plan, need_aggregates=True)
        except EvaluationError:
            return "raised", seen, [(o.actual, o.kernel) for o in engine.stage_log]
    answer = (
        list(zip(*outcome.result.columns_data())),
        outcome.passed.tuples,
        outcome.answer_tuples,
    )
    return answer, seen, [(o.actual, o.kernel) for o in engine.stage_log]


def assert_bodies_agree(db, flock):
    pairs, pair_seen, pair_log = run(db, flock, "pairs")
    bits, bit_seen, bit_log = run(db, flock, "bitmap")
    assert bits == pairs
    assert bit_seen == pair_seen
    assert [a for a, _ in bit_log] == [a for a, _ in pair_log]
    return pairs, [k for _, k in bit_log]


@given(case=cases())
@settings(max_examples=200, deadline=None)
def test_the_ordered_grid_counts_like_the_pair_body(case):
    answer, kernels = assert_bodies_agree(*case)
    assert answer != "raised"
    assert not kernels or kernels[-1] == "bitmap"


@given(case=cases(kinds=("mixed",)))
@settings(max_examples=150, deadline=None)
def test_mixed_keys_raise_where_the_pair_body_does(case):
    assert_bodies_agree(*case)


def test_the_ordered_grid_runs_and_admits_only_ordered_pairs(monkeypatch):
    """On a hand-made self-join every order operator takes the ordered
    enumeration and ANDs only the key pairs it admits."""
    db = database_from_dict({"r": (("B", "I"), {
        (b, i) for b in range(6) for i in range(5) if (b + i) % 4
    })})
    anded = []
    real = memory.MemoryEngine._ordered

    def ordered(self, *args):
        spans = real(self, *args)
        anded.append(sum(high - low for low, high in spans))
        return spans

    monkeypatch.setattr(memory.MemoryEngine, "_ordered", ordered)
    for order, admitted in (("<", 10), ("<=", 15), (">", 10), (">=", 15)):
        anded.clear()
        flock = QueryFlock(
            rule("answer", ["B"], [atom("r", "B", "$1"), atom("r", "B", "$2"),
                                   comparison("$1", order, "$2")]),
            parse_filter("COUNT(answer.B) >= 1"),
        )
        _, kernels = assert_bodies_agree(db, flock)
        assert kernels[-1] == "bitmap"
        assert anded == [admitted], order
