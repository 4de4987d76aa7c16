"""Which body runs a COUNT step's last stage, and the guard contract.

The last stage of a one-branch COUNT step has two bodies: index pairs
(``JoinPairs`` and masks) and bitmaps (AND + popcount per candidate key
pair).  The step's shape decides whether the bitmap body may run, and
an exact size rule (``memory.bitmap_pays``) whether it does.  These
tests pin the choice — by strategy on a words-shaped corpus, and by
shape with the rule forced — and that the guard sees the pair body's
row counts from either body, the support cap included; and that the
bitmaps themselves are the rows' position sets.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.memory as memory
from repro import mine, parse_flock
from repro.datalog import UnionQuery, atom, comparison, negated, rule
from repro.datalog.atoms import ComparisonOp
from repro.engine.memory import MemoryEngine
from repro.errors import ExecutionCancelled
from repro.flocks import QueryFlock, parse_filter, single_step_plan
from repro.flocks.executor import lower_filter_step
from repro.guard import CancellationToken, ExecutionGuard
from repro.relational import database_from_dict
from repro.workloads.text import generate_articles

WORDS = parse_flock("""
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2

FILTER:
COUNT(answer.B) >= 6
""")


@pytest.fixture(scope="module")
def words_db():
    """A small Zipf corpus: many rare words, a few frequent ones."""
    rows = generate_articles(
        n_articles=80, vocabulary=1500, words_per_article=20, skew=0.8,
        seed=3,
    ).tuples
    return database_from_dict({"baskets": (("BID", "Item"), rows)})


def kernels(stage_rows):
    return [o.kernel for o in stage_rows]


def test_size_rule_pairs_for_naive_bitmaps_after_dynamic_filters(words_db):
    """Unfiltered, the candidate word pairs outnumber the join's pairs;
    after the dynamic leaf FILTERs they do not."""
    naive, naive_report = mine(words_db, WORDS, strategy="naive", parallelism=1)
    dynamic, dynamic_report = mine(words_db, WORDS, strategy="dynamic")
    assert kernels(naive_report.stage_rows) == ["pairs", "pairs"]
    assert kernels(dynamic_report.stage_rows) == ["pairs", "bitmap"]
    assert naive.tuples == dynamic.tuples and len(naive) > 0
    lines = str(dynamic_report).splitlines()
    assert sum(line.endswith("[bitmap]") for line in lines) == 1


@pytest.fixture
def db():
    return database_from_dict(
        {
            "r": (("B", "I"), {(b, i) for b in range(8) for i in range(4)
                               if (b + i) % 3}),
            "s": (("I", "C"), {(i, c) for i in range(4) for c in range(3)}),
        }
    )


@pytest.fixture
def always_bitmap(monkeypatch):
    monkeypatch.setattr(memory, "bitmap_pays", lambda *_: True)


def step_plan(db, flock):
    return lower_filter_step(db, flock, single_step_plan(flock).final_step)


def run_kernels(db, flock):
    engine = MemoryEngine(db)
    engine.run_step(step_plan(db, flock))
    return kernels(engine.stage_log)


PAIR = [atom("r", "B", "$1"), atom("r", "B", "$2")]
PAIR_ONLY = {
    "existential on a side": (PAIR + [atom("s", "$2", "C")],
                              "COUNT(answer.B) >= 1"),
    "anti-join on the last stage": (PAIR + [negated("s", "$1", "$2")],
                                    "COUNT(answer.B) >= 1"),
    "SUM": (PAIR, "SUM(answer.B) >= 1"),
}


def test_the_forced_rule_picks_bitmaps_for_the_pair_flock(db, always_bitmap):
    flock = QueryFlock(rule("answer", ["B"], PAIR), parse_filter(
        "COUNT(answer.B) >= 1"
    ))
    assert run_kernels(db, flock)[-1] == "bitmap"


@pytest.mark.parametrize("case", sorted(PAIR_ONLY))
def test_other_shapes_keep_the_pair_body(db, always_bitmap, case):
    body, condition = PAIR_ONLY[case]
    flock = QueryFlock(rule("answer", ["B"], body), parse_filter(condition))
    assert set(run_kernels(db, flock)) == {"pairs"}


def test_a_union_keeps_the_pair_body(db, always_bitmap):
    flock = QueryFlock(
        UnionQuery((rule("answer", ["B"], PAIR),
                    rule("answer", ["B"], PAIR + [comparison("$1", "<", "$2")]))),
        parse_filter("COUNT(answer(*)) >= 1"),
    )
    assert set(run_kernels(db, flock)) == {"pairs"}


def guarded_run(db, plan, body, monkeypatch):
    """``plan`` run under a guard with the rule forced to ``body``: the
    guard's row checkpoints, its high-water mark, the kernels, and the
    step's survivors, ``passed`` rows, answer tuples and stage rows."""
    monkeypatch.setattr(memory, "bitmap_pays", lambda *_: body == "bitmap")
    guard = ExecutionGuard()
    seen = []
    real = guard.checkpoint

    def spy(rows=None, node=""):
        if rows is not None:
            seen.append((node, rows))
        return real(rows, node)

    guard.checkpoint = spy
    engine = MemoryEngine(db, guard=guard)
    outcome = engine.run_step(plan, need_aggregates=True)
    answer = (outcome.result.tuples, outcome.passed.tuples,
              outcome.answer_tuples,
              [(o.node, o.estimated, o.bound, o.actual) for o in engine.stage_log])
    return seen, guard.high_water_rows, kernels(engine.stage_log), answer


def test_guard_sees_the_pair_body_rows_from_either_body(db, monkeypatch):
    """An unordered first filter is a mask in both bodies; an ordered
    one (``$1 < $2``) is the bitmap body's enumeration, checkpointed
    where the pair body checkpoints its mask."""
    for op in ("!=", "<"):
        plan = step_plan(db, QueryFlock(
            rule("answer", ["B"], PAIR + [comparison("$1", op, "$2"),
                                          comparison("$2", "!=", 2)]),
            parse_filter("COUNT(answer.B) >= 1 AND COUNT(answer(*)) >= 2"),
        ))
        assert_bodies_agree(db, plan, monkeypatch)


def assert_bodies_agree(db, plan, monkeypatch):
    """Either body forced: the same guard rows, high-water mark,
    survivors, aggregates, answer tuples and stage rows."""
    pairs = guarded_run(db, plan, "pairs", monkeypatch)
    bits = guarded_run(db, plan, "bitmap", monkeypatch)
    assert (pairs[2][-1], bits[2][-1]) == ("pairs", "bitmap")
    assert bits[:2] + bits[3:] == pairs[:2] + pairs[3:]


@pytest.fixture(scope="module")
def spread_db():
    """Items 0-7: 28 pairs with every count from 2 to 12, so each cap
    below lands on a count some pair has.  Items 8 and 9 share no
    basket: a candidate pair of count 0."""
    rng = random.Random(5)
    rows = {(b, i) for b in range(30) for i in range(8) if rng.random() < 0.5}
    rows |= {(b, 8) for b in range(3)} | {(b, 9) for b in range(3, 6)}
    return database_from_dict({"r": (("B", "I"), rows)})


#: case -> (filter, a replacement (op, threshold) for its last
#: conjunct or None).  A flock refuses a conjunct that an empty answer
#: passes (``<= 9``), so those conjuncts are swapped into the lowered
#: plan, as a hand-built plan may carry them.  Caps: 8, 9, 8, 5, 8, and
#: 1 for the two without a ``>=`` / ``>`` conjunct.
CAPPED = {
    ">= 8": ("COUNT(answer.B) >= 8", None),
    "> 8": ("COUNT(answer.B) > 8", None),
    "> 7.5": ("COUNT(answer.B) > 7.5", None),
    ">= 5 and <= 9": ("COUNT(answer.B) >= 5 AND COUNT(answer.B) >= 1",
                      (ComparisonOp.LE, 9)),
    "(*) >= 8": ("COUNT(answer(*)) >= 8", None),
    "no support conjunct: = 8": ("COUNT(answer.B) = 8", None),
    "no support conjunct: <= 6": ("COUNT(answer.B) >= 1", (ComparisonOp.LE, 6)),
}


def capped_plan(db, body, case):
    text, swap = CAPPED[case]
    plan = step_plan(db, QueryFlock(rule("answer", ["B"], body), parse_filter(text)))
    if swap is None:
        return plan
    *conditions, (last, name) = plan.threshold.conditions
    last = replace(last, op=swap[0], threshold=swap[1])
    return replace(plan, threshold=replace(
        plan.threshold, conditions=(*conditions, (last, name))
    ))


@pytest.mark.parametrize("case", sorted(CAPPED))
@pytest.mark.parametrize("first", ["<", "!="])
@pytest.mark.parametrize("mask", [False, True], ids=["no mask", "mask"])
def test_support_cap_matches_the_pair_body(
    spread_db, monkeypatch, case, first, mask
):
    """The bitmap body keys only the key pairs that reach the cap when
    no mask reads them (``<`` ordered, no ``$2 != 3``), and every key
    pair otherwise: either way the pair body's output and guard rows."""
    body = PAIR + [comparison("$1", first, "$2")]
    if mask:
        body.append(comparison("$2", "!=", 3))
    assert_bodies_agree(spread_db, capped_plan(spread_db, body, case), monkeypatch)


def test_support_cap_keeps_no_group_below_it(spread_db, monkeypatch):
    """Unmasked, the bitmap body's count map holds only the groups at
    or over the cap, and its group total counts every group of any
    pair, as the pair body's count map holds."""
    monkeypatch.setattr(memory, "bitmap_pays", lambda *_: True)
    counted = []
    real = MemoryEngine._stage_counts

    def spy(self, *args):
        counted.append(real(self, *args))
        return counted[-1]

    monkeypatch.setattr(MemoryEngine, "_stage_counts", spy)
    plan = step_plan(spread_db, QueryFlock(
        rule("answer", ["B"], PAIR + [comparison("$1", "<", "$2")]),
        parse_filter("COUNT(answer.B) > 7.5"),
    ))
    MemoryEngine(spread_db).run_step(plan)
    (only,) = counted
    assert min(only.counts.values()) == 8
    assert (len(only.counts), only.groups) == (13, 43)  # of 45 candidates


#: case -> (body, bitmap builds, whether the first filter is the ordered
#: enumeration).  ``r`` against itself shares its code columns, so one
#: build serves both sides; ``s`` holds other columns.
POLL_CASES = {
    "shared sides": (PAIR + [comparison("$1", "!=", "$2")], 1, False),
    "distinct sides": ([atom("r", "B", "$1"), atom("s", "B", "$2"),
                        comparison("$1", "!=", "$2")], 2, False),
    "shared sides, ordered": (PAIR + [comparison("$1", "<", "$2"),
                                      comparison("$2", "!=", 2)], 1, True),
    "distinct sides, ordered": ([atom("r", "B", "$1"), atom("s", "B", "$2"),
                                 comparison("$2", ">=", "$1")], 2, True),
}


def assert_cancel_lands_in_the_popcount_loop(db, case):
    """``case`` run with the bitmap body forced, one candidate per
    popcount chunk and a cancel landing after each bitmap build aborts
    at the stage's first row-less poll, after the expected builds, with
    no mask run and the ordered path taken exactly when expected."""
    body, builds, ordered = POLL_CASES[case]
    cancel = CancellationToken()
    built, masks, spans, polls = [], [], [], []
    real_bitmaps, real_ordered = memory._bitmaps, MemoryEngine._ordered

    def bitmaps(*args):
        built.append(1)
        bits = real_bitmaps(*args)
        cancel.cancel()  # no poll runs between the builds
        return bits

    def ordered_spans(self, *args):
        spans.append(real_ordered(self, *args))
        return spans[-1]

    plan = step_plan(db, QueryFlock(
        rule("answer", ["B"], body), parse_filter("COUNT(answer.B) >= 1"),
    ))
    guard = ExecutionGuard(cancel=cancel)
    real_checkpoint = guard.checkpoint

    def checkpoint(rows=None, node=""):
        polls.append((node, rows))
        return real_checkpoint(rows, node)

    guard.checkpoint = checkpoint
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "bitmap_pays", lambda *_: True)
        patch.setattr(memory, "POPCOUNT_CHUNK", 1)
        patch.setattr(memory, "_bitmaps", bitmaps)
        patch.setattr(MemoryEngine, "_ordered", ordered_spans)
        patch.setattr(MemoryEngine, "_filter_mask", lambda *a: masks.append(1))
        with pytest.raises(ExecutionCancelled) as info:
            MemoryEngine(db, guard=guard).run_step(plan)
    node = plan.branches[0].stages[-1].node
    assert (info.value.node, polls[-1]) == (node, (node, None)), case
    assert (len(built), masks, [s is not None for s in spans]) == (
        builds, [], [ordered]
    ), case


def test_popcount_loop_polls_the_guard(db):
    """A cancel landing once the bitmaps are built aborts in the
    popcount loop (a poll without a row count), before any filter mask
    and before the ordered enumeration's row checkpoint — with one
    build or two, masked or ordered."""
    for case in sorted(POLL_CASES):
        assert_cancel_lands_in_the_popcount_loop(db, case)


# -- the bitmaps against per-key position sets --------------------------


def side_rows(width):
    """Distinct ``((k1, k2), x)`` rows; ``x`` codes from ``width`` on have
    no position."""
    row = st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                    st.integers(0, width + 2))
    return st.lists(row, max_size=40, unique=True)


def built(rows, arity, position):
    """``_bitmaps`` of ``rows`` keyed by their first ``arity`` key codes,
    and the reference: each key's set of positions."""
    keys = [[key[i] for key, _ in rows] for i in range(arity)]
    reference: dict[tuple, set] = {}
    for key, x in rows:
        if x in position:
            reference.setdefault(key[:arity], set()).add(position[x])
    return memory._bitmaps(keys, [x for _, x in rows], position), reference


@pytest.mark.parametrize("width", [1, 63, 64, 65, 5000])
@pytest.mark.parametrize("arity", [0, 1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bitmaps_are_the_position_sets(width, arity, data):
    """Each key's int has exactly its rows' positions (read through one
    single-bit probe per position), and two sides built apart AND to
    their position sets' intersection."""
    order = list(range(width))
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(order)
    position = dict(enumerate(order))  # x code -> position
    probe = {position[x]: bits for (x,), bits in memory._bitmaps(
        [list(position)], list(position), position
    ).items()}
    assert sorted(b.bit_length() - 1 for b in probe.values()) == list(range(width))
    assert all(b.bit_count() == 1 for b in probe.values())

    left, left_sets = built(data.draw(side_rows(width)), arity, position)
    right, right_sets = built(data.draw(side_rows(width)), arity, position)
    for bits, sets in ((left, left_sets), (right, right_sets)):
        assert bits.keys() == sets.keys()
        for key, at in sets.items():
            assert bits[key].bit_count() == len(at)
            assert all(bits[key] & probe[p] for p in at)
    for lkey, lbits in left.items():
        for rkey, rbits in right.items():
            assert (lbits & rbits).bit_count() == len(
                left_sets[lkey] & right_sets[rkey]
            )
