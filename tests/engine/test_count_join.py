"""The last join stage of every step is read as index pairs — or, for a
COUNT step of the bitmap shape, counted by bitmaps — never gathered:
for every step kind, in the executor's step body and at the dynamic
strategy's root alike; no engine path builds the answer relation
(``run_answer`` / ``run_plan``) or groups one
(``relation_group_values``)."""

from __future__ import annotations

import pytest

import repro.engine.memory as memory
import repro.relational.aggregates as aggregates
from repro.datalog import UnionQuery, atom, comparison, negated, rule
from repro.engine.memory import MemoryEngine
from repro.flocks import QueryFlock, parse_filter, single_step_plan
from repro.flocks.dynamic import evaluate_flock_dynamic
from repro.flocks.executor import lower_filter_step
from repro.relational import database_from_dict
from repro.relational.operators import JoinPairs

from tests.survivor_oracle import survivors


@pytest.fixture
def db():
    return database_from_dict(
        {
            "r": (("B", "I"), {(b, i) for b in range(8) for i in range(4)
                               if (b + i) % 3}),
            "s": (("I", "C"), {(i, c) for i in range(4) for c in range(3)}),
            "bad": (("B",), {(0,), (5,)}),
        }
    )


PAIR = [atom("r", "B", "$1"), atom("r", "B", "$2"),
        comparison("$1", "<", "$2"), negated("bad", "B")]


def step_plan(db, flock):
    return lower_filter_step(db, flock, single_step_plan(flock).final_step)


def flock(body=PAIR, head=("B",), condition="COUNT(answer.B) >= 2"):
    return QueryFlock(rule("answer", list(head), body), parse_filter(condition))


@pytest.fixture
def join_log(monkeypatch):
    """Every gathered join (a ``run_stage`` whose left side has columns)
    and every stage body left as index pairs (``("last", stage)``) or
    counted by bitmaps (``("bitmap", stage)``), in order.  A gather
    outside ``run_stage``, or building or grouping an answer relation,
    fails the test."""
    events, gathering = [], []
    real_stage = MemoryEngine.run_stage
    real_pairs = MemoryEngine._stage_pairs
    real_gather = JoinPairs.relation

    def joining(self, current, stage, *args):
        if current.columns:
            events.append("join")
        gathering.append(stage)
        try:
            return real_stage(self, current, stage, *args)
        finally:
            gathering.pop()

    def pairing(self, current, stage, *args):
        outcome = real_pairs(self, current, stage, *args)
        if not gathering:
            kind = "last" if isinstance(outcome, JoinPairs) else "bitmap"
            events.append((kind, stage))
        return outcome

    def gather(self, *args):
        assert gathering, "a stage was gathered outside run_stage"
        return real_gather(self, *args)

    def forbidden(*args, **kwargs):
        raise AssertionError("the step built or grouped an answer relation")

    monkeypatch.setattr(MemoryEngine, "run_stage", joining)
    monkeypatch.setattr(MemoryEngine, "_stage_pairs", pairing)
    monkeypatch.setattr(JoinPairs, "relation", gather)
    monkeypatch.setattr(MemoryEngine, "run_answer", forbidden)
    monkeypatch.setattr(MemoryEngine, "run_plan", forbidden)
    monkeypatch.setattr(aggregates, "relation_group_values", forbidden)
    return events


@pytest.mark.parametrize(
    "make",
    [
        lambda: flock(),
        lambda: flock(condition="COUNT(answer(*)) > 1"),
        # An existential variable (I) the target does not cover.
        lambda: flock([atom("r", "B", "$1"), atom("s", "$1", "C")]),
        # The target is narrower than the head.
        lambda: flock([atom("r", "B", "$1"), atom("s", "$1", "C")],
                      head=("B", "C")),
        lambda: flock(condition="SUM(answer.B) >= 2"),
        lambda: flock(condition="MAX(answer.B) >= 2"),
        lambda: flock(condition="COUNT(answer.B) >= 1 AND COUNT(answer.B) >= 2"),
        lambda: QueryFlock(
            UnionQuery((rule("answer", ["B"], PAIR[:2]),
                        rule("answer", ["B"], PAIR))),
            parse_filter("COUNT(answer(*)) >= 2"),
        ),
    ],
)
def test_run_step_never_gathers_its_last_stage(db, join_log, make):
    plan = step_plan(db, make())
    for need_aggregates in (False, True):
        join_log.clear()
        outcome = MemoryEngine(db).run_step(plan, need_aggregates)
        last = [event[1] for event in join_log if event != "join"]
        assert last == [branch.stages[-1] for branch in plan.branches]
        assert len(outcome.result) > 0


@pytest.mark.parametrize("need_aggregates", [False, True])
def test_run_step_never_joins_the_final_stage(db, join_log, need_aggregates):
    plan = step_plan(db, flock())
    stages = plan.branches[0].stages
    outcome = MemoryEngine(db).run_step(plan, need_aggregates=need_aggregates)
    # The first stage reads its scan in place (the unit relation is the
    # join's identity); every later one joins, but the last is read as
    # index pairs.
    assert join_log == ["join"] * (len(stages) - 2) + [("last", stages[-1])]
    assert len(outcome.result) > 0


def test_dynamic_root_never_joins(db, join_log):
    result, trace = evaluate_flock_dynamic(db, flock())
    assert join_log[-1][0] == "last"
    assert "join" not in join_log  # two stages: a scan, then the pairs
    assert trace.decisions[-1].node == "root"
    assert trace.decisions[-1].size_after == len(result.relation)


def test_bitmap_body_never_joins_the_final_stage(db, join_log, monkeypatch):
    """Counted by bitmaps (the size rule forced), the last stage of the
    step and of the dynamic root is still never gathered."""
    monkeypatch.setattr(memory, "bitmap_pays", lambda *_: True)
    plan = step_plan(db, flock())
    stages = plan.branches[0].stages
    MemoryEngine(db).run_step(plan)
    assert join_log == ["join"] * (len(stages) - 2) + [("bitmap", stages[-1])]
    join_log.clear()
    result, trace = evaluate_flock_dynamic(db, flock())
    assert [kind for kind, _ in join_log] == ["bitmap"]
    assert trace.decisions[-1].size_after == len(result.relation)


def test_sum_step_never_joins_the_final_stage(db, join_log):
    plan = step_plan(db, flock(condition="SUM(answer.B) >= 2"))
    stages = plan.branches[0].stages
    MemoryEngine(db).run_step(plan)
    assert join_log == ["join"] * (len(stages) - 2) + [("last", stages[-1])]


def test_trailing_semi_joins_are_counted_masks(db, join_log, monkeypatch):
    """A static plan's ok-atom that joins after its column is bound
    (``okb($2)`` here) is a semi-join: a mask on the last stage's
    pairs, not a natural join, with its own stage observation."""
    db = db.scratch()
    db.add(database_from_dict({"oka": (("I",), {(1,)})}).get("oka"))
    db.add(database_from_dict({"okb": (("I",), {(2,), (3,)})}).get("okb"))
    plan = step_plan(db, flock(
        [atom("r", "B", "$1"), atom("r", "B", "$2"),
         comparison("$1", "<", "$2"), atom("oka", "$1"), atom("okb", "$2")],
    ))
    stages = plan.branches[0].stages
    assert [s.scan.atom.predicate for s in stages] == ["oka", "r", "r", "okb"]
    engine = MemoryEngine(db)
    outcome = engine.run_step(plan)
    assert join_log == ["join", ("last", stages[2])]
    monkeypatch.undo()  # the reference builds the answer
    reference = MemoryEngine(db)
    answer = reference.run_answer(plan)
    assert outcome.result == survivors(answer, plan)[0]
    assert [o.actual for o in engine.stage_log] == [
        o.actual for o in reference.stage_log
    ]
