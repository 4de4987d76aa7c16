"""The counting join: the last stage of a support step is counted,
never materialised — in the executor's step body and at the dynamic
strategy's root alike."""

from __future__ import annotations

import pytest

from repro.datalog import UnionQuery, atom, comparison, negated, rule
from repro.engine.memory import MemoryEngine, support_shape
from repro.flocks import QueryFlock, parse_filter, single_step_plan
from repro.flocks.dynamic import evaluate_flock_dynamic
from repro.flocks.executor import lower_filter_step
from repro.relational import database_from_dict

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


@pytest.mark.parametrize(
    "make, counted",
    [
        (lambda: flock(), True),
        (lambda: flock(condition="COUNT(answer(*)) > 1"), True),
        # An existential variable (I) the target does not cover.
        (lambda: flock([atom("r", "B", "$1"), atom("s", "$1", "C")]), True),
        # The target is narrower than the head: materialised.
        (lambda: flock([atom("r", "B", "$1"), atom("s", "$1", "C")],
                       head=("B", "C")), False),
        (lambda: flock(condition="SUM(answer.B) >= 2"), False),
        (lambda: flock(condition="MAX(answer.B) >= 2"), False),
        (lambda: flock(condition="COUNT(answer.B) >= 1 AND COUNT(answer.B) >= 2"),
         False),
        (lambda: QueryFlock(
            UnionQuery((rule("answer", ["B"], PAIR[:2]),
                        rule("answer", ["B"], PAIR))),
            parse_filter("COUNT(answer(*)) >= 2"),
        ), False),
    ],
)
def test_support_shape_is_a_plan_property(db, make, counted):
    assert (support_shape(step_plan(db, make())) is not None) is counted


@pytest.fixture
def join_log(monkeypatch):
    """Every materialised join (a stage whose left side has columns)
    and counted stage the engine runs, in order."""
    events = []
    real_stage = MemoryEngine.run_stage
    real_count = MemoryEngine.count_join

    def joining(self, current, stage, *args):
        if current.columns:
            events.append("join")
        return real_stage(self, current, stage, *args)

    def counting(self, current, stage, *args):
        events.append(("count", stage))
        return real_count(self, current, stage, *args)

    monkeypatch.setattr(MemoryEngine, "run_stage", joining)
    monkeypatch.setattr(MemoryEngine, "count_join", counting)
    return events


@pytest.mark.parametrize("need_aggregates", [False, True])
def test_run_step_never_joins_the_final_stage(db, join_log, need_aggregates):
    plan = step_plan(db, flock())
    stages = plan.branches[0].stages
    outcome = MemoryEngine(db).run_step(plan, need_aggregates=need_aggregates)
    # The first stage reads its scan in place (the unit relation is the
    # join's identity); every later one joins, but the last is counted.
    assert join_log == ["join"] * (len(stages) - 2) + [("count", stages[-1])]
    assert len(outcome.result) > 0


def test_dynamic_root_never_joins(db, join_log):
    result, trace = evaluate_flock_dynamic(db, flock())
    assert join_log[-1][0] == "count"
    assert "join" not in join_log  # two stages: a scan, then the count
    assert trace.decisions[-1].node == "root"
    assert trace.decisions[-1].size_after == len(result.relation)


def test_fallback_still_materialises(db, join_log):
    plan = step_plan(db, flock(condition="SUM(answer.B) >= 2"))
    MemoryEngine(db).run_step(plan)
    assert join_log == ["join"] * (len(plan.branches[0].stages) - 1)


def test_trailing_semi_joins_are_counted_masks(db, join_log):
    """A static plan's ok-atom that joins after its column is bound
    (``okb($2)`` here) is a semi-join: a mask in the counting pass, not
    a natural join, with its own stage observation."""
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
    assert join_log == ["join", ("count", stages[2])]
    reference = MemoryEngine(db)
    answer = reference.run_answer(plan)
    assert outcome.result == survivors(answer, plan)[0]
    assert [o.actual for o in engine.stage_log] == [
        o.actual for o in reference.stage_log
    ]
