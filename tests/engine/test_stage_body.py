"""The one stage body: index pairs, then one keep-mask per attached
filter, then a gather (``run_stage``) — or, for a branch's last stage,
nothing: its pairs are read where they are (``_run_branch``).

Each filter kind sits once on a gathered intermediate stage
(``materialised``) and once on the last stage of a support step
(``counted``: its groups are counted through the pairs).  Survivors are checked
against ``tests/survivor_oracle.py`` and every stage's observed
``actual`` against a set comprehension over the decoded base rows —
neither reference shares code with the engine's kernels.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from itertools import islice

import pytest

from repro.datalog import atom, comparison, negated, rule
from repro.datalog.terms import Constant
from repro.engine.ir import (
    AntiJoin, CompareFilter, HashJoin, JoinStage, Scan, ScanFilter,
)
from repro.engine.memory import MemoryEngine
from repro.engine.planner import scan_columns
from repro.flocks import QueryFlock, parse_filter, single_step_plan
from repro.flocks.executor import lower_filter_step
from repro.relational import Relation, database_from_dict
from repro.relational.operators import member_mask

from tests.survivor_oracle import survivors

R1, R2, S = atom("r", "B", "$1"), atom("r", "B", "$2"), atom("s", "$2", "C")
OK = atom("ok", "$2")
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "=": operator.eq, "!=": operator.ne}


@pytest.fixture
def db():
    return database_from_dict(
        {
            "r": (("B", "I"), {(b, i) for b in range(8) for i in range(4)
                               if (b + i) % 3}),
            "s": (("I", "C"), {(i, c) for i in range(4) for c in range(i)}),
            "ok": (("I",), {(1,), (3,)}),
            "bad": (("B",), {(0,), (5,)}),
            "g": (("X",), {(7,)}),
        }
    )


def layout(kind, where, db):
    """``kind``'s extra body subgoals, and its stages as (atom, attached
    subgoals, scan filters) in execution order, with the filter on a
    gathered intermediate stage or on the last stage."""
    at = 1 if where == "materialised" else 2
    if kind == "semi-join tail":
        atoms = [R1, R2, OK, S] if where == "materialised" else [R1, R2, S, OK]
        return [OK], [(a, (), ()) for a in atoms]
    if kind == "scan filter":
        stages = [(a, (), ()) for a in (R1, R2, S, OK)]
        sf = ScanFilter("$2", "ok", "I", len(db.get("ok")))
        stages[at] = (stages[at][0], (), (sf,))
        return [OK], stages
    subgoal = KINDS[kind]
    stages = [(a, (), ()) for a in (R1, R2, S)]
    stages[at] = (stages[at][0], (subgoal,), ())
    return [subgoal], stages


KINDS = {
    "var < var": comparison("$1", "<", "$2"),
    "var vs constant": comparison("$2", ">=", 2),
    "constant-only true": comparison(1, "<", 2),
    "constant-only false": comparison(2, "<", 1),
    "bound NOT": negated("bad", "B"),
    "ground NOT, empty": negated("g", 8),
    "ground NOT, non-empty": negated("g", 7),
}
ALL_KINDS = list(KINDS) + ["scan filter", "semi-join tail"]


def build_step(db, kind, where):
    """A lowered support step whose branch is replaced by the hand-laid
    stages of ``layout`` (same subgoals, chosen order and placement)."""
    extra, stages = layout(kind, where, db)
    flock = QueryFlock(
        rule("answer", ["B"], [R1, R2, S] + extra),
        parse_filter("COUNT(answer.B) >= 2"),
    )
    step = lower_filter_step(db, flock, single_step_plan(flock).final_step)
    built, prev = [], ()
    for position, (scan_atom, attached, scan_filters) in enumerate(stages):
        cols = scan_columns(scan_atom)
        out = prev + tuple(c for c in cols if c not in prev)
        join = None if position == 0 else HashJoin(
            tuple(c for c in prev if c in cols), out, 1.0
        )
        filters = tuple(
            AntiJoin(s, out) if hasattr(s, "predicate") else CompareFilter(s, out)
            for s in attached
        )
        built.append(JoinStage(
            Scan(scan_atom, cols, len(db.get(scan_atom.predicate))), join,
            filters, f"join:{scan_atom.predicate}:{position}",
            scan_filters=scan_filters,
        ))
        prev = out
    branch = replace(step.branches[0], stages=tuple(built))
    return replace(step, branches=(branch,))


def value(term, binding):
    return term.value if isinstance(term, Constant) else binding[str(term)]


def reference_stages(db, stages):
    """Each stage's distinct bindings over decoded rows, in order."""
    bindings = [{}]
    per_stage = []
    for stage in stages:
        grown = []
        for b in bindings:
            for row in db.get(stage.scan.atom.predicate).tuples:
                new = dict(b)
                if all(new.setdefault(str(t), v) == v if not isinstance(t, Constant)
                       else t.value == v
                       for t, v in zip(stage.scan.atom.terms, row)):
                    grown.append(new)
        for sf in stage.scan_filters:
            keys = {row[0] for row in db.get(sf.source).tuples}
            grown = [b for b in grown if b[sf.column] in keys]
        for op in stage.filters:
            if isinstance(op, CompareFilter):
                c = op.comparison
                fn = OPS[c.op.value]
                grown = [b for b in grown
                         if fn(value(c.left, b), value(c.right, b))]
            else:
                neg = db.get(op.atom.predicate).tuples
                grown = [b for b in grown
                         if tuple(value(t, b) for t in op.atom.terms) not in neg]
        distinct = {frozenset(b.items()) for b in grown}
        bindings = [dict(b) for b in distinct]
        per_stage.append(bindings)
    return per_stage


@pytest.fixture
def counted(monkeypatch):
    """Per ``_run_branch`` call: the last stage whose body ran, and the
    trailing stages it applied as masks instead (the semi-join tail)."""
    calls, bodies = [], []
    real_branch = MemoryEngine._run_branch
    real_pairs = MemoryEngine._stage_pairs

    def body(self, current, stage, *args):
        bodies.append(stage)
        return real_pairs(self, current, stage, *args)

    def branch_spy(self, branch, *args):
        outcome = real_branch(self, branch, *args)
        last = bodies[-1]
        tail = branch.stages[branch.stages.index(last) + 1:]
        calls.append((last, tuple(tail)))
        return outcome

    monkeypatch.setattr(MemoryEngine, "_stage_pairs", body)
    monkeypatch.setattr(MemoryEngine, "_run_branch", branch_spy)
    return calls


@pytest.mark.parametrize("where", ["materialised", "counted"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stage_body_per_filter_kind_and_position(db, counted, kind, where):
    step = build_step(db, kind, where)
    (branch,) = step.branches
    engine = MemoryEngine(db)
    outcome = engine.run_step(step)

    # The filter sits where the parameters say: on the last stage (or
    # its semi-join tail), or on a stage gathered before it.
    (stage, tail), = counted
    filtered = [s for s in branch.stages if s.filters or s.scan_filters]
    if kind == "semi-join tail":
        assert (tail == (branch.stages[-1],)) is (where == "counted")
    else:
        assert (filtered == [stage]) is (where == "counted")
        assert filtered[0] in branch.stages[1:]

    per_stage = reference_stages(db, branch.stages)
    assert [o.actual for o in engine.stage_log] == [len(b) for b in per_stage]
    answer = Relation(
        "answer", branch.root.columns,
        {tuple(value(t, b) for t in branch.root.output_terms)
         for b in per_stage[-1]},
    )
    assert outcome.result == survivors(answer, step)[0]


class TestMemberMask:
    @pytest.fixture
    def pairs(self):
        db = database_from_dict({
            "p": (("A", "B"), {(1, "x"), (2, "y"), (3, "x")}),
            "none": (("A", "B"), set()),
        })
        return db, db.encoded("p"), db.encoded("none")

    def test_multi_column_keys(self, pairs):
        db, rel, _ = pairs
        probe = [(1, "x"), (1, "y"), (3, "x"), (2, "x"), (2, "y")]
        code = db.dictionary.intern
        columns = [[code(a) for a, _ in probe], [code(b) for _, b in probe]]
        mask = list(member_mask(rel, ("A", "B"), columns))
        assert mask == [row in rel.tuples for row in probe]

    def test_key_order_follows_probe_columns(self, pairs):
        db, rel, _ = pairs
        code = db.dictionary.intern
        mask = member_mask(rel, ("B", "A"), [[code("x")], [code(3)]])
        assert list(mask) == [True]

    def test_no_keys_matches_iff_nonempty(self, pairs):
        _, rel, empty = pairs
        assert list(islice(member_mask(rel, (), []), 3)) == [True] * 3
        assert list(islice(member_mask(empty, (), []), 3)) == [False] * 3

    def test_empty_relation_matches_nothing(self, pairs):
        db, _, empty = pairs
        code = db.dictionary.intern
        mask = member_mask(empty, ("A",), [[code(1), code(2)]])
        assert list(mask) == [False, False]
