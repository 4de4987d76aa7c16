"""The goldens notice a broken stage body or answer.

Each case seeds one behaviour change into the memory engine's stage
body, the way it reads a step's answer rows, or the dynamic policy's
leaf FILTERs, rebuilds both goldens in-process and requires at least
one record to differ from the committed JSON — so a "same behaviour" refactor that
passes ``tests/golden/`` has really kept these behaviours.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

import pytest

import repro.engine.memory as memory
from repro.engine.ir import AntiJoin
from repro.engine.memory import MemoryEngine
from repro.flocks.dynamic import DynamicEvaluator

from tests.golden import paper_artifacts, step_survivors

REAL_COMPARISON_MASK = memory.comparison_mask
REAL_FILTER_MASK = MemoryEngine._filter_mask
REAL_OBSERVE = MemoryEngine._observe
REAL_ANSWER = MemoryEngine._answer
REAL_DECIDE = DynamicEvaluator._decide
REAL_LEAF = DynamicEvaluator.leaf


def compare_codes(comp, column, rows):
    """Ordered comparisons evaluated on codes instead of values."""
    return REAL_COMPARISON_MASK(
        comp, lambda name, decode=False: column(name), rows
    )


def keep_negated_rows(self, op, column, rows):
    """``NOT`` masks that keep every row."""
    if isinstance(op, AntiJoin):
        return repeat(True, rows)
    return REAL_FILTER_MASK(self, op, column, rows)


def observe_one_more(self, stage, before, actual, *rest):
    """Every stage observation reports ``actual + 1``."""
    return REAL_OBSERVE(self, stage, before, actual + 1, *rest)


def concatenate_branches(self, parts):
    """Each branch's distinct rows, concatenated: no dedup across the
    branches of a union."""
    answers = [REAL_ANSWER(self, [part]) for part in parts]

    def column(name, decode=False):
        return chain.from_iterable(read(name, decode) for read, _ in answers)

    return column, sum(rows for _, rows in answers)


def flip_first_leaf(self, key, ratio):
    """The run's first decision — its first leaf's — inverted."""
    should, reason = REAL_DECIDE(self, key, ratio)
    return should != (not self.last_trace.decisions), reason


def skip_second_leaf(self, engine, branch, position):
    """The second leaf is never offered to the FILTER policy."""
    if position == 1:
        return engine.scan_atom(branch.stages[position].scan.atom)
    return REAL_LEAF(self, engine, branch, position)


MUTATIONS = {
    "comparisons on codes": (memory, "comparison_mask", compare_codes),
    "NOT keeps every row": (MemoryEngine, "_filter_mask", keep_negated_rows),
    "observed actual + 1": (MemoryEngine, "_observe", observe_one_more),
    "no dedup for a non-covering branch": (
        memory, "_covers", lambda pairs, root: True
    ),
    "no dedup across union branches": (
        MemoryEngine, "_answer", concatenate_branches
    ),
    "first leaf decision flipped": (
        DynamicEvaluator, "_decide", flip_first_leaf
    ),
    "second leaf not FILTERed": (
        DynamicEvaluator, "leaf", skip_second_leaf
    ),
}


def changed_records() -> list[str]:
    changed = []
    for golden in (step_survivors, paper_artifacts):
        expected = json.loads(golden.GOLDEN.read_text())
        actual = json.loads(golden.render(golden.build()))
        changed += [
            f"{golden.GOLDEN.name}:{key}"
            for key in sorted(expected)
            if actual.get(key) != expected[key]
        ]
    return changed


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_goldens_catch_a_seeded_mutation(monkeypatch, mutation):
    owner, name, mutant = MUTATIONS[mutation]
    monkeypatch.setattr(owner, name, mutant)
    assert changed_records()
