"""An independent survivor oracle for FILTER-step tests.

Evaluates a lowered step's GROUP BY + HAVING over the decoded rows of
its answer relation — per-group sets of distinct member rows, each
conjunct's aggregate folded in plain Python, ``FilterCondition.passes``
per value — sharing no code with the engine's aggregation kernel.
"""

from __future__ import annotations

from collections import defaultdict

from repro.relational import Relation

FOLDS = {"SUM": sum, "MIN": min, "MAX": max}


def survivors(answer: Relation, step) -> tuple[Relation, Relation]:
    """(the step's survivor relation, the same with one ``_agg{i}``
    value per conjunct) for ``answer``, the step's unioned answer."""
    position = {c: i for i, c in enumerate(answer.columns)}
    group = [position[c] for c in step.group.group_by]
    members: dict[tuple, set] = defaultdict(set)
    for row in answer.tuples:
        members[tuple(row[i] for i in group)].add(row)
    if not group:
        members.setdefault((), set())  # a scalar aggregate of no rows
    spec = {s.column: s for s in step.group.aggregates}
    passed = set()
    for key, rows in members.items():
        values = []
        for condition, column in step.threshold.conditions:
            target = [position[c] for c in spec[column].target]
            fn = spec[column].fn.name
            if fn == "COUNT":
                value = len({tuple(r[i] for i in target) for r in rows})
            elif rows:
                value = FOLDS[fn](r[target[0]] for r in rows)
            else:
                break  # SUM/MIN/MAX of no rows is NULL: never passes
            if not condition.passes(value):
                break
            values.append(value)
        else:
            passed.add(key + tuple(values))
    labels = tuple(step.root.columns)
    aggs = tuple(column for _, column in step.threshold.conditions)
    keys = {row[: len(labels)] for row in passed}
    return (
        Relation(step.root.name, labels, keys),
        Relation(step.root.name, labels + aggs, passed),
    )
