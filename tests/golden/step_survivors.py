"""Golden output of the in-memory FILTER step.

Every case lowers a flock's single FILTER step and runs it through
``MemoryEngine.run_step``, with and without the aggregate columns, and
records what the step produced:

* the survivor relation's rows in column-array order (the canonical
  order serial, parallel and SQLite runs must agree on);
* ``passed`` — the survivors with their ``_agg{i}`` values — as a
  sorted row set;
* ``answer_tuples`` and each join stage's actual output rows.

Three cases also record ``mine(strategy="dynamic")``'s decision log and
result, so the in-flight FILTERs are pinned too: the pair flock's two
leaf FILTERs, and the skewed clickstream's FILTERs at the interior
nodes ``temp0`` and ``temp1``.

``tests/golden/test_step_survivors.py`` compares a fresh run against
``step_survivors.json``.  Regenerate the file (``make golden``) only
for a change that is *meant* to alter step output::

    PYTHONPATH=src python -m tests.golden.step_survivors
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.memory import MemoryEngine
from repro.flocks import parse_flock, single_step_plan
from repro.flocks.executor import lower_filter_step
from repro.flocks.mining import mine
from repro.relational import Relation, database_from_dict
from repro.workloads import generate_skewed_clickstream

from tests.conftest import basket_db, medical_db, web_db

GOLDEN = Path(__file__).with_name("step_survivors.json")


def weighted_db():
    """Fig. 10's weighted baskets: ``baskets(B, Item)`` plus one
    ``importance(B, W)`` weight per basket (two baskets share weight 15,
    so SUM must count distinct member tuples, not distinct weights)."""
    items = {
        1: ["beer", "diapers", "chips"],
        2: ["beer", "diapers"],
        3: ["beer", "diapers", "soap"],
        4: ["beer", "chips"],
        5: ["chips", "soap"],
        6: ["beer", "diapers", "soap"],
    }
    weights = {1: 30, 2: 15, 3: 40, 4: 10, 5: 25, 6: 15}
    return database_from_dict(
        {
            "baskets": (
                ("BID", "Item"),
                [(b, item) for b, names in items.items() for item in names],
            ),
            "importance": (("BID", "W"), sorted(weights.items())),
        }
    )


def skew_db():
    """The adversarial-skew clickstream of ``bench_optimizer_modes.py``
    at a quarter of its size: bots hot in ``clicks`` and ``views``, long
    page and item tails."""
    return generate_skewed_clickstream(
        n_users=2000, n_bots=6, n_promo_users=150, n_pages=150,
        n_videos=125, n_items=75, bot_activity=30, seed=407,
    )


BASKET = "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2"
MEDICAL = (
    "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) "
    "AND NOT causes(D,$s)"
)
#: The medical rule with the diagnosis in the head: ``COUNT(answer.P)``
#: then covers less than the whole answer tuple beyond the group key.
MEDICAL_WIDE = MEDICAL.replace("answer(P)", "answer(P,D)")
WEB = "\n".join([
    "answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2",
    "answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) "
    "AND $1 < $2",
    "answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) "
    "AND $1 < $2",
])
WEIGHTED = (
    "answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND importance(B,W) "
    "AND $1 < $2"
)
#: ``I`` is existential with one witness per other item in the basket:
#: SUM must add each (B, W) answer row once, not once per witness.
WEIGHTED_OTHER_ITEM = (
    "answer(B,W) :- baskets(B,$1) AND baskets(B,I) AND importance(B,W) "
    "AND $1 != I"
)
#: The second branch's answer is a subset of the first's: the union
#: must count each shared row once.
BASKET_OVERLAP = "\n".join([
    BASKET,
    "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND importance(B,W) "
    "AND W >= 30 AND $1 < $2",
])
SKEW = (
    "answer(U) :- promo(U,G) AND clicks(U,$1) AND views(U,V) "
    "AND purchases(U,$2)"
)

#: (case name, catalog, rules, filter)
CASES = [
    ("basket_count_ge", basket_db, BASKET, "COUNT(answer.B) >= 2"),
    ("basket_count_gt_float", basket_db, BASKET, "COUNT(answer.B) > 1.5"),
    # Non-monotone filters: only the naive single-step plan may run
    # them.  A flock rejects COUNT <= t outright (the empty answer would
    # pass), so the upper bound sits on SUM.
    ("basket_count_eq_naive", basket_db, BASKET, "COUNT(answer.B) = 2"),
    ("weighted_sum_le_naive", weighted_db, WEIGHTED,
     "COUNT(answer.B) >= 2 AND SUM(answer.W) <= 60"),
    ("medical_count_ge", medical_db, MEDICAL, "COUNT(answer.P) >= 2"),
    ("medical_narrow_target", medical_db, MEDICAL_WIDE, "COUNT(answer.P) >= 2"),
    ("web_union_count_star", web_db, WEB, "COUNT(answer(*)) >= 2"),
    # Every pair survives: the longest survivor arrays, so their order
    # is the canonical sort's, not the grouping's.
    ("weighted_count_ge", weighted_db, WEIGHTED, "COUNT(answer(*)) >= 1"),
    ("weighted_sum_ge", weighted_db, WEIGHTED, "SUM(answer.W) >= 45"),
    ("weighted_min_le", weighted_db, WEIGHTED, "MIN(answer.W) <= 15"),
    ("weighted_max_ge", weighted_db, WEIGHTED, "MAX(answer.W) >= 30"),
    ("weighted_count_and_sum", weighted_db, WEIGHTED,
     "COUNT(answer.B) >= 2 AND SUM(answer.W) >= 45"),
    # The answer's distinct rows: an existential with several
    # witnesses, overlapping union branches, a constant head term and a
    # repeated head variable.
    ("weighted_sum_existential", weighted_db, WEIGHTED_OTHER_ITEM,
     "SUM(answer.W) >= 90"),
    ("basket_union_overlap", weighted_db, BASKET_OVERLAP,
     "COUNT(answer(*)) >= 3"),
    ("basket_constant_head", weighted_db, BASKET.replace("(B)", "(B,1)", 1),
     "COUNT(answer(*)) >= 2"),
    ("basket_repeated_head", weighted_db, BASKET.replace("(B)", "(B,B)", 1),
     "COUNT(answer(*)) >= 2"),
    ("skew_count_ge", skew_db, SKEW, "COUNT(answer.U) >= 3"),
]

#: Cases also mined with ``strategy="dynamic"`` (single-rule, monotone).
DYNAMIC_CASES = ("basket_count_ge", "weighted_sum_ge", "skew_count_ge")


def flock_of(rules: str, condition: str):
    return parse_flock(f"QUERY:\n{rules}\n\nFILTER:\n{condition}\n")


def array_rows(relation: Relation) -> dict:
    """Columns and rows in column-array order (what canonical output
    promises)."""
    return {
        "columns": list(relation.columns),
        "rows": [list(row) for row in zip(*relation.columns_data())],
    }


def row_set(relation: Relation) -> dict:
    return {
        "columns": list(relation.columns),
        "rows": [list(row) for row in sorted(relation.tuples, key=repr)],
    }


def step_record(db, flock, need_aggregates: bool) -> dict:
    plan = lower_filter_step(db, flock, single_step_plan(flock).final_step)
    engine = MemoryEngine(db)
    outcome = engine.run_step(plan, need_aggregates=need_aggregates)
    return {
        "result": array_rows(outcome.result),
        "passed": None if outcome.passed is None else row_set(outcome.passed),
        "answer_tuples": outcome.answer_tuples,
        "stage_rows": [o.actual for o in engine.stage_log],
    }


def dynamic_record(db, flock) -> dict:
    relation, report = mine(db, flock, strategy="dynamic", parallelism=1)
    return {
        "result": array_rows(relation),
        "decision_text": report.decision_text,
    }


def build() -> dict:
    """Every golden record, keyed by case name."""
    records: dict = {}
    for name, catalog, rules, condition in CASES:
        flock = flock_of(rules, condition)
        for need_aggregates in (False, True):
            # The keys keep the ``encode=1`` segment of the era when the
            # engine also had a value-array path, so records stay stable.
            key = f"{name}/encode=1/aggs={int(need_aggregates)}"
            records[key] = step_record(catalog(), flock, need_aggregates)
        if name in DYNAMIC_CASES:
            records[f"{name}/dynamic"] = dynamic_record(catalog(), flock)
    return records


def render(records: dict) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def main() -> None:
    GOLDEN.write_text(render(build()))
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
