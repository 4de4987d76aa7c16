"""The two in-memory plan strategies over the one join order.

The paper defers join ordering to "the general theory of cost-based
optimization ([G*79])" and says its filtering idea "is independent of
how the join order is actually chosen" (Section 4.4).  Every lowered
plan takes the pessimistic UES order — stages ranked by *guaranteed*
output upper bounds (exact distinct counts × max per-value
frequencies), never by independence estimates — with runtime semi-join
filters from every materialized pre-filter step into later scans.  This
bench times that order under the ``optimized`` (static plan search) and
``dynamic`` (Section 4.4 decisions mid-run) strategies.

Workloads: the two Section 1.3 paper workloads (Zipf word occurrences
and market baskets), plus the **adversarial-skew clickstream**
(:mod:`repro.workloads.skew`) built to fool estimates: bot accounts hot
in two relations at once make an estimate-minimal order join hot⋈hot
early and blow up, while the UES bound carries the bots' max frequency
and provably defers that join.

Each strategy cell is the median and quartiles of ``REPEATS`` runs,
interleaved across a workload's cells (alternating direction) so drift
hits all alike; every cell must return identical survivors, and the
runtime filters must prune scan rows on the skew workload.  Output: a
JSON report at ``$REPRO_BENCH_JSON_OPTIMIZER`` (default
``BENCH_optimizer.json``) with one row per cell, the machine's
``cpu_count`` and the 1-minute load average before and after the
workload.
"""

import gc
import json
import os
import statistics
import time

import pytest

from repro.flocks import parse_flock
from repro.flocks.mining import mine
from repro.workloads import generate_skewed_clickstream

from conftest import SCALE, report, scaled

JSON_PATH = os.environ.get(
    "REPRO_BENCH_JSON_OPTIMIZER", "BENCH_optimizer.json"
)

#: Strategy cells swept per workload.
CELLS = ("optimized", "dynamic")

#: Timed end-to-end mine() calls per cell (each call re-plans, so plan
#: search is included in every sample), after one untimed warm-up.
REPEATS = 7


@pytest.fixture(scope="module")
def skew_db():
    return generate_skewed_clickstream(
        n_users=scaled(8000),
        n_bots=scaled(24, minimum=4),
        n_promo_users=scaled(600, minimum=40),
        n_pages=scaled(600, minimum=60),
        n_videos=scaled(500, minimum=50),
        n_items=scaled(300, minimum=30),
        bot_activity=scaled(120, minimum=30),
        seed=407,
    )


@pytest.fixture(scope="module")
def skew_flock():
    return parse_flock(
        """
        QUERY:
        answer(U) :- promo(U,G) AND clicks(U,$1) AND views(U,V)
                     AND purchases(U,$2)
        FILTER:
        COUNT(answer.U) >= 3
        """
    )


def _load_1min() -> float:
    return round(os.getloadavg()[0], 2)


def _sweep(db, flock, workload: str) -> list:
    """One row per strategy cell: median and quartile wall ms over
    REPEATS interleaved runs, plus the survivor count — which must agree
    across every cell."""
    load_before = _load_1min()
    samples = {cell: [] for cell in CELLS}
    last = {}
    for cell in CELLS:  # warm-up: caches, lazy statistics, imports
        mine(db, flock, strategy=cell, parallelism=1)
    for repeat in range(REPEATS):
        for cell in CELLS[::-1] if repeat % 2 else CELLS:
            gc.collect()
            started = time.perf_counter()
            relation, rpt = mine(
                db, flock, strategy=cell, backend="memory", parallelism=1,
            )
            samples[cell].append((time.perf_counter() - started) * 1e3)
            last[cell] = (sorted(relation.tuples, key=repr), rpt)
    load_after = _load_1min()
    baseline = last[CELLS[0]][0]
    rows = []
    for cell in CELLS:
        survivors, rpt = last[cell]
        assert survivors == baseline, (
            f"{workload}: {cell} survivors differ from {CELLS[0]}"
        )
        q1, median, q3 = statistics.quantiles(samples[cell], n=4)
        rows.append({
            "workload": workload,
            "strategy": cell,
            "median_ms": round(median, 2),
            "q1_ms": round(q1, 2),
            "q3_ms": round(q3, 2),
            "samples_ms": [round(ms, 2) for ms in samples[cell]],
            "survivors": len(survivors),
            "rows_pruned": rpt.runtime_filter_rows_pruned,
            "load_1min_before": load_before,
            "load_1min_after": load_after,
        })
    return rows


def _cell(rows: list, workload: str, strategy: str) -> dict:
    return next(
        r for r in rows
        if r["workload"] == workload and r["strategy"] == strategy
    )


def _write_json(rows: list) -> None:
    payload = {
        "scale": SCALE,
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "join_order": "ues",
        "strategies": list(CELLS),
        "rows": rows,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_optimizer_modes(
    benchmark, word_db, basket_db, basket_flock_20, skew_db, skew_flock
):
    """Strategy sweep over three workloads, JSON out."""
    collected = {}

    def run():
        rows = []
        rows += _sweep(skew_db, skew_flock, "adversarial-skew")
        rows += _sweep(word_db, basket_flock_20, "words-sec1.3")
        rows += _sweep(basket_db, basket_flock_20, "baskets-sec1.3")
        collected["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = collected["rows"]
    _write_json(rows)

    skew_rf = _cell(rows, "adversarial-skew", "optimized")
    report(
        "optimizer-modes",
        "one bound-driven order under both plan strategies",
        " | ".join(
            f"{r['workload']} {r['strategy']} {r['median_ms']:.1f} ms"
            for r in rows
        )
        + f" | {skew_rf['rows_pruned']} scan rows pruned on skew",
    )

    # Runtime filters must actually fire on the skew workload (its page
    # and item long tails are built to be mostly prunable).
    assert skew_rf["rows_pruned"] > 0
