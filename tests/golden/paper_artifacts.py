"""Golden output of the paper's artifacts, as this library renders them.

Pins, byte for byte:

* Fig. 1's SQL (``flock_to_sql`` of the ordered Fig. 2 flock) and the
  Fig. 5 rewrite script (``plan_to_sql`` of the Fig. 5 plan);
* the textual ``render`` of the Fig. 5 plan and of the Fig. 7 plan for
  the Fig. 6 path flock (``n = 3``);
* Fig. 9: the dynamic evaluator's decision log and executed step list
  on the medical catalog;
* ``repro explain`` for every ``examples/flocks/*.flock`` — without
  data (the Ex. 3.2 / 3.3 subquery lists) and, where a test catalog
  holds its relations, with data (the lowered join order);
* ``mine()`` on the Fig. 2, 3, 4 and 10 flocks over the test catalogs,
  once per strategy (naive, optimized, and dynamic where it is sound):
  the survivor count, the sorted survivors and the plan text.

``tests/golden/test_paper_artifacts.py`` compares a fresh run against
``paper_artifacts.json``.  Regenerate it (``make golden``) only for a
change that is *meant* to alter one of these artifacts::

    PYTHONPATH=src python -m tests.golden.paper_artifacts
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.flocks.dynamic import evaluate_flock_dynamic
from repro.flocks.mining import mine
from repro.flocks.paper import (
    fig2_flock,
    fig3_flock,
    fig4_flock,
    fig5_plan,
    fig6_flock,
    fig7_plan,
    fig10_flock,
)
from repro.flocks.sql import flock_to_sql, plan_to_sql
from repro.relational.io import save_database

from tests.conftest import basket_db, medical_db, web_db
from tests.golden.step_survivors import weighted_db

GOLDEN = Path(__file__).with_name("paper_artifacts.json")
FLOCK_DIR = Path(__file__).resolve().parents[2] / "examples" / "flocks"

#: Example flock file -> the test catalog holding its relations.
EXPLAIN_CATALOGS = {
    "basket.flock": basket_db,
    "medical.flock": medical_db,
    "web.flock": web_db,
    "weighted.flock": weighted_db,
}

#: (figure, flock, catalog, strategies) — dynamic only where it is sound
#: (a monotone filter over a single rule).
MINED = [
    ("fig2", lambda: fig2_flock(2), basket_db,
     ("naive", "optimized", "dynamic")),
    ("fig3", lambda: fig3_flock(2), medical_db,
     ("naive", "optimized", "dynamic")),
    ("fig4", lambda: fig4_flock(2), web_db, ("naive", "optimized")),
    ("fig10", lambda: fig10_flock(45), weighted_db,
     ("naive", "optimized", "dynamic")),
]


def explain_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["explain", *argv])
    assert code == 0, f"repro explain {argv} exited {code}"
    return out.getvalue()


def explain_records() -> dict:
    records = {}
    for path in sorted(FLOCK_DIR.glob("*.flock")):
        records[f"explain/{path.name}"] = explain_stdout(str(path))
        catalog = EXPLAIN_CATALOGS.get(path.name)
        if catalog is not None:
            with tempfile.TemporaryDirectory() as data:
                save_database(catalog(), data)
                records[f"explain/{path.name}/data"] = explain_stdout(
                    str(path), data
                )
    return records


def mined_record(db, flock, strategy: str) -> dict:
    relation, report = mine(db, flock, strategy=strategy, parallelism=1)
    rows = sorted(relation.tuples, key=repr)
    return {
        "survivors": len(rows),
        "rows": [list(row) for row in rows],
        "plan_text": report.plan_text,
    }


def build() -> dict:
    """Every golden record, keyed by artifact."""
    result, trace = evaluate_flock_dynamic(medical_db(), fig3_flock(2))
    records: dict = {
        "fig1/sql": flock_to_sql(fig2_flock(ordered=True)),
        "fig5/sql": plan_to_sql(fig3_flock(), fig5_plan()),
        "fig5/render": fig5_plan().render(fig3_flock()),
        "fig7/render": fig7_plan(fig6_flock(3)).render(fig6_flock(3)),
        "fig9/decisions": str(trace),
        "fig9/plan": trace.render_plan(),
        "fig9/survivors": sorted(map(list, result.relation.tuples), key=repr),
    }
    records.update(explain_records())
    for figure, flock, catalog, strategies in MINED:
        for strategy in strategies:
            records[f"{figure}/{strategy}"] = mined_record(
                catalog(), flock(), strategy
            )
    return records


def render(records: dict) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def main() -> None:
    GOLDEN.write_text(render(build()))
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
