"""Compare two sets of runs::

    python3 benchmarks/e2e/compare.py results/A.json results/B.json

``A`` is the base (the parent commit, or the first of two sets of the
same commit), ``B`` the candidate.  Both are files ``run.py --label``
wrote.  For every workload and end-to-end metric it prints both medians,
the quartiles across each set's runs, the ratio B/A with its base, and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` — either set's own spread (q3 - q1, over its median) is
  wider than the bound, so the sets cannot show a change of that size;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better than A's by more than the spread
  of *each* set (a hint only: a gain is claimed by the paired rule of
  the README, never from this table);
* ``within``     — anything else.

A ``failed_share`` row per workload sums failed and attempted ops over
each set's runs; its bound is "any increase", so B failing a larger
share than A is ``regressed``.

Exits 1 if any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values of the untraced runs in one file,
    plus the runs' ``failed`` and ``attempted`` op counts."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if "spans" in run:
            continue
        values = out.setdefault(run["workload"], {})
        for metric, value in run["metrics"].items():
            values.setdefault(metric, []).append(value)
        for count in ("failed", "attempted"):
            values.setdefault(count, []).append(run[count])
    return out


def verdict(a: tuple, b: tuple, better: str, bound: float) -> str:
    spread_a = (a[2] - a[0]) / a[1]
    spread_b = (b[2] - b[0]) / b[1]
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    worse_by = (b[1] - a[1]) / a[1] * (1 if better == "lower" else -1)
    if worse_by > bound:
        return "regressed"
    if -worse_by > max(spread_a, spread_b):
        return "improved"
    return "within"


def failed_share(values: dict[str, list[float]]) -> float:
    return sum(values["failed"]) / sum(values["attempted"])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    base, candidate = by_workload(argv[0]), by_workload(argv[1])
    bad = 0
    print(f"{'workload':14s} {'metric':12s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s}  {'B/A':>6s}  verdict (bound)")
    for workload in contract["workloads"]:
        name = workload["name"]
        for metric in contract["end_to_end"]:
            a = quartiles(base[name][metric["name"]])
            b = quartiles(candidate[name][metric["name"]])
            result = verdict(a, b, metric["better"], metric["bound"])
            bad += result in ("regressed", "unresolved")
            cells = [
                f"{q[1]:11.4f} [{q[0]:9.4f}, {q[2]:9.4f}]" for q in (a, b)
            ]
            print(
                f"{name:14s} {metric['name']:12s} {cells[0]:>34s} "
                f"{cells[1]:>34s}  {b[1] / a[1]:6.3f}  {result} "
                f"(of {a[1]:.4f} {metric['unit']}; {metric['better']} is "
                f"better, bound {metric['bound']:.0%})"
            )
        shares = [failed_share(base[name]), failed_share(candidate[name])]
        result = "regressed" if shares[1] > shares[0] else "within"
        bad += result == "regressed"
        cells = [
            f"{share:.6f} ({sum(s['failed'])}/{sum(s['attempted'])} ops)"
            for share, s in zip(shares, (base[name], candidate[name]))
        ]
        print(
            f"{name:14s} {'failed_share':12s} {cells[0]:>34s} "
            f"{cells[1]:>34s}  {'':6s}  {result} (lower is better, "
            "bound: any increase)"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
