"""Same-session A/B of two revisions on the end-to-end workloads::

    python3 benchmarks/ab.py A B [--workload words_cold] [--pairs 10] [--seconds 25] [--trace]
    make bench-ab A=HEAD~1 B=HEAD [WORKLOAD=words_cold] PAIRS=10 SECONDS=25 [TRACE=1]

Each revision is exported with ``git archive`` into its own temporary
directory, once, so uncommitted changes take no part.  Then, for the
``--workload`` given, or for every ``BENCHMARK.json`` workload in turn
when none is, ``--pairs`` times both trees run ``benchmarks/e2e/run.py
--workload W --trace 0`` in fresh processes, alternating which side goes
first.  Absolute timings drift between sessions on a shared box; only
runs interleaved like this compare two trees.

It prints, per workload and end-to-end metric of ``BENCHMARK.json``:
each side's median and quartiles, B/A, how many pairs B won, and whether
a side's spread (q3 - q1 over the median) is wider than the metric's
bound — a change of that size cannot show there.  Also ``cpu_count``
and the 1-minute load average before and after.  With ``--trace``, the
untraced pairs are followed by one ``--trace 1`` run per side, and each
``BENCHMARK.json`` per-layer metric either side reports is printed with
its A, B and B/A: the layer a change moves, from the same command.
Exits 1 if any run of any workload failed an op or returned a wrong
answer.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())


def export(rev: str, into: Path) -> str:
    """``rev``'s committed tree under ``into``; returns its short hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--short", f"{rev}^{{commit}}"], cwd=REPO,
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    into.mkdir()
    archive = subprocess.run(
        ["git", "archive", sha], cwd=REPO, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def run_once(
    tree: Path, workload: str, args: argparse.Namespace, trace: int = 0
) -> dict:
    """One fresh ``run.py`` process: its result line plus its exit code
    (``metrics`` is ``None`` when the run printed no result)."""
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--trace", str(trace),
         "--seconds", str(args.seconds), "--seed", str(args.seed)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": None}
    result["exit"] = proc.returncode
    if proc.returncode or not result["correct"] or result["failed"]:
        sys.stderr.write(f"run in {tree.name} failed (exit "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}\n")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(
    workload: str, args: argparse.Namespace, trees: dict, shas: dict
) -> bool:
    """``--pairs`` alternating pairs of ``workload`` and their table;
    returns whether every run succeeded."""
    load_before = os.getloadavg()[0]
    runs: dict[str, list[dict]] = {side: [] for side in trees}
    for pair in range(args.pairs):
        for side in ("AB" if pair % 2 == 0 else "BA"):
            runs[side].append(run_once(trees[side], workload, args))
    load_after = os.getloadavg()[0]

    print(f"A = {args.a} ({shas['A']}), B = {args.b} ({shas['B']}); "
          f"workload {workload}; {args.pairs} alternating pair(s) x "
          f"{args.seconds:g} s; cpu_count {os.cpu_count()}; "
          f"1-min load {load_before:.2f} -> {load_after:.2f}")
    bad = [r for side in runs.values() for r in side if failed(r)]
    for side, side_runs in runs.items():
        print(f"{side}: {sum(r['failed'] for r in side_runs)} of "
              f"{sum(r['attempted'] for r in side_runs)} ops failed, "
              f"{sum(not r['correct'] for r in side_runs)} run(s) incorrect")
    if bad:
        print(f"{len(bad)} run(s) failed; no metrics compared")
        return False
    print(f"{'metric':12s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'B/A':>6s}  B wins  spread > bound")
    for metric in CONTRACT["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in side_runs]
                  for side, side_runs in runs.items()}
        stats = {side: quartiles(v) for side, v in values.items()}
        wins = sum((b < a) if lower else (b > a)
                   for a, b in zip(values["A"], values["B"]))
        wide = [side for side, (q1, median, q3) in stats.items()
                if (q3 - q1) / median > metric["bound"]]
        cells = [f"{q[1]:10.4f} [{q[0]:9.4f}, {q[2]:9.4f}]"
                 for q in stats.values()]
        print(f"{name:12s} {cells[0]:>32s} {cells[1]:>32s} "
              f"{stats['B'][1] / stats['A'][1]:6.3f}  {wins:2d}/{args.pairs:<3d} "
              f"{', '.join(wide) or '-'} (bound {metric['bound']:.0%}, "
              f"{metric['unit']}, {metric['better']} is better)")
    return layers(workload, args, trees) if args.trace else True


def failed(run: dict) -> bool:
    return bool(run["exit"] or not run["correct"] or run["failed"]
                or run["metrics"] is None)


def layers(workload: str, args: argparse.Namespace, trees: dict) -> bool:
    """One traced run per side and its per-layer table; returns whether
    both runs succeeded."""
    runs = {side: run_once(tree, workload, args, trace=1)
            for side, tree in trees.items()}
    if any(map(failed, runs.values())):
        print("a traced run failed; no layers compared")
        return False
    print(f"per-layer, one traced run per side:\n{'metric':36s} "
          f"{'A':>12s} {'B':>12s} {'B/A':>6s}")
    for metric in CONTRACT["per_layer"]:
        name = metric["name"]
        a, b = (runs[side]["metrics"].get(name, {}).get("value")
                for side in "AB")
        if a is None and b is None:
            continue
        ratio = f"{b / a:6.3f}" if a and b is not None else "     -"
        cells = [f"{v:12.4f}" if v is not None else f"{'-':>12s}" for v in (a, b)]
        print(f"{name:36s} {cells[0]} {cells[1]} {ratio}  "
              f"({metric['unit']}, {metric['better']} is better)")
    return True


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="base revision")
    parser.add_argument("b", help="candidate revision")
    names = [w["name"] for w in CONTRACT["workloads"]]
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=CONTRACT["run_seconds"])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--trace", action="store_true",
                        help="then one traced run per side: per-layer A, B, B/A")
    args = parser.parse_args(argv)
    # A terminated A/B still removes its exported trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    ok = True
    with tempfile.TemporaryDirectory(prefix="repro-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in "AB"}
        shas = {side: export(rev, trees[side])
                for side, rev in (("A", args.a), ("B", args.b))}
        for number, workload in enumerate([args.workload] if args.workload
                                          else names):
            if number:
                print(flush=True)
            ok = compare(workload, args, trees, shas) and ok
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
