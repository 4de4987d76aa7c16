"""The end-to-end + per-layer benchmark.  One command::

    python3 benchmarks/e2e/run.py                       # all four workloads, both passes
    python3 benchmarks/e2e/run.py --label aa_1 --repeats 5
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --workload words_cold --trace 0 --seed 7 --seconds 25

With ``--workload`` it makes one run and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

sys.path.insert(0, str(REPO / "src"))

from layers import (  # noqa: E402
    LAYER_METRICS,
    NoTracer,
    Tracer,
    pipeline_probe,
    serve_layers,
    session_layers,
)
from workloads import ENGINE_ENV, WORKLOADS, Workload  # noqa: E402

CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
RESULTS = HERE / "results"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Share of ``--seconds`` the traced pass spends replaying the op.
REPLAY_SHARE = 0.4

#: ``--smoke``: session_churn's counts after its warm-up and 100 ops at
#: seed 101 — the program's cache must repeat them exactly.
SMOKE_SEED = 101
SMOKE_OPS = 100
SMOKE_CHURN_COUNTS = {
    "cache_hits": 92, "cache_misses": 14,
    "cache_evicted": 6, "cache_invalidated": 4, "cache_entries": 8,
}


@dataclass
class Sample:
    ms: float
    ok: bool
    hit: bool | None


def drive(
    workload: Workload, client: int, deadline: float, max_ops: float,
    tracer: Tracer, samples: list[Sample], errors: list[str],
) -> None:
    """One closed-loop client: next op only after the previous returned.
    Only ``execute`` is timed; fetching the op and checking the answer
    are the harness's."""
    script = workload.scripts[client]
    while len(samples) < max_ops and time.perf_counter() < deadline:
        op = next(script)
        tracer.op_id += 1
        hit = None
        started = time.perf_counter()
        try:
            with tracer.span("op"):
                payload, hit = workload.execute(client, op)
            elapsed = time.perf_counter() - started
            ok = workload.check(op, payload)
        except Exception:
            # An op that raises or is refused is a failed op, not the
            # end of the run; keep the first tracebacks for the report.
            elapsed = time.perf_counter() - started
            ok = False
            if len(errors) < 3:
                errors.append(traceback.format_exc())
        samples.append(Sample(elapsed * 1e3, ok, hit))


def run_clients(
    workload: Workload, seconds: float, max_ops: float, tracers: list[Tracer]
) -> tuple[list[list[Sample]], list[str]]:
    """The measured phase: every client of the workload, concurrently."""
    deadline = time.perf_counter() + seconds
    per_client: list[list[Sample]] = [[] for _ in range(workload.clients)]
    errors: list[str] = []
    if workload.clients == 1:
        drive(workload, 0, deadline, max_ops, tracers[0], per_client[0], errors)
        return per_client, errors
    threads = [
        threading.Thread(
            target=drive,
            args=(workload, c, deadline, max_ops, tracers[c], per_client[c], errors),
            daemon=True,  # a run that is told to stop does not wait for them
        )
        for c in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return per_client, errors


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def measure(workload: Workload, seconds: float, max_ops: float, setups: int) -> dict:
    """The untraced pass: end-to-end metrics of one run, each latency
    and throughput figure taken over every timed op of the run."""
    setup_seconds = [workload.setup() for _ in range(setups)]
    per_client, errors = run_clients(
        workload, seconds, max_ops, [NoTracer()] * workload.clients
    )
    samples = [s for client in per_client for s in client]
    latencies = sorted(s.ms for s in samples)
    attempted = len(samples) + setups * workload.warmup_ops * workload.clients
    failed = sum(not s.ok for s in samples) + workload.warmup_failures
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "errors": errors,
        "timed_ops": len(samples),
        "metrics": {
            "op_ms_p50": percentile(latencies, 0.50),
            "op_ms_p95": percentile(latencies, 0.95),
            # Per client, correct ops over the time spent inside ops:
            # harness work between ops (the next op's reference answer,
            # checking this one's) is not the program's.
            "ops_per_s": sum(
                sum(s.ok for s in client) / (sum(s.ms for s in client) / 1e3)
                for client in per_client
            ),
            "peak_rss_mb": workload.rss_mb(),
            "setup_s": statistics.median(setup_seconds),
        },
        "counts": workload.counts(),
        "modes": modes(samples),
    }


def modes(samples: list[Sample]) -> dict[str, dict[str, float]]:
    """Latency of the asks the program served from its cache and of the
    ones it evaluated — where p50 and p95 are expected to sit."""
    out = {}
    for label, hit in (("hit", True), ("miss", False)):
        ordered = sorted(s.ms for s in samples if s.hit is hit)
        if ordered:
            out[label] = {
                "ops": len(ordered),
                "p05_ms": percentile(ordered, 0.05),
                "p50_ms": percentile(ordered, 0.50),
                "p95_ms": percentile(ordered, 0.95),
            }
    return out


def trace(workload: Workload, seconds: float, spans_path: Path | None) -> dict:
    """The traced pass: per-layer metrics of one run."""
    tracer = Tracer()
    metrics = pipeline_probe(workload, seconds * REPLAY_SHARE, tracer)
    workload.setup()
    tracers = [tracer] + [Tracer() for _ in range(workload.clients - 1)]
    per_client, errors = run_clients(
        workload, math.inf, workload.traced_ops, tracers
    )
    metrics.update(session_layers(workload))
    metrics.update(serve_layers(workload))
    samples = [s for client in per_client for s in client]
    if spans_path is not None:
        for index, client_tracer in enumerate(tracers):
            client_tracer.write(
                Path(f"{spans_path}.client{index}.spans.jsonl")
            )
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples) + workload.warmup_failures,
        "errors": errors,
        "spans": sum(len(t.spans) for t in tracers),
        "metrics": {name: float(metrics[name]) for name in LAYER_METRICS},
        "off_path": [
            name for name, (_, measured_on) in LAYER_METRICS.items()
            if workload.name not in measured_on
        ],
    }


def environment(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "setups": SETUPS,
        "warmup_ops": {n: w.warmup_ops for n, w in WORKLOADS.items()},
        "traced_ops": {n: w.traced_ops for n, w in WORKLOADS.items()},
        "pythonhashseed": os.environ["PYTHONHASHSEED"],
    }


UNITS = {name: m["unit"] for name, m in END_TO_END.items()} | {
    name: unit for name, (unit, _) in LAYER_METRICS.items()
}


def show(result: dict) -> None:
    label = "traced" if "spans" in result else "untraced"
    print(f"== {result['workload']} seed={result['seed']} ({label}): "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    if "timed_ops" in result:
        beyond = result["timed_ops"] - math.ceil(0.95 * result["timed_ops"])
        print(f"   {result['timed_ops']} timed ops ({beyond} beyond p95), "
              f"failed_share {result['failed_share']:.4f}")
    off_path = result.get("off_path", [])
    for name, value in result["metrics"].items():
        if name not in off_path:
            print(f"   {name:38s} {value:14.4f} {UNITS[name]}")
    if off_path:
        print("   layers this workload's ops do not pass through, probed "
              "on its data:")
    for name in off_path:
        print(f"   {name:38s} {result['metrics'][name]:14.4f} {UNITS[name]}")
    for name, value in result.get("counts", {}).items():
        print(f"   {name:38s} {value:14.0f} count")
    for error in result["errors"]:
        print(error, file=sys.stderr)


def children() -> list[tuple[int, str]]:
    """``(pid, name)`` of every process whose parent is this one."""
    found = []
    me = str(os.getpid())
    for status in Path("/proc").glob("[0-9]*/status"):
        try:
            fields = dict(
                line.split(":\t", 1) for line in status.read_text().splitlines()
                if ":\t" in line
            )
        except OSError:
            continue  # the process ended while we looked
        if fields.get("PPid", "").strip() == me:
            found.append((int(status.parent.name), fields.get("Name", "").strip()))
    return found


def stop_children() -> None:
    """Stop every process this one still has, and wait for each to end.

    ``multiprocessing`` starts a resource-tracker process with the first
    shared-memory segment or process pool (the traced pass makes both)
    and lets it outlive its parent: it ends only once it sees the parent
    gone.  Close its pipe and wait for it here instead.  Anything else
    still running is a bug of the harness: kill it, and say so.
    """
    resource_tracker._resource_tracker._stop()
    for pid, name in children():
        print(f"warning: process {pid} ({name}) was still running; killed",
              file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass  # it ended, or was waited for, in between


def one_run(args: argparse.Namespace) -> int:
    """``--workload NAME --trace 0|1``: one run in this process.  Its
    last line of output is the JSON object the benchmark contract asks
    for."""
    tmp = HERE / ".tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        try:
            if args.trace:
                spans = args.result_file.with_suffix("") if args.result_file else None
                result = trace(workload, args.seconds, spans)
            elif args.smoke:
                result = measure(workload, args.seconds, SMOKE_OPS, setups=1)
            else:
                result = measure(workload, args.seconds, math.inf, SETUPS)
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(tmp)
        stop_children()
    show(result)
    if args.result_file:
        args.result_file.write_text(json.dumps(result))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 1 if result["failed"] else 0


def child_run(args: argparse.Namespace, name: str, traced: int, out: Path) -> dict | None:
    """One run in a process of its own — a workload's peak RSS must not
    include its predecessors' — with its report printed when it ends."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(traced), "--result-file", str(out),
    ] + (["--smoke"] if args.smoke else [])
    child = subprocess.run(command, capture_output=True, text=True, env=ENGINE_ENV)
    sys.stdout.write("".join(child.stdout.splitlines(keepends=True)[:-1]))
    sys.stderr.write(child.stderr)
    return json.loads(out.read_text()) if out.exists() else None


def leaks(tmp: Path, shm_before: set[str]) -> list[str]:
    """What finished runs must not leave behind."""
    found = [f"child process {pid} {name}" for pid, name in children()]
    found += [f"/dev/shm/{n}" for n in set(os.listdir("/dev/shm")) - shm_before]
    found += [f"temp directory {path}" for path in tmp.parent.glob("*")]
    return found


def smoke_checks(results: dict[tuple[str, int], dict]) -> list[str]:
    """What ``--smoke`` asserts beyond "nothing failed"."""
    problems = []
    for (name, traced), result in results.items():
        for metric in LAYER_METRICS if traced else END_TO_END:
            value = result["metrics"].get(metric)
            if value is None or not math.isfinite(value):
                problems.append(f"{name}: metric {metric} missing or not finite")
            elif (
                traced and metric not in result["off_path"]
                and UNITS[metric] == "ms" and value <= 0
                and not metric.endswith(("overhead_ms", "residual_ms"))
            ):
                problems.append(
                    f"{name}: its ops pass through {metric} but it took no time"
                )
    if list(LAYER_METRICS) != [m["name"] for m in CONTRACT["per_layer"]]:
        problems.append("BENCHMARK.json per_layer differs from layers.LAYER_METRICS")
    cache = {
        name: value
        for name, value in results[("session_churn", 1)]["metrics"].items()
        if name.startswith("cache.")
    }
    if not (0.80 <= cache["cache.hit_ratio"] <= 0.88
            and cache["cache.evicted"] > 0 and cache["cache.invalidated"] > 0):
        problems.append(
            "session_churn: the traced script should hit on 80-88 % of its "
            f"asks, evict and invalidate, but cache.* = {cache}"
        )
    churn = results[("session_churn", 0)]
    if churn["counts"] != SMOKE_CHURN_COUNTS:
        problems.append(
            f"session_churn counts {churn['counts']} != {SMOKE_CHURN_COUNTS}"
        )
    for name in ("session_churn", "serve_closed"):
        result = results[(name, 0)]
        hit, miss = result["modes"]["hit"], result["modes"]["miss"]
        p50, p95 = result["metrics"]["op_ms_p50"], result["metrics"]["op_ms_p95"]
        if not hit["p05_ms"] <= p50 <= hit["p95_ms"]:
            problems.append(f"{name}: p50 {p50:.2f} ms is outside the hit mode")
        if not p95 >= miss["p05_ms"]:
            problems.append(f"{name}: p95 {p95:.2f} ms is below the miss mode")
    return problems


def all_runs(args: argparse.Namespace) -> int:
    """Every workload, both passes (``--repeats`` untraced runs each),
    one child process per run; ``--smoke`` runs two children at a time."""
    env = environment(args)
    tmp = HERE / ".tmp" / f"all-{os.getpid()}"
    tmp.mkdir(parents=True)
    shm_before = set(os.listdir("/dev/shm"))
    jobs = [
        (name, traced, repeat)
        for traced in (1, 0)  # the longer runs first
        for name in WORKLOADS
        for repeat in range(1 if traced or args.smoke else args.repeats)
    ]
    try:
        with ThreadPoolExecutor(2 if args.smoke else 1) as pool:
            outcomes = list(pool.map(
                lambda job: child_run(
                    args, job[0], job[1], tmp / "{}.{}.{}.json".format(*job)
                ),
                jobs,
            ))
        if args.label:
            RESULTS.mkdir(exist_ok=True)
            for spans in tmp.glob("*.spans.jsonl"):
                shutil.move(spans, RESULTS / f"{args.label}.{spans.name}")
    finally:
        shutil.rmtree(tmp)

    problems = [
        f"{name} (trace {traced}): the run did not finish"
        for (name, traced, _), result in zip(jobs, outcomes) if result is None
    ]
    runs = [result for result in outcomes if result is not None]
    problems += [
        f"{r['workload']}: {r['failed']} of {r['attempted']} ops failed"
        for r in runs if r["failed"]
    ]
    if args.smoke and not problems:
        results = {(job[0], job[1]): r for job, r in zip(jobs, outcomes)}
        problems += smoke_checks(results) + leaks(tmp, shm_before)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if args.label:
        record = {"label": args.label, "claim": None, "env": env, "runs": runs}
        (RESULTS / f"{args.label}.json").write_text(json.dumps(record, indent=1))
        with open(RESULTS / "history.jsonl", "a") as history:
            history.write(json.dumps({
                "label": args.label, "env": env, "ok": not problems,
                "medians": {
                    name: {
                        metric: statistics.median(
                            r["metrics"][metric] for r in runs
                            if r["workload"] == name and metric in r["metrics"]
                        )
                        for metric in END_TO_END
                    }
                    for name in WORKLOADS
                },
            }) + "\n")
    if not problems:
        print(f"ok: {len(runs)} runs, no op failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="make one run of this workload (needs --trace)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end pass, 1 = traced per-layer pass")
    parser.add_argument("--seed", type=int, default=SMOKE_SEED,
                        help="workload seed (default 101; 202 is held out)")
    parser.add_argument("--seconds", type=float,
                        default=float(CONTRACT["run_seconds"]),
                        help="length of the measured phase of one run")
    parser.add_argument("--result-file", type=Path,
                        help="with --workload: also write the full result "
                        "here, and the spans beside it")
    parser.add_argument("--repeats", type=int, default=1,
                        help="without --workload: untraced runs per workload")
    parser.add_argument("--label", help="without --workload: write "
                        "results/<label>.json, the spans, and a line in "
                        "results/history.jsonl")
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops of everything, with self-checks")
    args = parser.parse_args()
    if (args.workload is None) != (args.trace is None):
        parser.error("--workload and --trace go together")

    if os.environ.get("PYTHONHASHSEED") != "0" or "REPRO_JOBS" in os.environ:
        # Set iteration order and the engine's job default must not vary
        # from run to run: restart under the environment the daemon gets.
        os.execve(sys.executable, [sys.executable, *sys.argv], ENGINE_ENV)

    # Told to stop, leave through the ``finally`` blocks that stop the
    # daemon and the helper processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    cpus = len(os.sched_getaffinity(0))
    for name in [args.workload] if args.workload else WORKLOADS:
        if WORKLOADS[name].clients > cpus:
            print(f"error: {name} runs {WORKLOADS[name].clients} client "
                  f"threads but only {cpus} CPU(s) are available",
                  file=sys.stderr)
            return 2
    if args.smoke:
        args.seed, args.seconds = SMOKE_SEED, 2.0
    return one_run(args) if args.workload else all_runs(args)


if __name__ == "__main__":
    sys.exit(main())
