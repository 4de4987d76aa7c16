"""The traced pass: harness-side spans around the calls into each layer's
public functions, and the per-layer metrics derived from them.

Nothing under ``src/`` is instrumented.  An op is *replayed* as the
explicit pipeline ``mine()`` runs internally — parse, lint, plan search,
certification, lowering, IR check, engine — with one span per call, and
the replay's survivors must equal the expected ones.  Layers an op does
not pass through (the SQLite backend, the parallel executor, shared
memory, checkpoints, the session cache, the HTTP daemon) are probed the
same way on the same relations and, for plan-based layers, the same
plan.  Every layer metric is the median over its samples unless it is a
count.

Each metric has one definition and one code path.  ``LAYER_METRICS``
names, per metric, the workloads whose ops pass through the layer (or
on which it is the recorded reference): the rows to read.  The benchmark
contract wants every metric on every traced run, so the other workloads
report the same probe on their own data, flagged ``off_path``.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterator

from repro import (
    CheckpointStore,
    Database,
    FlockOptimizer,
    MiningSession,
    Relation,
    ResourceBudget,
    evaluate_flock,
    evaluate_flock_dynamic,
    execute_plan,
    load_database,
    mine,
    parse_flock,
    save_database,
)
from repro.analysis import (
    certify_plan,
    check_physical_plan,
    plan_verification,
    verify_certificate,
)
from repro.engine import shm
from repro.engine.memory import MemoryEngine
from repro.engine.parallel import ParallelExecutor
from repro.flocks import MiningReport, SQLiteBackend, lint_flock, optimize_union
from repro.flocks.executor import lower_filter_step
from repro.serve import MiningClient
from repro.session import canonical_key, with_support_threshold

from workloads import (
    Daemon,
    Relations,
    SessionChurn,
    Workload,
    build_database,
)

#: Spans of these layers count as planning in ``harness.plan_share``.
PLANNING_LAYERS = (
    "datalog.parse", "lint.lint_flock", "optimizer.best_plan",
    "certify.certify_plan", "certify.verify_certificate",
    "planner.lower_step", "schema.check_plan",
)

#: Paired calls per flock behind each ``*_overhead_ms`` metric.
OVERHEAD_PAIRS = 3

EVERY = ("words_cold", "plan_heavy", "session_churn", "serve_closed")
LIBRARY = ("words_cold", "plan_heavy")
WORDS = ("words_cold",)
CHURN = ("session_churn",)
SERVE = ("serve_closed",)

#: name -> (unit, workloads it is measured *on*), in report order.
LAYER_METRICS = {
    "datalog.parse_ms": ("ms", EVERY),
    "lint.lint_flock_ms": ("ms", EVERY),
    "optimizer.best_plan_ms": ("ms", LIBRARY),
    "optimizer.plans_scored": ("count", LIBRARY),
    "certify.certify_plan_ms": ("ms", LIBRARY),
    "certify.verify_certificate_ms": ("ms", LIBRARY),
    "safety.verify_plans_overhead_ms": ("ms", LIBRARY),
    "planner.lower_step_ms": ("ms", LIBRARY),
    "schema.check_plan_ms": ("ms", LIBRARY),
    "executor.execute_plan_ms": ("ms", LIBRARY),
    "executor.prefilter_ms": ("ms", LIBRARY),
    "executor.final_step_ms": ("ms", LIBRARY),
    "executor.rows_examined_per_survivor": ("ratio", LIBRARY),
    "memory.run_step_ms": ("ms", WORDS),
    "dynamic.evaluate_ms": ("ms", WORDS),
    "dynamic.filters_applied": ("count", WORDS),
    "dynamic.replans": ("count", WORDS),
    "naive.evaluate_ms": ("ms", WORDS),
    "relation.encode_ms": ("ms", WORDS),
    "relation.encoded_bytes": ("bytes", WORDS),
    "io.load_csv_ms": ("ms", WORDS),
    "sqlbackend.load_ms": ("ms", WORDS),
    "sqlbackend.execute_plan_ms": ("ms", WORDS),
    "parallel.execute_plan_j2_ms": ("ms", WORDS),
    "parallel.peak_partition_bytes": ("bytes", WORDS),
    "shm.publish_ms": ("ms", WORDS),
    "shm.attach_ms": ("ms", WORDS),
    "guard.budget_overhead_ms": ("ms", WORDS),
    "recovery.checkpoint_overhead_ms": ("ms", WORDS),
    "recovery.resume_ms": ("ms", WORDS),
    "session.canonical_key_ms": ("ms", CHURN),
    "session.lookup_hit_ms": ("ms", CHURN),
    "session.lookup_miss_ms": ("ms", CHURN),
    "session.write_ms": ("ms", CHURN + SERVE),
    # The daemon exports no eviction or invalidation counts, so the
    # cache counters are the in-process session's.
    "cache.hit_ratio": ("ratio", CHURN),
    "cache.evicted": ("count", CHURN),
    "cache.invalidated": ("count", CHURN),
    "cache.entries": ("count", CHURN),
    "report.to_json_ms": ("ms", SERVE),
    "serve.healthz_ms": ("ms", SERVE),
    "serve.http_overhead_ms": ("ms", SERVE),
    "serve.server_mine_ms_p50": ("ms", SERVE),
    "serve.data_load_ms": ("ms", SERVE),
    "serve.boot_ms": ("ms", SERVE),
    "serve.rejected": ("count", SERVE),
    "serve.cache_hits": ("count", SERVE),
    "harness.residual_ms": ("ms", LIBRARY),
    "harness.trace_overhead_share": ("fraction", LIBRARY),
    "harness.plan_share": ("fraction", LIBRARY),
}


class Tracer:
    """In-memory span recorder: ``(name, start, end, parent, op_id)``.

    ``parent`` is the index of the enclosing span (``None`` at the top);
    spans of one replayed op share its ``op_id``.  Counts are recorded at
    the same boundaries as the spans they describe.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple[str, int, float]] = []
        self.op_id = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append(())
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, self.op_id, value))

    def ops(self) -> list[dict[str, float]]:
        """Per op, in order: milliseconds inside its spans, by name."""
        totals: dict[int, dict[str, float]] = {}
        for name, start, end, _parent, op_id in self.spans:
            op = totals.setdefault(op_id, {})
            op[name] = op.get(name, 0.0) + (end - start) * 1e3
        return [totals[op_id] for op_id in sorted(totals)]

    def median_ms(self, name: str) -> float:
        """Median over the ops that passed through layer ``name`` of the
        time each spent in it."""
        return statistics.median(
            [op[name] for op in self.ops() if name in op] or [0.0]
        )

    def median_count(self, name: str) -> float:
        values = [v for n, _op, v in self.counts if n == name]
        return statistics.median(values or [0.0])

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id,
                }) + "\n")


class NoTracer(Tracer):
    """Tracing off: the same replay with no span recorded."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


def replay(db, text: str, strategy: str, tracer: Tracer) -> frozenset:
    """One op as the explicit pipeline behind ``mine()``.

    ``strategy`` is what ``mine`` resolves to for the workload:
    ``"dynamic"`` (what ``"auto"`` picks for a single-rule monotone
    flock) or ``"optimized"``.  Ambient plan verification is off so no
    layer verifies itself; the replay calls each verifier once, where
    ``mine(verify_plans=True)`` does.
    """
    tracer.op_id += 1
    with tracer.span("op"), plan_verification(False):
        with tracer.span("datalog.parse"):
            flock = parse_flock(text)
        with tracer.span("lint.lint_flock"):
            lint_flock(flock)
        if strategy == "dynamic":
            with tracer.span("dynamic.evaluate"):
                result, trace = evaluate_flock_dynamic(db, flock)
                rows = result.relation.tuples
            tracer.count("dynamic.filters_applied", trace.filters_applied())
            tracer.count("dynamic.replans", sum(
                line.startswith("replan:") for line in trace.plan_lines
            ))
            return rows
        plan = best_plan(db, flock, tracer)
        with tracer.span("certify.certify_plan"):
            certificate = certify_plan(flock, plan, witnesses=True)
            certificate.raise_for_errors()
        with tracer.span("certify.verify_certificate"):
            if not verify_certificate(certificate).ok:
                raise RuntimeError("certificate failed re-validation")
        scratch = db.scratch()
        for step in plan.steps:
            with tracer.span("planner.lower_step"):
                physical = lower_filter_step(scratch, flock, step)
            with tracer.span("schema.check_plan"):
                if not check_physical_plan(physical, db=scratch).ok:
                    raise RuntimeError("lowered plan failed the IR check")
            with tracer.span("memory.run_step"):
                ok = MemoryEngine(scratch).run_step(physical).result
            scratch.add(ok)
        return ok.project(list(flock.parameter_columns)).tuples


def best_plan(db, flock, tracer: Tracer = NoTracer()):
    """The static plan ``mine(strategy="optimized")`` executes, found
    through the optimizer's public search steps so that certification
    (which ``FlockOptimizer.best_plan`` folds in) gets its own span."""
    with tracer.span("optimizer.best_plan"):
        if flock.is_union:
            tracer.count("optimizer.plans_scored", 1)
            return optimize_union(db, flock)
        optimizer = FlockOptimizer(db, flock)
        scored = [optimizer.score(plan) for plan in optimizer.enumerate_plans(3)]
        tracer.count("optimizer.plans_scored", len(scored))
        return min(scored, key=lambda s: s.estimated_cost).plan


def timed_ms(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return (time.perf_counter() - started) * 1e3


def repeat_ms(fn: Callable[[], object], repeats: int) -> float:
    """Median ms of ``repeats`` calls."""
    return statistics.median(timed_ms(fn) for _ in range(repeats))


def mine_ms(db, text: str, **options) -> float:
    return timed_ms(lambda: mine(db, parse_flock(text), **options)[0].tuples)


def overhead_ms(db, texts: list[str], base: dict, extra: dict) -> float:
    """What ``extra`` adds to one ``mine(**base)`` call: the median of
    paired differences, each pair one call with and one without on the
    same flock, back to back.  (The difference of two separately taken
    medians of a 100 ms op is mostly the box's noise.)"""
    return statistics.median(
        mine_ms(db, text, **{**base, **extra}) - mine_ms(db, text, **base)
        for _ in range(OVERHEAD_PAIRS) for text in texts
    )


def pipeline_probe(
    workload: Workload, seconds: float, tracer: Tracer
) -> dict[str, float]:
    """Replays and probes of every library-side layer."""
    relations, texts = workload.probe_inputs()
    strategy = workload.mine_options.get("strategy", "dynamic")
    db = build_database(relations)
    expected = {
        text: mine(db, parse_flock(text), **workload.mine_options)
        for text in texts
    }
    for _relation, report in expected.values():
        if report.strategy_used != strategy:
            raise RuntimeError(
                f"replay assumes {strategy}, mine() used {report.strategy_used}"
            )
    out: dict[str, float] = {}

    # The op itself: mine() untraced, then the replay with spans off and
    # on, interleaved so drift hits all three alike.
    off = NoTracer()
    mine_samples: list[float] = []
    replay_off: list[float] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 3 or time.perf_counter() < deadline:
        rounds += 1
        for text in texts:
            mine_samples.append(timed_ms(
                lambda: mine(db, parse_flock(text),
                             **workload.mine_options)[0].tuples
            ))
            replay_off.append(timed_ms(lambda: replay(db, text, strategy, off)))
            if replay(db, text, strategy, tracer) != expected[text][0].tuples:
                raise RuntimeError("replay survivors differ from mine()'s")
    # Paired per op: each traced replay against the mine() call and the
    # untraced replay of the same flock that ran next to it.
    traced = tracer.ops()
    out["harness.residual_ms"] = statistics.median(
        whole - (sum(op.values()) - op["op"])
        for whole, op in zip(mine_samples, traced)
    )
    out["harness.trace_overhead_share"] = statistics.median(
        (op["op"] - untraced) / untraced
        for untraced, op in zip(replay_off, traced)
    )
    out["harness.plan_share"] = statistics.median(
        sum(op.get(name, 0.0) for name in PLANNING_LAYERS) / op["op"]
        for op in traced
    )

    # Layers off this op's path, on the same data: the other strategy's
    # replay (a union flock has no dynamic evaluation).
    other = "optimized" if strategy == "dynamic" else "dynamic"
    for text in texts:
        if other == "dynamic" and parse_flock(text).is_union:
            continue
        for _ in range(3):
            replay(db, text, other, tracer)
    for name in (
        "datalog.parse", "lint.lint_flock", "optimizer.best_plan",
        "certify.certify_plan", "certify.verify_certificate",
        "planner.lower_step", "schema.check_plan", "memory.run_step",
        "dynamic.evaluate",
    ):
        out[f"{name}_ms"] = tracer.median_ms(name)
    for name in ("optimizer.plans_scored", "dynamic.filters_applied",
                 "dynamic.replans"):
        out[name] = tracer.median_count(name)

    out["safety.verify_plans_overhead_ms"] = overhead_ms(
        db, texts, {**workload.mine_options, "verify_plans": False},
        {"verify_plans": True},
    )
    optimized = {"strategy": "optimized", "verify_plans": False}
    out["guard.budget_overhead_ms"] = overhead_ms(
        db, texts, optimized,
        {"budget": ResourceBudget(seconds=3600.0, max_intermediate_rows=10**9)},
    )
    out.update(recovery_probe(workload, db, texts, optimized))
    out.update(plan_probe(db, texts))

    naive_flock = parse_flock(texts[0])
    out["naive.evaluate_ms"] = timed_ms(
        lambda: evaluate_flock(db, naive_flock).tuples
    )
    out.update(storage_probe(workload, relations))
    report = expected[texts[0]][1]
    out["report.to_json_ms"] = repeat_ms(
        lambda: MiningReport.from_json(report.to_json()), 20
    )
    return out


def plan_probe(db, texts: list[str]) -> dict[str, float]:
    """One static plan per flock, executed by the serial executor, the
    SQLite backend and the 2-job parallel executor — the same plan, so
    the three are comparable with each other (and never with naive)."""
    planned = [(flock, best_plan(db, flock))
               for flock in map(parse_flock, texts)]
    # Per round, the mean over the flocks (a one-step plan has no
    # pre-filter, so a median over single flocks could read 0); then
    # the median over rounds.
    rounds = []
    for _ in range(3):
        samples = []
        for flock, plan in planned:
            started = time.perf_counter()
            result = execute_plan(db, flock, plan, validate=False)
            survivors = len(result.relation.tuples)
            total = (time.perf_counter() - started) * 1e3
            steps = result.trace.steps
            samples.append((
                total,
                sum(s.seconds for s in steps[:-1]) * 1e3,
                steps[-1].seconds * 1e3,
                sum(s.input_tuples for s in steps) / max(survivors, 1),
            ))
        rounds.append([statistics.fmean(column) for column in zip(*samples)])
    out = dict(zip(
        ("executor.execute_plan_ms", "executor.prefilter_ms",
         "executor.final_step_ms", "executor.rows_examined_per_survivor"),
        (statistics.median(column) for column in zip(*rounds)),
    ))

    started = time.perf_counter()
    with SQLiteBackend(db) as backend:
        out["sqlbackend.load_ms"] = (time.perf_counter() - started) * 1e3
        out["sqlbackend.execute_plan_ms"] = statistics.median(
            timed_ms(lambda: backend.execute_plan(flock, plan).tuples)
            for flock, plan in planned
        )

    parallel_ms, peak = [], 0
    for flock, plan in planned:
        started = time.perf_counter()
        with ParallelExecutor(2, db) as executor:
            execute_plan(
                db, flock, plan, validate=False, parallel=executor
            ).relation.tuples
        parallel_ms.append((time.perf_counter() - started) * 1e3)
        peak = max(peak, executor.peak_partition_bytes)
    out["parallel.execute_plan_j2_ms"] = statistics.median(parallel_ms)
    out["parallel.peak_partition_bytes"] = peak

    started = time.perf_counter()
    shared = shm.publish(db)
    out["shm.publish_ms"] = (time.perf_counter() - started) * 1e3
    if shared is None:
        raise RuntimeError("shared memory is unavailable on this machine")
    try:
        # Attach is timed where it runs in production: in a forked pool
        # worker (an attach in the publishing process would also untrack
        # the publisher's own segment).
        with ProcessPoolExecutor(1) as pool:
            out["shm.attach_ms"] = statistics.median(
                pool.submit(attach_ms, shared.descriptor).result()
                for _ in range(3)
            )
    finally:
        shared.close()
    return out


def attach_ms(descriptor) -> float:
    return timed_ms(lambda: shm.attach(descriptor))


def recovery_probe(
    workload: Workload, db, texts: list[str], optimized: dict
) -> dict[str, float]:
    """Cost of making every FILTER step durable, and of resuming a
    finished run from its checkpoints."""
    with CheckpointStore(str(workload.tmp / "checkpoints.sqlite")) as store:
        durable = {**optimized, "checkpoint": store}
        overhead = overhead_ms(db, texts, optimized, {"checkpoint": store})
        resumed = []
        for text in texts:
            _, report = mine(db, parse_flock(text), **durable)
            resumed += [
                mine_ms(db, text, **durable, resume=report.run_id)
                for _ in range(3)
            ]
    return {
        "recovery.checkpoint_overhead_ms": overhead,
        "recovery.resume_ms": statistics.median(resumed),
    }


def storage_probe(workload: Workload, relations: Relations) -> dict[str, float]:
    """Dictionary encoding and the CSV load path."""
    encode = []
    for _ in range(3):
        db = Database(
            Relation(name, columns, rows)
            for name, (columns, rows) in relations.items()
        )
        encode.append(timed_ms(lambda: [db.encoded(n) for n in db.names()]))
    directory = workload.tmp / "csv"
    save_database(db, directory)
    return {
        "relation.encode_ms": statistics.median(encode),
        "relation.encoded_bytes": db.encoded_bytes(),
        "io.load_csv_ms": repeat_ms(lambda: load_database(directory), 3),
    }


def session_layers(workload: Workload) -> dict[str, float]:
    """The session cache's counters and its own operations, on the
    session the workload's traced ops went through — for a workload
    whose ops use none, on a new session over its relations."""
    relations, texts = workload.probe_inputs()
    flocks = [parse_flock(text) for text in texts]
    session = workload.session or MiningSession(
        build_database(relations), max_cache_entries=SessionChurn.cache_entries
    )
    # The counters first: the probes below ask, hit and invalidate.
    stats = session.stats()
    asked = stats.cache_hits + stats.cache_misses
    out = {
        "cache.hit_ratio": stats.cache_hits / asked if asked else 0.0,
        "cache.evicted": stats.evicted,
        "cache.invalidated": stats.invalidated,
        "cache.entries": stats.entries,
    }
    for flock in flocks:
        session.mine(flock)
    stricter = [with_support_threshold(f, 10**6) for f in flocks]
    looser = [with_support_threshold(f, 1) for f in flocks]
    out["session.canonical_key_ms"] = statistics.median(
        timed_ms(lambda: canonical_key(f.query))
        for _ in range(20) for f in flocks
    )
    out["session.lookup_hit_ms"] = statistics.median(
        timed_ms(lambda: session.lookup(f)[1].tuples)
        for _ in range(20) for f in stricter
    )
    out["session.lookup_miss_ms"] = statistics.median(
        timed_ms(lambda: session.lookup(f))
        for _ in range(20) for f in looser
    )
    name, (columns, rows) = next(iter(relations.items()))

    def write() -> None:
        session.db.add(Relation(name, columns, rows))
        session.invalidate_stale()

    writes = []
    for _ in range(3):
        writes.append(timed_ms(write))
        for flock in flocks:
            session.mine(flock)
    out["session.write_ms"] = statistics.median(writes)
    return out


def serve_layers(workload: Workload) -> dict[str, float]:
    """The daemon's fixed costs and counters, on the daemon the
    workload's traced ops went through (as one more tenant, after its
    clients finished) — for a workload whose ops use none, on a new
    daemon.  The counters are read last, so they include the probe's
    own requests: the same 21 per flock on every run."""
    relations, texts = workload.probe_inputs()
    daemon = workload.daemon or Daemon(workload.tmp / "probe")
    try:
        client = MiningClient(daemon.address, tenant="probe")
        load = [
            timed_ms(lambda: client.load_relation(relation, cols, list(tuples)))
            for relation, (cols, tuples) in relations.items()
        ]
        overhead, served = [], []
        for text in texts:
            client.mine(text)
            for _ in range(20):
                started = time.perf_counter()
                response = client.mine(text)
                elapsed = (time.perf_counter() - started) * 1e3
                overhead.append(elapsed - response["report"]["seconds"] * 1e3)
                served.append(response["seconds"] * 1e3)
        return {
            "serve.healthz_ms": repeat_ms(client.health, 50),
            "serve.http_overhead_ms": statistics.median(overhead),
            "serve.server_mine_ms_p50": statistics.median(served),
            "serve.data_load_ms": statistics.median(load),
            "serve.boot_ms": daemon.boot_seconds * 1e3,
            # Requests refused at admission, summed over tenants.
            "serve.rejected": sum(
                float(line.rpartition(" ")[2])
                for line in client.metrics().splitlines()
                if line.startswith("repro_mine_requests_total{")
                and 'outcome="rejected"' in line
            ),
            "serve.cache_hits": client.metric_value("repro_cache_hits_total"),
        }
    finally:
        if daemon is not workload.daemon:
            daemon.stop()
