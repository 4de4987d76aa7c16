"""The four workloads: what the program is asked to do, through its
public API only (``repro.mine``, ``MiningSession.mine``, ``MiningClient``
against a ``repro serve`` subprocess).

A workload synthesizes its inputs and reference answers in ``__init__``
(outside every metric; the reference evaluators run in a child process,
outside ``peak_rss_mb`` too), does the *program's* share of getting
ready in ``setup()`` (the ``setup_s`` metric: build and dictionary-encode
the ``Database``, construct the session or boot the daemon and push
data, run the warm-up ops), and then executes scripted ops one at a time
for the runner in ``run.py``, which owns all timing of the measured phase.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import cycle
from multiprocessing import get_context
from pathlib import Path
from typing import Iterator

from repro import (
    Database,
    MiningSession,
    Relation,
    evaluate_flock_bruteforce,
    mine,
    parse_flock,
)
from repro.serve import MiningClient

from inputs import (
    BASE_THRESHOLD,
    BASKET_COLUMNS,
    CHURN_MIX,
    PAIR_FLOCK,
    PINNED_FLOCK,
    PINNED_THRESHOLD,
    PLAN_HEAVY_FLOCKS,
    SERVE_MIX,
    Op,
    PairOracle,
    analyst_script,
    article_rows,
    plan_heavy_relations,
)

REPO = Path(__file__).resolve().parents[2]

#: Environment of every process that runs the engine: fixed hash seed,
#: the package on the path, and no inherited ``REPRO_JOBS``.
ENGINE_ENV = {
    **{k: v for k, v in os.environ.items() if k != "REPRO_JOBS"},
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(REPO / "src"),
}

Relations = dict  # name -> (columns, rows)


def build_database(relations: Relations) -> Database:
    """Load raw rows into a ``Database`` and dictionary-encode every
    relation — the library user's load path."""
    db = Database(
        Relation(name, columns, rows)
        for name, (columns, rows) in relations.items()
    )
    for name in db.names():
        db.encoded(name)
    return db


def naive_rows(relations: Relations, text: str) -> frozenset:
    """Reference survivors: naive strategy, serial, memory backend, on a
    throwaway database."""
    relation, _ = mine(
        build_database(relations), parse_flock(text),
        strategy="naive", parallelism=1,
    )
    return relation.tuples


def in_child(fn, *args):
    """``fn(*args)`` in a process of its own.  The reference evaluators
    allocate several times what the measured path does (naive: 190 MiB
    where ``mine()``'s default peaks at 60), and ``peak_rss_mb`` is this
    process's high-water mark: run here, they would be the metric.

    Forked, not spawned: callers are workload constructors, which run
    before the process has any thread, and a spawned pool would leave
    its resource-tracker process running until after this one exits.
    """
    with ProcessPoolExecutor(1, mp_context=get_context("fork")) as pool:
        return pool.submit(fn, *args).result()


def check_oracles(relations: Relations) -> None:
    """Cross-check the independent oracle against the naive evaluator on
    each basket relation's initial data, for the pair flock and for one
    pinned flock."""
    for relation, (_, rows) in relations.items():
        oracle = PairOracle(rows)
        word = oracle.frequent_words(1)[0]
        for shape, template, threshold in (
            (None, PAIR_FLOCK, BASE_THRESHOLD),
            (word, PINNED_FLOCK, PINNED_THRESHOLD),
        ):
            text = template.format(rel=relation, word=word, t=threshold)
            naive = naive_rows({relation: relations[relation]}, text)
            if oracle.survivors(shape, threshold) != naive:
                raise RuntimeError(
                    f"reference mismatch on {relation}: oracle and "
                    "strategy='naive' disagree"
                )


def plan_heavy_reference(relations: Relations) -> list[frozenset]:
    """Naive survivors of each plan-heavy flock, checked against the
    literal section 2 semantics on the two flocks whose parameter space
    bruteforce enumerates in under a second (the 3-parameter variant
    takes 7 s per run)."""
    expects = [naive_rows(relations, text) for text in PLAN_HEAVY_FLOCKS]
    db = build_database(relations)
    for index in (0, 2):
        text = PLAN_HEAVY_FLOCKS[index]
        if evaluate_flock_bruteforce(db, parse_flock(text)).tuples != expects[index]:
            raise RuntimeError(
                "reference mismatch: bruteforce and strategy='naive' "
                f"disagree on {text.splitlines()[1]}"
            )
    return expects


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Stopwatch:
    """Accumulates the wall time of the ``with`` blocks it guards, so
    harness work between them stays out of the total."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds += time.perf_counter() - self._started


class Workload:
    """Common shape of the four workloads (see module docstring)."""

    name = ""
    clients = 1
    warmup_ops = 10
    #: What the ops go through, for the workloads whose ops do.
    session: MiningSession | None = None
    daemon: "Daemon | None" = None

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.warmup_failures = 0

    # -- for the runner --------------------------------------------------

    def setup(self) -> float:
        """(Re)do the program-side set-up; returns its seconds."""
        self.teardown()
        self.scripts = self.new_scripts()
        watch = Stopwatch()
        self.start(watch)
        for client, script in enumerate(self.scripts):
            for _ in range(self.warmup_ops):
                op = next(script)
                with watch:
                    payload, _ = self.execute(client, op)
                self.warmup_failures += not self.check(op, payload)
        return watch.seconds

    def check(self, op: Op, payload) -> bool:
        return op.kind == "write" or payload == op.expect

    def counts(self) -> dict[str, float]:
        """Exactly repeatable counts the program reports about itself."""
        return {}

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def teardown(self) -> None:
        pass

    # -- per workload ----------------------------------------------------

    def new_scripts(self) -> list[Iterator[Op]]:
        raise NotImplementedError

    def start(self, watch: Stopwatch) -> None:
        raise NotImplementedError

    def execute(self, client: int, op: Op):
        """Run one op; returns ``(payload, served_from_cache)``."""
        raise NotImplementedError

    # -- for the traced pass (layers.py) ---------------------------------

    #: Keyword arguments this workload's ops pass to ``mine``.
    mine_options: dict = {}
    #: How many of its own ops (per client) the traced pass runs: a
    #: fixed count, so the counts it reports repeat exactly.
    traced_ops = 20

    def probe_inputs(self) -> tuple[Relations, list[str]]:
        """Raw relations and the flock texts the layer probes replay."""
        raise NotImplementedError


class WordsCold(Workload):
    name = "words_cold"
    n_articles = 500

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        rows = article_rows(seed, self.n_articles)
        self.relations = {"baskets": (BASKET_COLUMNS, rows)}
        in_child(check_oracles, self.relations)
        self.text = PAIR_FLOCK.format(rel="baskets", t=BASE_THRESHOLD)
        self.op = Op(
            "ask", "cold", self.text,
            expect=PairOracle(rows).survivors(None, BASE_THRESHOLD),
        )

    def new_scripts(self):
        return [cycle([self.op])]

    def start(self, watch):
        with watch:
            self.db = build_database(self.relations)

    def execute(self, client, op):
        relation, _ = mine(self.db, parse_flock(op.text))
        return relation.tuples, None

    def probe_inputs(self):
        return self.relations, [self.text]


class PlanHeavy(Workload):
    name = "plan_heavy"
    mine_options = {"strategy": "optimized", "verify_plans": True}
    traced_ops = 60

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.relations = plan_heavy_relations(seed)
        self.ops = [
            Op("ask", "plan", text, expect=expect)
            for text, expect in zip(
                PLAN_HEAVY_FLOCKS,
                in_child(plan_heavy_reference, self.relations),
            )
        ]

    def new_scripts(self):
        return [cycle(self.ops)]

    def start(self, watch):
        with watch:
            self.db = build_database(self.relations)

    def execute(self, client, op):
        relation, _ = mine(self.db, parse_flock(op.text), **self.mine_options)
        return relation.tuples, None

    def probe_inputs(self):
        return self.relations, list(PLAN_HEAVY_FLOCKS)


class SessionChurn(Workload):
    name = "session_churn"
    n_articles = 500
    cache_entries = 8
    traced_ops = 400

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.rows = article_rows(seed, self.n_articles)
        self.relations = {"baskets": (BASKET_COLUMNS, self.rows)}
        in_child(check_oracles, self.relations)

    def new_scripts(self):
        return [
            analyst_script(
                random.Random(self.seed), "baskets", self.rows, CHURN_MIX,
                recent=3,
            )
        ]

    def start(self, watch):
        with watch:
            self.session = MiningSession(
                build_database(self.relations),
                max_cache_entries=self.cache_entries,
            )

    def execute(self, client, op):
        if op.kind == "write":
            self.session.db.add(Relation("baskets", BASKET_COLUMNS, op.rows))
            self.session.invalidate_stale()
            return None, None
        relation, report = self.session.mine(parse_flock(op.text))
        return relation.tuples, bool(report.cache_hits)

    def counts(self):
        stats = self.session.stats()
        return {
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_evicted": stats.evicted,
            "cache_invalidated": stats.invalidated,
            "cache_entries": stats.entries,
        }

    def probe_inputs(self):
        return self.relations, [
            PAIR_FLOCK.format(rel="baskets", t=BASE_THRESHOLD)
        ]


class Daemon:
    """One ``python -m repro.cli serve --workers 2`` subprocess over an
    empty data directory; data arrives through ``POST /v1/data``."""

    boot_timeout = 30.0

    def __init__(self, tmp: Path) -> None:
        data = tmp / "serve-data"
        data.mkdir(parents=True, exist_ok=True)
        self.log_path = tmp / "serve.log"
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(data),
                 "--port", "0", "--workers", "2"],
                stdout=log, stderr=log, env=ENGINE_ENV, cwd=tmp,
            )
        try:
            self.address = self._await_address()
        except BaseException:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - started

    def _await_address(self) -> str:
        deadline = time.perf_counter() + self.boot_timeout
        while time.perf_counter() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("listening on "):
                    return line.split()[2]
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"repro serve did not come up: {self.log_path.read_text()[-500:]}"
        )

    def stop(self) -> None:
        """Ctrl-C the daemon and wait for it; kill it if it lingers."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class ServeClosed(Workload):
    name = "serve_closed"
    clients = 2
    n_articles = 250
    traced_ops = 200

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.tenants = ["tenant_a", "tenant_b"]
        self.tenant_rows = {
            tenant: article_rows(2 * seed + index, self.n_articles)
            for index, tenant in enumerate(self.tenants)
        }
        in_child(check_oracles, {
            f"baskets_{tenant}": (BASKET_COLUMNS, rows)
            for tenant, rows in self.tenant_rows.items()
        })

    def new_scripts(self):
        return [
            analyst_script(
                random.Random(2 * self.seed + index), f"baskets_{tenant}",
                self.tenant_rows[tenant], SERVE_MIX, recent=None,
            )
            for index, tenant in enumerate(self.tenants)
        ]

    def start(self, watch):
        with watch:
            self.daemon = Daemon(self.tmp)
            self.connections = [
                MiningClient(self.daemon.address, tenant=tenant)
                for tenant in self.tenants
            ]
            for client, tenant in zip(self.connections, self.tenants):
                client.load_relation(
                    f"baskets_{tenant}", BASKET_COLUMNS,
                    list(self.tenant_rows[tenant]),
                )

    def execute(self, client, op):
        connection = self.connections[client]
        if op.kind == "write":
            return connection.load_relation(
                f"baskets_{self.tenants[client]}", BASKET_COLUMNS,
                list(op.rows),
            ), None
        response = connection.mine(op.text)
        return response, bool(response["report"]["cache_hits"])

    def check(self, op, payload):
        if op.kind == "write":
            return payload["rows"] == len(op.rows)
        return (
            not payload["truncated"]
            and frozenset(map(tuple, payload["rows"])) == op.expect
        )

    def counts(self):
        metrics = self.connections[0]
        return {
            "cache_hits": metrics.metric_value("repro_cache_hits_total"),
            "cache_misses": metrics.metric_value("repro_cache_misses_total"),
            "cache_entries": metrics.metric_value("repro_cache_entries"),
            "data_loads": metrics.metric_value("repro_data_loads_total"),
        }

    def rss_mb(self):
        return peak_rss_mb(self.daemon.process.pid)

    def teardown(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def probe_inputs(self):
        tenant = self.tenants[0]
        return (
            {f"baskets_{tenant}": (BASKET_COLUMNS, self.tenant_rows[tenant])},
            [PAIR_FLOCK.format(rel=f"baskets_{tenant}", t=BASE_THRESHOLD)],
        )


WORKLOADS = {
    cls.name: cls for cls in (WordsCold, PlanHeavy, SessionChurn, ServeClosed)
}
