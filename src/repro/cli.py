"""Command-line interface: run query flocks against CSV data.

Subcommands:

* ``run``   — evaluate a flock file against a data directory and print
  the acceptable parameter assignments;
* ``plan``  — show the plan a strategy would use (without running it);
* ``sql``   — emit the naive SQL and the rewritten SQL script;
* ``explain`` — safety/subquery analysis of the flock text;
* ``session`` — REPL-style loop running many flocks against one warm
  database with a containment-aware result cache (``repro.session``);
* ``check`` — one-pass verification: lint + safety + certified plan
  legality + (with data) IR schema checking, ``--format json``
  available, exit 0 clean / 3 warnings / 4 errors (``lint`` is the
  data-less alias);
* ``serve`` — start the mining service: an HTTP/JSON daemon sharing
  one session/cache across many concurrent clients (``repro.serve``);
* ``query`` — evaluate a flock against a running ``repro serve``
  daemon (the client side of ``serve``).

A *flock file* is the paper's two-section notation (Fig. 2)::

    QUERY:
    answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2

    FILTER:
    COUNT(answer.B) >= 20

A *data directory* holds one ``<relation>.csv`` per base relation, with
a header row of column names (see ``repro.relational.io``).

Examples::

    python -m repro run flock.txt data/ --strategy dynamic
    python -m repro plan flock.txt data/
    python -m repro sql flock.txt data/ --rewrite
    python -m repro explain flock.txt
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .datalog.safety import check_safety
from .datalog.subqueries import safe_subqueries, unsafe_subqueries
from .errors import ReproError, ResumeError
from .guard import ResourceBudget
from .flocks import (
    flock_to_sql,
    mine,
    parse_flock,
    plan_to_sql,
    single_step_plan,
)
from .flocks.optimizer import certified_plan
from .flocks.options import MiningOptions, positive_int
from .relational.io import load_database


def _load(flock_path: str, data_dir: str | None):
    text = Path(flock_path).read_text()
    flock = parse_flock(text)
    db = load_database(data_dir) if data_dir else None
    return flock, db


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _run_budget(args: argparse.Namespace) -> ResourceBudget | None:
    """Build the execution budget from --timeout/--max-rows, if any."""
    if args.timeout is None and args.max_rows is None:
        return None
    return ResourceBudget(
        seconds=args.timeout, max_intermediate_rows=args.max_rows
    )


def cmd_run(args: argparse.Namespace) -> int:
    flock, db = _load(args.flock, args.data)
    if db is None:
        print("run requires a data directory", file=sys.stderr)
        return 2
    try:
        options = MiningOptions.from_args(args)
        relation, report = mine(
            db, flock, budget=_run_budget(args), options=options
        )
    except (ResumeError, ValueError) as error:
        # An invalid option combination, or a checkpoint that does not
        # match this flock/data: a usage error, not a mining failure.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if report.run_id is not None:
        print(
            f"# checkpoint run {report.run_id}: "
            f"{report.steps_resumed} step(s) resumed, "
            f"{report.steps_checkpointed} checkpointed "
            f"-> {args.checkpoint}",
            file=sys.stderr,
        )

    print(f"# {len(relation)} acceptable assignments "
          f"({options.strategy}, {report.seconds * 1e3:.1f} ms)")
    print("\t".join(relation.columns))
    for row in sorted(relation.tuples, key=repr)[: args.limit]:
        print("\t".join(str(v) for v in row))
    if len(relation) > args.limit:
        print(f"... and {len(relation) - args.limit} more "
              "(raise --limit to see them)")
    if args.verbose:
        print("\n# trace", file=sys.stderr)
        print(report, file=sys.stderr)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    flock, db = _load(args.flock, args.data)
    if args.strategy == "naive" or db is None:
        plan = single_step_plan(flock)
        note = "naive single-step plan" + (
            "" if db is not None else " (no data directory: no statistics)"
        )
    else:
        plan, _ = certified_plan(db, flock)
        note = f"cost-based plan ({args.strategy})"
    print(f"# {note}")
    print(plan.render(flock))
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    flock, db = _load(args.flock, args.data)
    print("-- naive translation (Fig. 1 style)")
    print(flock_to_sql(flock, db))
    if args.rewrite:
        if db is None:
            print("-- (rewrite requires a data directory for statistics)",
                  file=sys.stderr)
            return 2
        plan, _ = certified_plan(db, flock)
        print("\n-- a-priori rewrite")
        print(plan_to_sql(flock, plan, db))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    flock, db = _load(args.flock, args.data)
    print(f"parameters: {', '.join(flock.parameter_columns)}")
    print(f"filter:     {flock.filter} "
          f"(monotone: {flock.filter.is_monotone})")
    print(f"relations:  {', '.join(sorted(flock.predicates()))}")
    for index, rule in enumerate(flock.rules):
        label = f"rule {index + 1}" if flock.is_union else "query"
        report = check_safety(rule)
        print(f"\n{label}: {rule}")
        print(f"  safe: {report.is_safe}")
        safe = safe_subqueries(rule)
        unsafe = unsafe_subqueries(rule)
        print(f"  nontrivial subqueries: {len(safe) + len(unsafe)} "
              f"({len(safe)} safe)")
        for candidate in safe:
            params = ", ".join(sorted(str(p) for p in candidate.parameters))
            print(f"    [{params or '-'}] {candidate.query}")
        if db is not None:
            from .engine.planner import lower_rule

            print()
            print("  " + lower_rule(db, rule).render().replace("\n", "\n  "))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .relational.io import save_database
    from . import workloads

    if args.domain == "baskets":
        db = workloads.basket_database(
            n_baskets=args.size, n_items=max(args.size // 2, 10),
            skew=args.skew, seed=args.seed,
        )
    elif args.domain == "weighted":
        db = workloads.generate_weighted_baskets(
            n_baskets=args.size, n_items=max(args.size // 2, 10),
            skew=args.skew, seed=args.seed,
        )
    elif args.domain == "medical":
        db = workloads.generate_medical(
            n_patients=args.size, seed=args.seed
        ).db
    elif args.domain == "web":
        db = workloads.generate_webdocs(
            n_documents=args.size, n_anchors=args.size * 3, seed=args.seed
        ).db
    elif args.domain == "graph":
        db = workloads.generate_hub_digraph(seed=args.seed)
    elif args.domain == "articles":
        db = workloads.article_database(
            n_articles=args.size, skew=args.skew, seed=args.seed
        )
    else:  # pragma: no cover - argparse choices guard
        raise AssertionError(args.domain)
    save_database(db, args.outdir)
    print(f"wrote {db} to {args.outdir}")
    return 0


def cmd_session(args: argparse.Namespace) -> int:
    """REPL-style interactive mining session over one warm database.

    Reads commands from a ``--script`` file or stdin, one per line::

        run FLOCKFILE [SUPPORT]   evaluate a flock (optional support
                                  threshold override); repeated/stricter
                                  runs come from the result cache
        stats                     print the session's cache counters
        help                      list commands
        quit / exit               leave (EOF works too)
    """
    from .session import MiningSession, with_support_threshold

    db = load_database(args.data)
    budget = _run_budget(args)
    options = MiningOptions.from_args(args)
    session = MiningSession(
        db,
        budget=budget,
        max_cache_rows=args.cache_rows,
        persist_path=args.persist,
    )

    if args.script is not None:
        lines = Path(args.script).read_text().splitlines()
        interactive = False
    else:
        lines = None
        interactive = sys.stdin.isatty()

    def commands():
        if lines is not None:
            yield from lines
            return
        while True:
            if interactive:
                print("repro> ", end="", file=sys.stderr, flush=True)
            line = sys.stdin.readline()
            if not line:
                return
            yield line

    status = 0
    with session:
        for raw in commands():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            command, rest = parts[0].lower(), parts[1:]
            if command in ("quit", "exit"):
                break
            if command == "help":
                print("commands: run FLOCKFILE [SUPPORT] | stats | "
                      "help | quit")
                continue
            if command == "stats":
                print(session.stats())
                continue
            if command == "run":
                if not rest:
                    print("usage: run FLOCKFILE [SUPPORT]", file=sys.stderr)
                    status = 2
                    continue
                try:
                    flock = parse_flock(Path(rest[0]).read_text())
                    if len(rest) > 1:
                        threshold_text = rest[1]
                        threshold = (
                            float(threshold_text) if "." in threshold_text
                            else int(threshold_text)
                        )
                        flock = with_support_threshold(flock, threshold)
                    relation, report = session.mine(flock, options=options)
                except (ReproError, FileNotFoundError, ValueError) as error:
                    print(f"error: {error}", file=sys.stderr)
                    status = 1
                    continue
                cache_note = (
                    f" +{report.cache_step_hits} step hits"
                    if report.cache_step_hits else ""
                )
                print(f"# {len(relation)} acceptable assignments "
                      f"({report.strategy_used}{cache_note}, "
                      f"{report.seconds * 1e3:.1f} ms)")
                print("\t".join(relation.columns))
                for row in sorted(relation.tuples, key=repr)[: args.limit]:
                    print("\t".join(str(v) for v in row))
                if len(relation) > args.limit:
                    print(f"... and {len(relation) - args.limit} more")
                continue
            print(f"unknown command: {command!r} (try 'help')",
                  file=sys.stderr)
            status = 2
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the mining service daemon over one CSV data directory."""
    from .serve import MiningService, ServerConfig, serve_blocking

    budget = _run_budget(args)
    db = load_database(args.data)
    defaults = MiningOptions.given(args)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        tenant_budget=budget,
        max_queued_per_tenant=args.max_queued,
        cache_entries=args.cache_entries,
        cache_rows=args.cache_rows,
        # Here --checkpoint is where the server keeps the store that
        # {"checkpoint": true} requests write to, not a per-call default.
        checkpoint_path=defaults.pop("checkpoint", None),
        **defaults,
    )
    service = MiningService(db, config)

    def ready(address: str) -> None:
        relations = ", ".join(
            f"{name}[{len(db.get(name))}]" for name in db.names()
        )
        print(f"serving {relations or '(empty database)'}", file=sys.stderr)
        print(f"listening on {address} "
              f"({config.workers} worker(s); Ctrl-C to stop)",
              file=sys.stderr, flush=True)

    serve_blocking(service, ready=ready)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Evaluate one flock against a running ``repro serve`` daemon."""
    from .serve import MiningClient, ServeError

    text = Path(args.flock).read_text()
    client = MiningClient(args.server, tenant=args.tenant)
    try:
        result = client.mine(
            text,
            threshold=args.threshold,
            strategy=args.strategy,
            timeout=args.timeout,
            max_rows=args.max_rows,
            limit=args.limit,
        )
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = result.get("report", {})
    cache_note = ""
    if report.get("cache_hits"):
        cache_note = ", cache hit"
    elif report.get("cache_step_hits"):
        cache_note = f", {report['cache_step_hits']} step hit(s)"
    print(f"# {result['row_count']} acceptable assignments "
          f"({report.get('strategy_used', '?')}{cache_note}, "
          f"{result['seconds'] * 1e3:.1f} ms, run {result['run_id']})")
    print("\t".join(result["columns"]))
    for row in result["rows"]:
        print("\t".join(str(v) for v in row))
    if result.get("truncated"):
        print(f"... and {result['row_count'] - len(result['rows'])} more "
              "(raise --limit to see them)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """One-pass verification: lint + safety + plan certification +
    (with a data directory) the IR schema check.

    Exit codes: 0 clean, 3 warnings only, 4 errors.  ``info``-severity
    diagnostics are printed but never affect the exit code.
    ``repro lint`` is an alias limited to no data directory.
    ``--concurrency`` runs the conlint passes over source paths
    instead (the positional becomes a path, default ``src/repro``).
    """
    if getattr(args, "concurrency", False):
        from .analysis.conlint.runner import (
            discover, lint_paths, render_text, to_json,
        )

        paths = [args.flock] if args.flock else ["src/repro"]
        report = lint_paths(paths)
        if args.format == "json":
            import json

            print(json.dumps(to_json(report), indent=2, sort_keys=True))
        else:
            print(render_text(report, len(discover(paths))))
        return report.exit_code()
    from .analysis.check import check_flock

    if args.flock is None:
        print("error: a flock file is required (or pass --concurrency)",
              file=sys.stderr)
        return 2
    flock, db = _load(args.flock, args.data)
    result = check_flock(flock, db=db)
    if args.format == "json":
        import json

        print(json.dumps(result.to_dict(), indent=2))
        return result.exit_code()
    for diagnostic in result.report:
        print(diagnostic)
    errors = len(result.report.errors)
    warnings = len(result.report.warnings)
    if errors or warnings:
        print(f"{errors} error(s), {warnings} warning(s)")
    else:
        print("clean: no warnings")
    return result.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query flocks (SIGMOD 1998) — mine relational data "
        "with parametrized queries and support filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a flock against CSV data")
    run.add_argument("flock", help="path to a flock file (QUERY:/FILTER:)")
    run.add_argument("data", help="directory of <relation>.csv files")
    MiningOptions.add_arguments(run, (
        "--strategy", "--backend", "--checkpoint", "--run-id", "--resume",
        "--jobs",
    ))
    run.add_argument("--timeout", type=_nonnegative_float, default=None,
                     metavar="SECONDS",
                     help="wall-clock budget; exceeding it aborts with a "
                     "budget error instead of running forever")
    run.add_argument("--max-rows", type=_nonnegative_int, default=None,
                     metavar="N",
                     help="largest intermediate relation allowed during "
                     "evaluation")
    run.add_argument("--limit", type=int, default=50,
                     help="max result rows to print")
    run.add_argument("--verbose", action="store_true",
                     help="print the execution trace to stderr")
    run.set_defaults(fn=cmd_run)

    plan = sub.add_parser("plan", help="show the chosen query plan")
    plan.add_argument("flock")
    plan.add_argument("data", nargs="?", default=None)
    plan.add_argument("--strategy", choices=("naive", "optimized"),
                      default="optimized")
    plan.set_defaults(fn=cmd_plan)

    sql = sub.add_parser("sql", help="emit SQL translations")
    sql.add_argument("flock")
    sql.add_argument("data", nargs="?", default=None)
    sql.add_argument("--rewrite", action="store_true",
                     help="also emit the a-priori rewrite script")
    sql.set_defaults(fn=cmd_sql)

    explain = sub.add_parser(
        "explain", help="safety and subquery analysis of a flock"
    )
    explain.add_argument("flock")
    explain.add_argument(
        "data", nargs="?", default=None,
        help="optional data directory: adds EXPLAIN join-order output",
    )
    explain.set_defaults(fn=cmd_explain)

    session = sub.add_parser(
        "session",
        help="interactive mining session with a warm result cache",
    )
    session.add_argument("data", help="directory of <relation>.csv files")
    MiningOptions.add_arguments(
        session, ("--strategy", "--backend", "--jobs")
    )
    session.add_argument("--script", default=None, metavar="FILE",
                         help="read commands from FILE instead of stdin")
    session.add_argument("--timeout", type=_nonnegative_float, default=None,
                         metavar="SECONDS",
                         help="per-query wall-clock budget")
    session.add_argument("--max-rows", type=_nonnegative_int, default=None,
                         metavar="N",
                         help="per-query intermediate row budget")
    session.add_argument("--cache-rows", type=_nonnegative_int,
                         default=100_000, metavar="N",
                         help="total rows the result cache may hold")
    session.add_argument("--persist", default=None, metavar="PATH",
                         help="SQLite file to persist cached results in "
                         "(warm start across invocations)")
    session.add_argument("--limit", type=int, default=50,
                         help="max result rows to print per query")
    session.set_defaults(fn=cmd_session)

    check = sub.add_parser(
        "check",
        help="verify a flock: lint + safety + certified plan legality "
        "+ IR schema check (exit 0 clean / 3 warnings / 4 errors)",
    )
    check.add_argument(
        "flock", nargs="?", default=None,
        help="path to a flock file (QUERY:/FILTER:); with --concurrency, "
        "a source path to lint instead (default src/repro)",
    )
    check.add_argument(
        "data", nargs="?", default=None,
        help="optional data directory: also lowers and type-checks every "
        "FILTER step's physical plan against the catalog",
    )
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (json emits the structured "
                       "diagnostics)")
    check.add_argument(
        "--concurrency", action="store_true",
        help="run the concurrency lint (lock discipline, wire safety, "
        "async blocking, cancellation) over source paths",
    )
    check.set_defaults(fn=cmd_check)

    lint = sub.add_parser(
        "lint",
        help="alias of 'check' without a data directory "
        "(exit 3 when warnings found)",
    )
    lint.add_argument("flock")
    lint.set_defaults(fn=cmd_check, data=None, format="text")

    serve = sub.add_parser(
        "serve",
        help="start the mining service (HTTP/JSON daemon over one "
        "shared session/cache)",
    )
    serve.add_argument("data", help="directory of <relation>.csv files")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_nonnegative_int, default=8321,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--workers", type=positive_int, default=2,
                       metavar="N",
                       help="concurrent mining calls (dispatcher threads)")
    # Per-call defaults for requests that name none.
    MiningOptions.add_arguments(serve, (
        "--strategy", "--backend", "--jobs", "--checkpoint",
    ))
    serve.add_argument("--timeout", type=_nonnegative_float, default=None,
                       metavar="SECONDS",
                       help="per-request wall-clock cap (tenant budget; "
                       "requests can tighten it, never loosen it)")
    serve.add_argument("--max-rows", type=_nonnegative_int, default=None,
                       metavar="N",
                       help="per-request intermediate-row cap")
    serve.add_argument("--max-queued", type=positive_int, default=16,
                       metavar="N",
                       help="per-tenant bound on queued+running requests "
                       "(beyond it: HTTP 429)")
    serve.add_argument("--cache-entries", type=positive_int, default=256,
                       metavar="N",
                       help="result-cache entry cap")
    serve.add_argument("--cache-rows", type=_nonnegative_int,
                       default=500_000, metavar="N",
                       help="result-cache total-row cap")
    serve.set_defaults(fn=cmd_serve)

    query = sub.add_parser(
        "query",
        help="evaluate a flock against a running 'repro serve' daemon",
    )
    query.add_argument("flock", help="path to a flock file (QUERY:/FILTER:)")
    query.add_argument("--server", required=True, metavar="URL",
                       help="base URL, e.g. http://127.0.0.1:8321")
    query.add_argument("--tenant", default=None,
                       help="tenant name for admission control")
    query.add_argument("--threshold", type=_nonnegative_float, default=None,
                       help="override the flock's support threshold")
    MiningOptions.add_arguments(query, ("--strategy",))
    query.add_argument("--timeout", type=_nonnegative_float, default=None,
                       metavar="SECONDS",
                       help="request wall-clock budget")
    query.add_argument("--max-rows", type=_nonnegative_int, default=None,
                       metavar="N",
                       help="request intermediate-row budget")
    query.add_argument("--limit", type=int, default=50,
                       help="max result rows to fetch")
    query.set_defaults(fn=cmd_query)

    generate = sub.add_parser(
        "generate", help="write a synthetic workload as CSV files"
    )
    generate.add_argument(
        "domain",
        choices=("baskets", "weighted", "medical", "web", "graph", "articles"),
    )
    generate.add_argument("outdir", help="directory for <relation>.csv files")
    generate.add_argument("--size", type=int, default=500,
                          help="scale knob (baskets/patients/documents/...)")
    generate.add_argument("--skew", type=float, default=1.1,
                          help="Zipf exponent where applicable")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(fn=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Reader closed early (e.g. `repro query ... | head`): the
        # POSIX convention is a silent exit, not a traceback.  Point
        # stdout at devnull so the interpreter's exit-time flush of the
        # broken pipe cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
