"""CLI tests: every subcommand driven through main() with real files."""

import pytest

from repro.cli import main
from repro.relational import save_database
from repro.workloads import basket_database


FLOCK_TEXT = """QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2

FILTER:
COUNT(answer.B) >= 5
"""


@pytest.fixture
def workspace(tmp_path):
    flock_file = tmp_path / "flock.txt"
    flock_file.write_text(FLOCK_TEXT)
    data_dir = tmp_path / "data"
    db = basket_database(n_baskets=120, n_items=60, skew=1.2, seed=3)
    save_database(db, data_dir)
    return flock_file, data_dir


class TestRun:
    @pytest.mark.parametrize("strategy", ["naive", "optimized", "dynamic"])
    def test_strategies_all_run(self, workspace, capsys, strategy):
        flock_file, data_dir = workspace
        code = main(["run", str(flock_file), str(data_dir),
                     "--strategy", strategy])
        assert code == 0
        out = capsys.readouterr().out
        assert "acceptable assignments" in out
        assert "$1\t$2" in out

    def test_strategies_agree(self, workspace, capsys):
        flock_file, data_dir = workspace
        outputs = []
        for strategy in ("naive", "optimized", "dynamic"):
            main(["run", str(flock_file), str(data_dir),
                  "--strategy", strategy, "--limit", "1000"])
            out = capsys.readouterr().out
            rows = frozenset(
                line for line in out.splitlines()
                if line and not line.startswith(("#", "$"))
            )
            outputs.append(rows)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_limit_truncates(self, workspace, capsys):
        flock_file, data_dir = workspace
        main(["run", str(flock_file), str(data_dir), "--limit", "1"])
        out = capsys.readouterr().out
        assert "more" in out

    @pytest.mark.parametrize(
        "strategy", ["naive", "optimized", "dynamic"]
    )
    def test_verbose_prints_the_mining_report(
        self, workspace, capsys, strategy
    ):
        """Every strategy goes through mine(): --verbose is its report,
        not a per-strategy trace."""
        flock_file, data_dir = workspace
        main(["run", str(flock_file), str(data_dir), "--strategy", strategy,
              "--verbose"])
        err = capsys.readouterr().err
        assert "# trace" in err
        assert f"strategy: {strategy} (requested {strategy})" in err

    def test_quiet_without_verbose(self, workspace, capsys):
        flock_file, data_dir = workspace
        main(["run", str(flock_file), str(data_dir), "--strategy", "naive"])
        assert capsys.readouterr().err == ""

    def test_jobs_matches_serial(self, force_pool, workspace, capsys):
        flock_file, data_dir = workspace
        outputs = []
        for jobs in ("1", "2"):
            code = main(["run", str(flock_file), str(data_dir),
                         "--strategy", "naive", "--jobs", jobs,
                         "--limit", "1000"])
            assert code == 0
            out = capsys.readouterr().out
            rows = frozenset(
                line for line in out.splitlines()
                if line and not line.startswith(("#", "$"))
            )
            outputs.append(rows)
        assert outputs[0] == outputs[1]

    def test_jobs_reported_in_trace(self, force_pool, workspace, capsys):
        flock_file, data_dir = workspace
        code = main(["run", str(flock_file), str(data_dir),
                     "--strategy", "naive", "--jobs", "2", "--verbose"])
        assert code == 0
        err = capsys.readouterr().err
        assert "parallelism: 2 jobs" in err

    def test_jobs_unset_defers_to_repro_jobs(
        self, workspace, capsys, monkeypatch
    ):
        """--jobs left out reaches mine() as parallelism=None, so the
        REPRO_JOBS default applies; an explicit --jobs 1 still wins."""
        import repro.cli

        flock_file, data_dir = workspace
        seen = []

        def spy(db, flock, **kwargs):
            seen.append(kwargs["options"].parallelism)
            return real_mine(db, flock, **kwargs)

        real_mine = repro.cli.mine
        monkeypatch.setattr(repro.cli, "mine", spy)
        monkeypatch.setenv("REPRO_JOBS", "2")
        run = ["run", str(flock_file), str(data_dir), "--strategy", "naive",
               "--verbose"]
        assert main(run) == 0
        assert "(requested 2)" in capsys.readouterr().err
        assert main(run + ["--jobs", "1"]) == 0
        assert "parallelism:" not in capsys.readouterr().err
        assert seen == [None, 1]

    def test_jobs_rejects_zero(self, workspace, capsys):
        flock_file, data_dir = workspace
        with pytest.raises(SystemExit):
            main(["run", str(flock_file), str(data_dir), "--jobs", "0"])

    @pytest.mark.parametrize("argv", [
        ["--join-order", "ues"], ["--runtime-filters"],
    ])
    def test_deleted_ordering_choices_exit_2(self, workspace, capsys, argv):
        """Every plan takes the UES order with runtime filters: neither
        ``run`` nor ``serve`` has a flag to choose."""
        flock_file, data_dir = workspace
        for command in (
            ["run", str(flock_file), str(data_dir)], ["serve", str(data_dir)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([*command, *argv])
            assert excinfo.value.code == 2
            assert argv[0] in capsys.readouterr().err


class TestPlan:
    def test_plan_renders_filter_steps(self, workspace, capsys):
        flock_file, data_dir = workspace
        code = main(["plan", str(flock_file), str(data_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert ":= FILTER" in out

    def test_naive_plan_without_data(self, workspace, capsys):
        flock_file, _ = workspace
        code = main(["plan", str(flock_file), "--strategy", "naive"])
        assert code == 0
        out = capsys.readouterr().out
        assert "single-step" in out


class TestSql:
    def test_naive_sql(self, workspace, capsys):
        flock_file, data_dir = workspace
        code = main(["sql", str(flock_file), str(data_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "GROUP BY" in out and "HAVING" in out

    def test_rewrite_sql(self, workspace, capsys):
        flock_file, data_dir = workspace
        code = main(["sql", str(flock_file), str(data_dir), "--rewrite"])
        assert code == 0
        out = capsys.readouterr().out
        assert "a-priori rewrite" in out

    def test_rewrite_without_data_fails(self, workspace, capsys):
        flock_file, _ = workspace
        code = main(["sql", str(flock_file), "--rewrite"])
        assert code == 2


class TestExplain:
    def test_explain_lists_subqueries(self, workspace, capsys):
        flock_file, _ = workspace
        code = main(["explain", str(flock_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "monotone: True" in out
        assert "safe: True" in out
        assert "answer(B) :- baskets(B, $1)" in out


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["explain", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flock_text(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a flock")
        code = main(["explain", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestLint:
    def test_clean_flock(self, workspace, capsys):
        flock_file, _ = workspace
        code = main(["lint", str(flock_file)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_warnings_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "QUERY:\n"
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND "
            "$1 < $2 AND $2 < $1\n"
            "FILTER:\nCOUNT(answer.B) >= 5\n"
        )
        code = main(["lint", str(bad)])
        assert code == 3
        assert "unsatisfiable-comparisons" in capsys.readouterr().out


class TestExplainWithData:
    def test_explain_includes_join_plan(self, workspace, capsys):
        flock_file, data_dir = workspace
        code = main(["explain", str(flock_file), str(data_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "scan " in out


class TestAutoStrategy:
    def test_auto_default(self, workspace, capsys):
        flock_file, data_dir = workspace
        code = main(["run", str(flock_file), str(data_dir)])
        assert code == 0
        assert "(auto," in capsys.readouterr().out

    def test_auto_verbose_shows_mining_report(self, workspace, capsys):
        flock_file, data_dir = workspace
        main(["run", str(flock_file), str(data_dir), "--verbose"])
        err = capsys.readouterr().err
        assert "strategy: dynamic (requested auto)" in err


class TestGenerate:
    @pytest.mark.parametrize(
        "domain", ["baskets", "weighted", "medical", "web", "graph", "articles"]
    )
    def test_domains_write_csvs(self, tmp_path, capsys, domain):
        out = tmp_path / domain
        code = main(["generate", domain, str(out), "--size", "40", "--seed", "5"])
        assert code == 0
        assert list(out.glob("*.csv"))
        assert "wrote" in capsys.readouterr().out

    def test_generated_data_runs_a_flock(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["generate", "baskets", str(out), "--size", "80", "--seed", "6"])
        flock_file = tmp_path / "flock.txt"
        flock_file.write_text(FLOCK_TEXT)
        code = main(["run", str(flock_file), str(out), "--strategy", "naive"])
        assert code == 0

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "baskets", str(a), "--size", "30", "--seed", "7"])
        main(["generate", "baskets", str(b), "--size", "30", "--seed", "7"])
        assert (a / "baskets.csv").read_text() == (b / "baskets.csv").read_text()


UNION_FLOCK_TEXT = """QUERY:
answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2

FILTER:
COUNT(answer(*)) >= 5
"""


@pytest.fixture
def union_workspace(tmp_path):
    from repro.workloads import generate_webdocs

    flock_file = tmp_path / "union.txt"
    flock_file.write_text(UNION_FLOCK_TEXT)
    data_dir = tmp_path / "webdata"
    workload = generate_webdocs(n_documents=80, n_anchors=160, seed=21)
    save_database(workload.db, data_dir)
    return flock_file, data_dir


class TestUnionFlockCli:
    def test_run_optimized_union(self, union_workspace, capsys):
        flock_file, data_dir = union_workspace
        code = main(["run", str(flock_file), str(data_dir),
                     "--strategy", "optimized"])
        assert code == 0
        assert "acceptable assignments" in capsys.readouterr().out

    def test_plan_union(self, union_workspace, capsys):
        flock_file, data_dir = union_workspace
        code = main(["plan", str(flock_file), str(data_dir)])
        assert code == 0
        assert ":= FILTER" in capsys.readouterr().out

    def test_run_auto_union(self, union_workspace, capsys):
        flock_file, data_dir = union_workspace
        code = main(["run", str(flock_file), str(data_dir)])
        assert code == 0

    def test_union_strategies_agree(self, union_workspace, capsys):
        flock_file, data_dir = union_workspace
        outputs = []
        for strategy in ("naive", "optimized"):
            main(["run", str(flock_file), str(data_dir),
                  "--strategy", strategy, "--limit", "1000"])
            out = capsys.readouterr().out
            rows = frozenset(
                line for line in out.splitlines()
                if line and not line.startswith(("#", "$"))
            )
            outputs.append(rows)
        assert outputs[0] == outputs[1]


class TestSession:
    def test_script_warm_run_hits_cache(self, workspace, tmp_path, capsys):
        flock_file, data_dir = workspace
        script = tmp_path / "session.txt"
        script.write_text(
            f"run {flock_file} 5\n"
            f"run {flock_file} 8\n"
            "stats\n"
            "quit\n"
        )
        code = main(["session", str(data_dir), "--script", str(script)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("acceptable assignments") == 2
        assert "(cache" in out
        assert "1 exact hits" in out

    def test_threshold_override_changes_answer(self, workspace, tmp_path,
                                               capsys):
        flock_file, data_dir = workspace
        script = tmp_path / "session.txt"
        script.write_text(f"run {flock_file} 2\nrun {flock_file} 50\n")
        code = main(["session", str(data_dir), "--script", str(script)])
        assert code == 0
        counts = [
            int(line.split()[1])
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("# ")
        ]
        assert len(counts) == 2
        assert counts[0] > counts[1]

    def test_bad_command_sets_status(self, workspace, tmp_path, capsys):
        _, data_dir = workspace
        script = tmp_path / "session.txt"
        script.write_text("frobnicate\n")
        code = main(["session", str(data_dir), "--script", str(script)])
        assert code == 2
        assert "unknown command" in capsys.readouterr().err

    def test_missing_flock_file_reports_error(self, workspace, tmp_path,
                                              capsys):
        _, data_dir = workspace
        script = tmp_path / "session.txt"
        script.write_text("run /nonexistent.flock\n")
        code = main(["session", str(data_dir), "--script", str(script)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_persist_warms_second_invocation(self, workspace, tmp_path,
                                             capsys):
        flock_file, data_dir = workspace
        cache_db = tmp_path / "cache.db"
        script = tmp_path / "session.txt"
        script.write_text(f"run {flock_file}\n")
        main(["session", str(data_dir), "--script", str(script),
              "--persist", str(cache_db)])
        capsys.readouterr()
        code = main(["session", str(data_dir), "--script", str(script),
                     "--persist", str(cache_db)])
        assert code == 0
        assert "(cache" in capsys.readouterr().out


class TestCheckpointResume:
    def test_checkpoint_run_prints_run_id(self, workspace, capsys, tmp_path):
        flock_file, data_dir = workspace
        ckpt = tmp_path / "ckpt.db"
        code = main(["run", str(flock_file), str(data_dir),
                     "--checkpoint", str(ckpt), "--run-id", "cli1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "checkpoint run cli1" in err
        assert ckpt.exists()

    def test_resume_round_trip(self, workspace, capsys, tmp_path):
        flock_file, data_dir = workspace
        ckpt = tmp_path / "ckpt.db"
        main(["run", str(flock_file), str(data_dir),
              "--checkpoint", str(ckpt), "--run-id", "cli2"])
        first = capsys.readouterr().out
        code = main(["run", str(flock_file), str(data_dir),
                     "--checkpoint", str(ckpt), "--resume", "cli2"])
        captured = capsys.readouterr()
        assert code == 0

        def rows(text):  # drop the "# ... ms" header: timing varies
            return [
                line for line in text.splitlines()
                if not line.startswith("#")
            ]

        assert rows(captured.out) == rows(first)  # bit-identical answer
        assert "resumed" in captured.err

    def test_resume_requires_checkpoint(self, workspace, capsys):
        flock_file, data_dir = workspace
        code = main(["run", str(flock_file), str(data_dir),
                     "--resume", "cli3"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_unknown_run_id_is_clean_error(
        self, workspace, capsys, tmp_path
    ):
        flock_file, data_dir = workspace
        ckpt = tmp_path / "ckpt.db"
        main(["run", str(flock_file), str(data_dir),
              "--checkpoint", str(ckpt)])
        capsys.readouterr()
        code = main(["run", str(flock_file), str(data_dir),
                     "--checkpoint", str(ckpt), "--resume", "missing"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_runs_on_sqlite_backend(
        self, workspace, capsys, tmp_path
    ):
        flock_file, data_dir = workspace
        ckpt = tmp_path / "ckpt.db"
        main(["run", str(flock_file), str(data_dir)])
        expected = capsys.readouterr().out
        code = main(["run", str(flock_file), str(data_dir), "--verbose",
                     "--checkpoint", str(ckpt), "--backend", "sqlite"])
        captured = capsys.readouterr()
        assert code == 0

        def rows(text):  # drop the "# ... ms" header: timing varies
            return [
                line for line in text.splitlines()
                if not line.startswith("#")
            ]

        assert rows(captured.out) == rows(expected)
        assert "checkpoint run" in captured.err
        assert "backend: sqlite (requested sqlite)" in captured.err
