"""Tests for the mine() front door and bag-semantics documentation tests."""

import pytest

from repro import MiningOptions, mine
from repro.errors import FilterError
from repro.flocks import (
    QueryFlock,
    evaluate_flock,
    parse_filter,
    support_filter,
)
from repro.datalog import atom, comparison, rule


class TestMine:
    @pytest.mark.parametrize(
        "strategy", ["auto", "naive", "optimized", "dynamic"]
    )
    def test_all_strategies_agree(self, small_basket_db, basket_flock, strategy):
        reference = evaluate_flock(small_basket_db, basket_flock)
        relation, report = mine(small_basket_db, basket_flock, strategy=strategy)
        assert relation == reference
        assert report.strategy_requested == strategy

    def test_auto_uses_dynamic_for_single_rule(self, small_basket_db, basket_flock):
        _, report = mine(small_basket_db, basket_flock)
        assert report.strategy_used == "dynamic"
        assert report.decision_text

    def test_auto_uses_optimized_for_unions(self, small_web_db, web_flock):
        relation, report = mine(small_web_db, web_flock)
        assert report.strategy_used == "optimized"
        assert relation == evaluate_flock(small_web_db, web_flock)

    def test_auto_falls_back_to_naive_for_non_monotone(
        self, small_medical_db, medical_query
    ):
        flock = QueryFlock(medical_query, parse_filter("COUNT(answer.P) = 2"))
        relation, report = mine(small_medical_db, flock)
        assert report.strategy_used == "naive"
        assert relation == evaluate_flock(small_medical_db, flock)

    def test_lint_warnings_in_report(self, small_basket_db):
        q = rule(
            "answer", ["B"],
            [atom("baskets", "B", "$1"), atom("baskets", "B", "$2"),
             comparison("$1", "<", "$2"), comparison("$2", "<", "$1")],
        )
        flock = QueryFlock(q, support_filter(2, target="B"))
        _, report = mine(small_basket_db, flock)
        assert report.warnings
        assert "unsatisfiable" in str(report)

    def test_unknown_strategy_rejected(self, small_basket_db, basket_flock):
        with pytest.raises(FilterError):
            mine(small_basket_db, basket_flock, strategy="magic")

    def test_plan_text_for_optimized(self, small_basket_db, basket_flock):
        _, report = mine(small_basket_db, basket_flock, strategy="optimized")
        assert report.plan_text is not None
        assert "FILTER" in report.plan_text

    def test_report_str_readable(self, small_basket_db, basket_flock):
        _, report = mine(small_basket_db, basket_flock, strategy="optimized")
        text = str(report)
        assert "strategy: optimized" in text
        assert "ms" in text


class TestOptimizerKnobs:
    """Every plan orders its joins by UES bounds and passes pre-filter
    survivors sideways as runtime filters: no knob selects either, and
    the report counts the scan rows the filters pruned."""

    @pytest.fixture(scope="class")
    def pruning_db(self):
        from repro.workloads import article_database

        return article_database(
            n_articles=60, vocabulary=400, words_per_article=20, skew=0.8,
            seed=101,
        )

    @pytest.fixture(scope="class")
    def pruning_flock(self):
        q = rule(
            "answer", ["B"],
            [atom("baskets", "B", "$1"), atom("baskets", "B", "$2"),
             comparison("$1", "<", "$2")],
        )
        return QueryFlock(q, parse_filter("COUNT(answer.B) >= 4"))

    @staticmethod
    def mine_pruning(db, flock, **options):
        """``mine(strategy="optimized")``, checked to have picked a
        pre-filter plan: with one step there is nothing to prune."""
        relation, report = mine(db, flock, strategy="optimized", **options)
        assert report.plan_text.count("FILTER") >= 2
        return relation, report

    def test_unknown_join_order_rejected(self, small_basket_db, basket_flock):
        """There is no orderer to choose: the deleted option is an
        unknown keyword, whichever order it names."""
        for order in ("greedy", "ues"):
            with pytest.raises(TypeError, match="join_order"):
                mine(small_basket_db, basket_flock, join_order=order)
            with pytest.raises(TypeError, match="join_order"):
                MiningOptions(join_order=order)

    def test_ues_defaults_runtime_filters_on(self, pruning_db, pruning_flock):
        _, report = self.mine_pruning(
            pruning_db, pruning_flock, parallelism=1,
        )
        assert "join_order" not in report.to_dict()
        assert report.runtime_filter_rows_pruned > 0

    def test_no_pruning_prints_no_filter_line(self, pruning_db, pruning_flock):
        """The single-step plan has no pre-filter step to pass sideways,
        so nothing is pruned and the report says nothing about it."""
        _, report = mine(
            pruning_db, pruning_flock, strategy="naive", parallelism=1,
        )
        assert report.runtime_filter_rows_pruned == 0
        assert "runtime filters" not in str(report)

    def test_deleted_switches_are_type_errors(
        self, small_basket_db, basket_flock
    ):
        """Runtime filters are part of every plan and linting always
        runs: neither has a switch of its own."""
        with pytest.raises(TypeError, match="runtime_filters"):
            MiningOptions(runtime_filters=True)
        with pytest.raises(TypeError, match="lint"):
            mine(small_basket_db, basket_flock, lint=False)

    def test_runtime_filters_prune_rows(self, pruning_db, pruning_flock):
        """The a-priori pre-filter step's survivors restrict later scans,
        and the survivors are those of the single-step plan, which has
        nothing to filter with."""
        baseline, _ = mine(
            pruning_db, pruning_flock, strategy="naive", parallelism=1,
        )
        filtered, report = self.mine_pruning(
            pruning_db, pruning_flock, parallelism=1,
        )
        assert filtered == baseline
        assert report.runtime_filter_rows_pruned > 0

    def test_stage_observations_carry_sound_bounds(
        self, pruning_db, pruning_flock
    ):
        _, report = self.mine_pruning(
            pruning_db, pruning_flock, parallelism=1,
        )
        assert report.stage_rows
        for obs in report.stage_rows:
            assert obs.actual >= 0
            assert obs.estimated >= 0
            # The UES bound is a certificate: never below the rows the
            # stage actually produced.
            if obs.bound is not None:
                assert obs.bound >= obs.actual

    def test_observability_survives_jobs(self, pruning_db, pruning_flock):
        """Steps ``--jobs`` leaves serial run on the executor loop's own
        runner: when nothing was partitioned, the report carries the
        serial run's stage rows and pruned-row count."""
        _, serial = self.mine_pruning(
            pruning_db, pruning_flock, parallelism=1,
        )
        _, jobs = self.mine_pruning(
            pruning_db, pruning_flock, parallelism=2,
        )
        assert jobs.parallelism_used == 1
        assert jobs.stage_rows == serial.stage_rows != ()
        assert (
            jobs.runtime_filter_rows_pruned
            == serial.runtime_filter_rows_pruned > 0
        )

    def test_report_str_mentions_pruning(self, pruning_db, pruning_flock):
        _, report = self.mine_pruning(
            pruning_db, pruning_flock, parallelism=1,
        )
        text = str(report)
        assert "runtime filters" in text
        assert "pruned" in text


class TestBagSemanticsCaveat:
    """The paper: "we assume that extended CQ's follow the conventional
    set semantics rather than bag semantics ... Some of our claims would
    not hold for bag semantics."  This test documents the counterexample:
    under bags, a subquery can *under*-count relative to the full query,
    so the upper-bound property (the basis of a-priori) fails.
    """

    def test_bag_counts_break_the_upper_bound(self):
        # Database: baskets(B, I) with items i1, i2 in one basket.
        # Full query: answer(B) :- baskets(B,$1) AND baskets(B,$2)
        # with $1=i1, $2=i2 matches once per (row1, row2) combination —
        # under bag semantics the JOIN of the two subgoals yields MORE
        # rows than either single subgoal, so the single-subgoal
        # "bound" |answer_sub| >= |answer_full| fails.
        rows = [("b1", "i1"), ("b1", "i2"), ("b1", "i2")]  # a bag: i2 twice

        def bag_eval_full(rows, item1, item2):
            return [
                (r1[0],)
                for r1 in rows
                for r2 in rows
                if r1[0] == r2[0] and r1[1] == item1 and r2[1] == item2
            ]

        def bag_eval_sub(rows, item1):
            return [(r[0],) for r in rows if r[1] == item1]

        full = bag_eval_full(rows, "i1", "i2")   # 1 x 2 = 2 bag-tuples
        sub = bag_eval_sub(rows, "i1")           # 1 bag-tuple
        # Bag semantics: the "cheaper" subquery count (1) is NOT an
        # upper bound on the full count (2).
        assert len(sub) < len(full)

        # Set semantics (our engine): the bound holds, always.
        from repro.relational import Relation, Database, evaluate_conjunctive
        from repro.datalog import parse_rule

        db = Database([Relation("baskets", ("B", "I"), set(rows))])
        full_q = parse_rule("answer(B) :- baskets(B,'i1') AND baskets(B,'i2')")
        sub_q = parse_rule("answer(B) :- baskets(B,'i1')")
        assert len(evaluate_conjunctive(db, sub_q)) >= len(
            evaluate_conjunctive(db, full_q)
        )
