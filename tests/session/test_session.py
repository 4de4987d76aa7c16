"""MiningSession end-to-end tests: the PR's acceptance criteria live here.

* a flock re-asked at a higher threshold is answered with **zero**
  base-relation reads (the database is poisoned on the warm call);
* mutating a base relation invalidates exactly the dependent entries;
* guards thread through cache hits; non-monotone filters bypass the
  cache; sqlite persistence warms a brand-new process's session.
"""

import threading

import pytest

from repro.errors import BudgetExceededError, FilterError
from repro.flocks import QueryFlock, parse_filter
from repro.flocks.naive import evaluate_flock
from repro.guard import ResourceBudget
from repro.recovery import CheckpointStore
from repro.session import MiningSession, with_support_threshold


@pytest.fixture
def session(small_basket_db):
    return MiningSession(small_basket_db)


def poison_reads(db):
    """Make any base-relation read blow up (version checks stay legal)."""

    def boom(name):
        raise AssertionError(f"base relation {name!r} was read")

    db.get = boom


class TestThresholdReuseAcceptance:
    def test_higher_threshold_reads_no_base_relations(
        self, session, basket_flock, small_basket_db
    ):
        cold, report_cold = session.mine(basket_flock)
        assert report_cold.strategy_used != "cache"
        assert report_cold.cache_misses == 1

        hotter = with_support_threshold(basket_flock, 3)
        expected = evaluate_flock(small_basket_db, hotter)
        poison_reads(session.db)
        warm, report_warm = session.mine(hotter)
        assert report_warm.strategy_used == "cache"
        assert report_warm.cache_hits == 1
        assert report_warm.rows_saved > 0
        assert warm == expected

    def test_same_threshold_rerun_hits(self, session, basket_flock):
        cold, _ = session.mine(basket_flock)
        warm, report = session.mine(basket_flock)
        assert report.strategy_used == "cache"
        assert warm == cold

    def test_weaker_threshold_misses(self, session, basket_flock):
        session.mine(with_support_threshold(basket_flock, 3))
        _, report = session.mine(basket_flock)  # support 2: weaker
        assert report.strategy_used != "cache"
        assert report.cache_misses == 1

    @pytest.mark.parametrize("strategy", ["naive", "optimized", "dynamic"])
    def test_every_strategy_warms_the_cache(
        self, small_basket_db, basket_flock, strategy
    ):
        session = MiningSession(small_basket_db)
        cold, _ = session.mine(basket_flock, strategy=strategy)
        warm, report = session.mine(
            with_support_threshold(basket_flock, 3), strategy=strategy
        )
        assert report.strategy_used == "cache"
        assert warm.tuples <= cold.tuples

    def test_cache_result_matches_each_strategy(
        self, small_basket_db, basket_flock
    ):
        session = MiningSession(small_basket_db)
        session.mine(basket_flock, strategy="naive")
        hotter = with_support_threshold(basket_flock, 3)
        expected = evaluate_flock(small_basket_db, hotter)
        served, report = session.mine(hotter, strategy="optimized")
        assert report.strategy_used == "cache"
        assert served == expected


class TestInvalidation:
    def test_mutation_invalidates_exactly_dependent_entries(
        self, small_basket_db, small_medical_db, basket_flock, medical_flock
    ):
        # One database holding both domains, one cache over both.
        db = small_basket_db
        for name in ("diagnoses", "exhibits", "treatments", "causes"):
            db.add(small_medical_db.get(name))
        session = MiningSession(db)
        session.mine(basket_flock)
        session.mine(medical_flock)

        # Mutating baskets must drop the basket entry and keep medical's.
        baskets = db.get("baskets")
        db.add_rows("baskets", baskets.columns,
                    list(baskets.tuples) + [(99, "soap")])
        _, medical_report = session.mine(medical_flock)
        assert medical_report.strategy_used == "cache"
        _, basket_report = session.mine(basket_flock)
        assert basket_report.strategy_used != "cache"
        assert session.cache.stats.invalidated >= 1

    def test_fresh_result_after_mutation_is_correct(
        self, session, basket_flock
    ):
        session.mine(basket_flock)
        baskets = session.db.get("baskets")
        session.db.add_rows(
            "baskets", baskets.columns,
            [t for t in baskets.tuples if t[0] != 4],
        )
        fresh, report = session.mine(basket_flock)
        assert report.strategy_used != "cache"
        expected = evaluate_flock(session.db, basket_flock)
        assert fresh == expected


class TestGuards:
    def test_budget_applies_to_cache_hit(self, session, basket_flock):
        session.mine(basket_flock)
        tiny = ResourceBudget(max_answer_rows=1)
        with pytest.raises(BudgetExceededError):
            session.mine(basket_flock, budget=tiny)

    def test_session_default_budget_used(self, small_basket_db, basket_flock):
        session = MiningSession(
            small_basket_db, budget=ResourceBudget(max_answer_rows=1)
        )
        with pytest.raises(BudgetExceededError):
            session.mine(basket_flock)

    def test_per_call_budget_overrides_default(
        self, small_basket_db, basket_flock
    ):
        session = MiningSession(
            small_basket_db, budget=ResourceBudget(max_answer_rows=1)
        )
        rel, _ = session.mine(
            basket_flock, budget=ResourceBudget(max_answer_rows=10_000)
        )
        assert len(rel) > 1


class TestNonMonotone:
    def test_non_monotone_filter_bypasses_cache(
        self, small_basket_db, basket_query_ordered
    ):
        flock = QueryFlock(
            basket_query_ordered, parse_filter("COUNT(answer.B) = 2")
        )
        session = MiningSession(small_basket_db)
        _, first = session.mine(flock)
        _, second = session.mine(flock)
        assert first.strategy_used != "cache"
        assert second.strategy_used != "cache"
        assert len(session.cache) == 0


class TestWithSupportThreshold:
    def test_replaces_support_conjunct(self, basket_flock):
        hotter = with_support_threshold(basket_flock, 7)
        assert "7" in str(hotter.filter)
        assert hotter.query is basket_flock.query

    def test_preserves_other_conjuncts(self, basket_query_ordered):
        flock = QueryFlock(
            basket_query_ordered,
            parse_filter("COUNT(answer.B) >= 2 AND SUM(answer.B) <= 100"),
        )
        hotter = with_support_threshold(flock, 5)
        assert "5" in str(hotter.filter)
        assert "100" in str(hotter.filter)

    def test_no_support_conjunct_raises(self, basket_query_ordered):
        flock = QueryFlock(
            basket_query_ordered, parse_filter("SUM(answer.B) <= 100")
        )
        with pytest.raises(FilterError):
            with_support_threshold(flock, 5)


class TestPersistence:
    def test_second_session_starts_warm(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "cache.db")
        with MiningSession(small_basket_db, persist_path=path) as first:
            cold, _ = first.mine(basket_flock)

        with MiningSession(small_basket_db, persist_path=path) as second:
            warm, report = second.mine(basket_flock)
        assert report.strategy_used == "cache"
        assert warm == cold

    def test_entry_mined_on_a_worker_thread_persists(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "cache.db")
        with MiningSession(small_basket_db, persist_path=path) as first:
            worker = threading.Thread(target=first.mine, args=(basket_flock,))
            worker.start()
            worker.join()

        with MiningSession(small_basket_db, persist_path=path) as second:
            _, report = second.mine(basket_flock)
        assert report.strategy_used == "cache"

    def test_remining_after_a_write_replaces_the_record(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "cache.db")
        baskets = small_basket_db.get("baskets")
        with MiningSession(small_basket_db, persist_path=path) as session:
            for _ in range(3):
                _, report = session.mine(basket_flock)
                assert report.strategy_used != "cache"
                # Same rows, new version: the entry goes stale.
                session.db.add_rows(
                    "baskets", baskets.columns, baskets.tuples
                )
        with CheckpointStore(path) as store:
            assert len(store.records("cache")) == 1

    def test_store_holds_only_what_the_cache_holds(
        self, tmp_path, small_basket_db, basket_flock
    ):
        """A support sweep replaces one slot's entry and evicts others:
        each dropped entry's record goes too, and a new session adopts
        exactly the first one's exact entries."""
        path = str(tmp_path / "cache.db")

        def exact(session):
            return sorted((e.key, str(e.filter)) for e in session.cache.entries()
                          if e.kind == "aggregates")

        with MiningSession(small_basket_db, max_cache_entries=2,
                           persist_path=path) as first:
            for support in range(8, 1, -1):
                first.mine(with_support_threshold(basket_flock, support))
            kept = exact(first)
        with CheckpointStore(path) as store:
            assert 1 <= len(store.records("cache")) <= 2
        with MiningSession(small_basket_db, max_cache_entries=2,
                           persist_path=path) as second:
            assert exact(second) == kept

    def test_invalidated_entry_leaves_the_store(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "cache.db")
        baskets = small_basket_db.get("baskets")
        with MiningSession(small_basket_db, persist_path=path) as session:
            session.mine(basket_flock)
            session.db.add_rows("baskets", baskets.columns, baskets.tuples)
            assert session.invalidate_stale() >= 1
        with CheckpointStore(path) as store:
            assert store.records("cache") == []

    def test_changed_cardinality_blocks_adoption(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "cache.db")
        with MiningSession(small_basket_db, persist_path=path) as first:
            first.mine(basket_flock)

        baskets = small_basket_db.get("baskets")
        small_basket_db.add_rows(
            "baskets", baskets.columns,
            list(baskets.tuples) + [(99, "soap")],
        )
        with MiningSession(small_basket_db, persist_path=path) as second:
            _, report = second.mine(basket_flock)
        assert report.strategy_used != "cache"

    def test_restore_deletes_the_records_it_does_not_adopt(
        self, tmp_path, small_basket_db, basket_flock
    ):
        """Two sessions writing one file leave a weaker and a stricter
        record of one slot, plus an unparsable one.  A restore adopts
        the weaker, deletes the other two, and a later session restores
        exactly what it adopted."""
        path = str(tmp_path / "cache.db")
        weak = with_support_threshold(basket_flock, 2)
        strict = with_support_threshold(basket_flock, 3)
        with MiningSession(small_basket_db, persist_path=path) as first, \
                MiningSession(small_basket_db, persist_path=path) as second:
            first.mine(weak)
            second.mine(strict)  # its cache is empty: a miss, written
        with CheckpointStore(path) as store:
            ((_, meta, relation), _) = store.records("cache")
            store.put(["cache", "garbled"], {**meta, "query": "p(X :-"},
                      relation)
            assert len(store.records("cache")) == 3

        def restored():
            with MiningSession(small_basket_db, persist_path=path) as session:
                entries = [str(e.filter) for e in session.cache.entries()]
            with CheckpointStore(path) as store:
                kept = [meta["filter"] for _, meta, _ in store.records("cache")]
            return entries, kept

        assert restored() == ([str(weak.filter)], [str(weak.filter)])
        assert restored() == ([str(weak.filter)], [str(weak.filter)])

    def test_restore_deletes_records_of_changed_relations(
        self, tmp_path, small_basket_db, basket_flock
    ):
        path = str(tmp_path / "cache.db")
        with MiningSession(small_basket_db, persist_path=path) as first:
            first.mine(basket_flock)
        baskets = small_basket_db.get("baskets")
        small_basket_db.add_rows("baskets", baskets.columns, [(99, "soap")])
        with MiningSession(small_basket_db, persist_path=path) as second:
            assert len(second.cache) == 0
        with CheckpointStore(path) as store:
            assert store.records("cache") == []


class TestStats:
    def test_stats_reflect_traffic(self, session, basket_flock):
        session.mine(basket_flock)
        session.mine(basket_flock)
        stats = session.stats()
        assert stats.queries == 2
        assert stats.cache_hits == 1
        assert stats.cache_misses >= 1
        assert stats.entries >= 1
        text = str(stats)
        assert "2 queries" in text and "1 exact hits" in text

    def test_shared_cache_across_sessions(
        self, small_basket_db, basket_flock
    ):
        first = MiningSession(small_basket_db)
        first.mine(basket_flock)
        second = MiningSession(small_basket_db, cache=first.cache)
        _, report = second.mine(basket_flock)
        assert report.strategy_used == "cache"


class TestSQLiteBackend:
    """The SQLite runner sits under the same session sink as the
    in-memory runners: its answers warm the cache, and cached bounds
    are served into its plans."""

    def test_sqlite_session_caches(self, small_basket_db, basket_flock):
        session = MiningSession(small_basket_db, backend="sqlite")
        reports = [
            session.mine(basket_flock, strategy="optimized")[1]
            for _ in range(3)
        ]
        miss, *hits = reports
        assert miss.backend_used == "sqlite"
        assert miss.cache_misses == 1
        assert [r.strategy_used for r in hits] == ["cache", "cache"]
        assert session.stats().cache_hits == 2
        cached, _ = session.mine(basket_flock, strategy="optimized")
        memory, _ = MiningSession(small_basket_db).mine(
            basket_flock, strategy="optimized"
        )
        assert cached == memory

    def test_cached_bound_is_served_into_a_sqlite_plan(self):
        """A two-step plan whose pre-filter step is answered by an
        earlier flock's cached survivors: the SQLite runner mirrors the
        served ok-relation into a table before the final step joins it."""
        import random

        from repro.flocks import parse_flock
        from repro.relational import database_from_dict

        rng = random.Random(0)
        rows = []
        for b in range(40):  # three frequent items, many rare ones
            rows += [(b, i) for i in ("beer", "diapers", "chips")
                     if rng.random() < 0.5]
            rows += [(b, f"rare{b}"), (b, f"odd{b}")]
        db = database_from_dict({"baskets": (("BID", "Item"), rows)})
        single = parse_flock(
            "QUERY: answer(B) :- baskets(B,$1) FILTER: COUNT(answer.B) >= 5"
        )
        pairs = parse_flock(
            "QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2"
            " FILTER: COUNT(answer.B) >= 5"
        )
        session = MiningSession(db, backend="sqlite")
        session.mine(single, strategy="optimized")
        relation, report = session.mine(pairs, strategy="optimized")
        assert report.cache_step_hits >= 1
        assert report.backend_used == "sqlite"  # no fallback to memory
        assert relation == evaluate_flock(db, pairs)


class TestUnionFlocks:
    def test_union_flock_round_trips(self, small_web_db, web_flock):
        session = MiningSession(small_web_db)
        cold, report_cold = session.mine(web_flock)
        assert report_cold.strategy_used != "cache"
        warm, report_warm = session.mine(web_flock)
        assert report_warm.strategy_used == "cache"
        assert warm == cold
