"""ResultCache unit tests: threshold reuse, bounds, LRU, invalidation."""

import pytest

from repro.datalog import atom, comparison, rule
from repro.flocks import parse_filter, support_filter
from repro.relational import Relation
from repro.session import (
    KIND_AGGREGATES,
    KIND_SURVIVORS,
    ResultCache,
    query_relations,
)


@pytest.fixture
def pair_query():
    return rule(
        "answer", ["B"],
        [atom("baskets", "B", "$1"), atom("baskets", "B", "$2"),
         comparison("$1", "<", "$2")],
    )


@pytest.fixture
def aggregates_relation():
    """Survivors of COUNT >= 2 with their counts kept."""
    return Relation(
        "ok", ("$1", "$2", "_agg0"),
        [("beer", "diapers", 3), ("beer", "chips", 2)],
    )


def put_aggregates(cache, query, relation, threshold=2, versions=None):
    return cache.put(
        query,
        support_filter(threshold, target="B"),
        KIND_AGGREGATES,
        relation,
        versions if versions is not None else {"baskets": 0},
        source_rows=10,
        param_columns=("$1", "$2"),
    )


class TestThresholdReuse:
    def test_same_threshold_hits(self, pair_query, aggregates_relation):
        cache = ResultCache()
        put_aggregates(cache, pair_query, aggregates_relation, threshold=2)
        entry = cache.find_exact(pair_query, support_filter(2, target="B"))
        assert entry is not None
        assert cache.stats.hits == 1

    def test_stricter_threshold_hits_and_refilters(self, pair_query,
                                                   aggregates_relation):
        cache = ResultCache()
        put_aggregates(cache, pair_query, aggregates_relation, threshold=2)
        entry = cache.find_exact(pair_query, support_filter(3, target="B"))
        assert entry is not None
        served = cache.serve_exact(entry, support_filter(3, target="B"))
        assert set(served.tuples) == {("beer", "diapers")}
        assert set(served.columns) == {"$1", "$2"}

    def test_weaker_threshold_misses(self, pair_query, aggregates_relation):
        cache = ResultCache()
        put_aggregates(cache, pair_query, aggregates_relation, threshold=2)
        assert cache.find_exact(pair_query, support_filter(1, target="B")) is None
        assert cache.stats.misses == 1

    def test_alpha_variant_hits(self, pair_query, aggregates_relation):
        cache = ResultCache()
        put_aggregates(cache, pair_query, aggregates_relation, threshold=2)
        twin = rule(
            "answer", ["B"],
            [atom("baskets", "B", "$2"), atom("baskets", "B", "$1"),
             comparison("$1", "<", "$2")],
        )
        assert cache.find_exact(twin, support_filter(3, target="B")) is not None

    def test_renamed_filter_target_misses(self, pair_query,
                                          aggregates_relation):
        # The filter names the head variable ("COUNT(answer.B)"); renaming
        # it changes the filter signature, so the entry is (conservatively)
        # not reused — a miss, never a wrong answer.
        cache = ResultCache()
        put_aggregates(cache, pair_query, aggregates_relation, threshold=2)
        twin = rule(
            "answer", ["Bkt"],
            [atom("baskets", "Bkt", "$1"), atom("baskets", "Bkt", "$2"),
             comparison("$1", "<", "$2")],
        )
        assert cache.find_exact(twin, support_filter(2, target="Bkt")) is None

    def test_different_signature_misses(self, pair_query, aggregates_relation):
        cache = ResultCache()
        put_aggregates(cache, pair_query, aggregates_relation, threshold=2)
        sum_filter = parse_filter("SUM(baskets.Item) >= 2")
        assert cache.find_exact(pair_query, sum_filter) is None

    def test_weaker_incumbent_kept(self, pair_query, aggregates_relation):
        cache = ResultCache()
        put_aggregates(cache, pair_query, aggregates_relation, threshold=2)
        smaller = Relation("ok", ("$1", "$2", "_agg0"),
                           [("beer", "diapers", 3)])
        # Storing the threshold-3 result must not clobber the more
        # general threshold-2 entry in the same slot.
        assert put_aggregates(cache, pair_query, smaller, threshold=3) is None
        entry = cache.find_exact(pair_query, support_filter(2, target="B"))
        assert entry is not None and len(entry.relation) == 2


class TestBounds:
    def test_containing_query_serves_as_bound(self, pair_query):
        cache = ResultCache()
        plain = rule(
            "answer", ["B"],
            [atom("baskets", "B", "$1"), atom("baskets", "B", "$2")],
        )
        survivors = Relation("ok", ("$1", "$2"),
                             [("beer", "diapers"), ("diapers", "beer")])
        cache.put(plain, support_filter(2, target="B"), KIND_SURVIVORS,
                  survivors, {"baskets": 0}, 10, ("$1", "$2"))
        # pair_query (with the tie-break) is contained in plain.
        entry = cache.find_bound(
            pair_query, support_filter(2, target="B"), ("$1", "$2")
        )
        assert entry is not None
        assert cache.stats.bound_hits == 1
        assert set(entry.survivor_relation("ok").columns) == {"$1", "$2"}

    def test_contained_query_is_not_a_bound(self, pair_query):
        cache = ResultCache()
        survivors = Relation("ok", ("$1", "$2"), [("beer", "diapers")])
        cache.put(pair_query, support_filter(2, target="B"), KIND_SURVIVORS,
                  survivors, {"baskets": 0}, 10, ("$1", "$2"))
        plain = rule(
            "answer", ["B"],
            [atom("baskets", "B", "$1"), atom("baskets", "B", "$2")],
        )
        # The tie-broken query's survivors under-approximate plain's.
        assert cache.find_bound(
            plain, support_filter(2, target="B"), ("$1", "$2")
        ) is None

    def test_tightest_bound_wins(self, pair_query):
        cache = ResultCache()
        plain = rule(
            "answer", ["B"],
            [atom("baskets", "B", "$1"), atom("baskets", "B", "$2")],
        )
        single = rule("answer", ["B"], [atom("baskets", "B", "$1"),
                                        atom("baskets", "B", "$2"),
                                        comparison("$1", "<=", "$2")])
        big = Relation("ok", ("$1", "$2"),
                       [(a, b) for a in "abc" for b in "abc"])
        small = Relation("ok", ("$1", "$2"), [("a", "b"), ("b", "c")])
        cache.put(plain, support_filter(2, target="B"), KIND_SURVIVORS,
                  big, {"baskets": 0}, 10, ("$1", "$2"))
        cache.put(single, support_filter(2, target="B"), KIND_SURVIVORS,
                  small, {"baskets": 0}, 10, ("$1", "$2"))
        entry = cache.find_bound(
            pair_query, support_filter(2, target="B"), ("$1", "$2")
        )
        assert entry is not None
        assert len(entry.relation) == 2


class TestLRUEviction:
    def queries(self, n):
        return [
            rule("answer", ["B"], [atom(f"rel{i}", "B", "$1")])
            for i in range(n)
        ]

    def test_entry_cap_evicts_least_recently_used(self):
        cache = ResultCache(max_rows=None, max_entries=2)
        q0, q1, q2 = self.queries(3)
        rel = Relation("ok", ("$1",), [("a",)])
        f = support_filter(2, target="B")
        cache.put(q0, f, KIND_SURVIVORS, rel, {"rel0": 0}, 1, ("$1",))
        cache.put(q1, f, KIND_SURVIVORS, rel, {"rel1": 0}, 1, ("$1",))
        # Touch q0 so q1 becomes the LRU victim.
        assert cache.find_bound(q0, f, ("$1",)) is not None
        cache.put(q2, f, KIND_SURVIVORS, rel, {"rel2": 0}, 1, ("$1",))
        assert cache.stats.evicted == 1
        assert cache.find_bound(q0, f, ("$1",)) is not None
        assert cache.find_bound(q1, f, ("$1",)) is None

    def test_row_cap_evicts(self):
        cache = ResultCache(max_rows=5, max_entries=None)
        q0, q1 = self.queries(2)
        f = support_filter(2, target="B")
        big = Relation("ok", ("$1",), [(i,) for i in range(4)])
        cache.put(q0, f, KIND_SURVIVORS, big, {"rel0": 0}, 4, ("$1",))
        cache.put(q1, f, KIND_SURVIVORS, big, {"rel1": 0}, 4, ("$1",))
        assert cache.total_rows() <= 5 or len(cache) == 1
        assert cache.stats.evicted == 1

    def test_oversize_result_rejected(self):
        cache = ResultCache(max_rows=3, max_entries=None)
        (q0,) = self.queries(1)
        huge = Relation("ok", ("$1",), [(i,) for i in range(10)])
        stored = cache.put(q0, support_filter(2, target="B"), KIND_SURVIVORS,
                           huge, {"rel0": 0}, 10, ("$1",))
        assert stored is None
        assert cache.stats.rejected_oversize == 1
        assert len(cache) == 0


class TestInvalidation:
    def test_only_dependent_entries_dropped(self):
        cache = ResultCache()
        qa = rule("answer", ["B"], [atom("a_rel", "B", "$1")])
        qb = rule("answer", ["B"], [atom("b_rel", "B", "$1")])
        rel = Relation("ok", ("$1",), [("x",)])
        f = support_filter(2, target="B")
        cache.put(qa, f, KIND_SURVIVORS, rel, {"a_rel": 0}, 1, ("$1",))
        cache.put(qb, f, KIND_SURVIVORS, rel, {"b_rel": 0}, 1, ("$1",))
        versions = {"a_rel": 1, "b_rel": 0}  # a_rel was mutated
        dropped = cache.invalidate_stale(lambda n: versions[n])
        assert dropped == 1
        assert cache.find_bound(qb, f, ("$1",)) is not None
        assert cache.find_bound(qa, f, ("$1",)) is None

    def test_query_relations_spans_union(self, web_union_query):
        assert query_relations(web_union_query) == {
            "inTitle", "inAnchor", "link"
        }
