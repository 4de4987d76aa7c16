"""Tests for the reference evaluators (group-by and brute-force)."""


from repro.datalog import Parameter
from repro.engine.memory import MemoryEngine
from repro.flocks import (
    QueryFlock,
    evaluate_flock,
    evaluate_flock_bruteforce,
    parameter_domains,
    parse_flock,
    single_step_plan,
    support_filter,
)
from repro.flocks.executor import lower_filter_step
from repro.relational import database_from_dict


class TestEvaluateFlock:
    def test_basket_pairs(self, small_basket_db, basket_flock):
        result = evaluate_flock(small_basket_db, basket_flock)
        assert result.columns == ("$1", "$2")
        assert result.tuples == frozenset(
            {("beer", "diapers"), ("beer", "chips")}
        )

    def test_medical_side_effects(self, small_medical_db, medical_flock):
        result = evaluate_flock(small_medical_db, medical_flock)
        # (aspirin, rash): patients 1 and 2 take aspirin, exhibit rash,
        # and flu does not cause rash.
        assert result.tuples == frozenset({("aspirin", "rash")})
        assert result.columns == ("$m", "$s")

    def test_web_union(self, small_web_db, web_flock):
        result = evaluate_flock(small_web_db, web_flock)
        # (alpha, beta): titles of d1 and d2 (2 documents) plus anchors
        # a1 (alpha in anchor, beta in d1's title) and a2 (beta in
        # anchor... beta is $2 side) -> comfortably >= 2 answers.
        assert ("alpha", "beta") in result

    def test_threshold_scaling(self, small_basket_db, basket_query_ordered):
        at_three = QueryFlock(basket_query_ordered, support_filter(3, target="B"))
        result = evaluate_flock(small_basket_db, at_three)
        assert result.tuples == frozenset({("beer", "diapers")})

    def test_no_qualifying_pairs(self, small_basket_db, basket_query_ordered):
        at_ten = QueryFlock(basket_query_ordered, support_filter(10, target="B"))
        assert len(evaluate_flock(small_basket_db, at_ten)) == 0

    def test_weighted_sum_flock(self):
        from repro.relational import database_from_dict

        db = database_from_dict(
            {
                "baskets": (
                    ("BID", "Item"),
                    [(1, "a"), (1, "b"), (2, "a"), (2, "b"), (3, "a"), (3, "c")],
                ),
                "importance": (("BID", "W"), [(1, 10), (2, 15), (3, 1)]),
            }
        )
        flock = parse_flock(
            """
            QUERY:
            answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND
                           importance(B,W) AND $1 < $2
            FILTER:
            SUM(answer.W) >= 20
            """
        )
        result = evaluate_flock(db, flock)
        # (a, b): baskets 1 and 2, weights 10 + 15 = 25 >= 20.
        # (a, c): basket 3, weight 1.
        assert result.tuples == frozenset({("a", "b")})


def answer_relation(db, flock):
    """The ungrouped answer of the naive (single-step) plan."""
    step_plan = lower_filter_step(db, flock, single_step_plan(flock).final_step)
    return MemoryEngine(db).run_answer(step_plan)


class TestAnswerRelation:
    """Parameter columns first, then the head aligned positionally under
    ``_h0..`` (union branches' head variables differ, per Fig. 4)."""

    def test_columns(self, small_basket_db, basket_flock):
        answer = answer_relation(small_basket_db, basket_flock)
        assert answer.columns == ("$1", "$2", "_h0")

    def test_union_positional_columns(self, small_web_db, web_flock):
        answer = answer_relation(small_web_db, web_flock)
        assert answer.columns == ("$1", "$2", "_h0")


class TestParameterDomains:
    def test_domains_cover_columns(self, small_basket_db, basket_flock):
        domains = parameter_domains(small_basket_db, basket_flock)
        items = {"beer", "diapers", "chips", "soap"}
        assert domains[Parameter("1")] == items
        assert domains[Parameter("2")] == items

    def test_union_domains(self, small_web_db, web_flock):
        domains = parameter_domains(small_web_db, web_flock)
        # $1 appears in inTitle.W and inAnchor.W positions.
        assert "alpha" in domains[Parameter("1")]
        assert "gamma" in domains[Parameter("1")]


class TestBruteForceAgreement:
    """The brute-force oracle must agree with the group-by evaluator."""

    def test_baskets(self, small_basket_db, basket_flock):
        fast = evaluate_flock(small_basket_db, basket_flock)
        slow = evaluate_flock_bruteforce(small_basket_db, basket_flock)
        assert fast == slow

    def test_medical(self, small_medical_db, medical_flock):
        fast = evaluate_flock(small_medical_db, medical_flock)
        slow = evaluate_flock_bruteforce(small_medical_db, medical_flock)
        assert fast == slow

    def test_web_union(self, small_web_db, web_flock):
        fast = evaluate_flock(small_web_db, web_flock)
        slow = evaluate_flock_bruteforce(small_web_db, web_flock)
        assert fast == slow

    def test_repeated_head_variable(self):
        db = database_from_dict({"b": (("B", "I"), [
            ("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("c", 1),
        ])})
        flock = parse_flock(
            "QUERY:\nanswer(B,B) :- b(B,$1)\n\nFILTER:\nCOUNT(answer(*)) >= 2\n"
        )
        slow = evaluate_flock_bruteforce(db, flock)
        assert slow == evaluate_flock(db, flock)
        assert slow.tuples == {(1,), (2,)}
