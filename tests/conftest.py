"""Shared fixtures: the paper's canonical flock queries and small databases."""

import pytest

from repro.analysis import plan_verification
from repro.datalog import atom, comparison, negated, rule, UnionQuery
from repro.flocks import QueryFlock, support_filter
from repro.relational import database_from_dict
from repro.testing.faults import reset_faults


@pytest.fixture(autouse=True)
def _verify_plans():
    """Run the whole suite with plan verification on: every plan the
    optimizer emits and every dynamic in-flight FILTER is certified, and
    every lowered physical plan is schema-checked before execution."""
    with plan_verification(True):
        yield


@pytest.fixture(autouse=True)
def _clean_faults():
    """Disarm the fault-injection registry around every test.

    The registry is module-global; a fault left armed by a failing test
    (an assertion inside an ``inject`` block still unwinds the context
    manager, but a hard-crashed worker thread may not) must never leak
    into the next test.
    """
    reset_faults()
    yield
    reset_faults()


@pytest.fixture
def force_pool(monkeypatch):
    """Send every partitionable step to the process pool, however small
    its estimate — how the suite exercises the pool on small fixtures
    (the executor has no knob for it)."""
    monkeypatch.setattr(
        "repro.engine.parallel.PROCESS_ESTIMATE_THRESHOLD", 0.0
    )


@pytest.fixture
def basket_query():
    """Fig. 2 / Example 2.1: pairs of items in the same basket."""
    return rule(
        "answer",
        ["B"],
        [atom("baskets", "B", "$1"), atom("baskets", "B", "$2")],
    )


@pytest.fixture
def basket_query_ordered():
    """Section 2.3 variant with the lexicographic tie-break $1 < $2."""
    return rule(
        "answer",
        ["B"],
        [
            atom("baskets", "B", "$1"),
            atom("baskets", "B", "$2"),
            comparison("$1", "<", "$2"),
        ],
    )


@pytest.fixture
def medical_query():
    """Fig. 3 / Example 2.2: unexplained side-effects (has negation)."""
    return rule(
        "answer",
        ["P"],
        [
            atom("exhibits", "P", "$s"),
            atom("treatments", "P", "$m"),
            atom("diagnoses", "P", "D"),
            negated("causes", "D", "$s"),
        ],
    )


@pytest.fixture
def web_union_query():
    """Fig. 4 / Example 2.3: strongly connected words (a 3-rule union)."""
    r1 = rule(
        "answer",
        ["D"],
        [
            atom("inTitle", "D", "$1"),
            atom("inTitle", "D", "$2"),
            comparison("$1", "<", "$2"),
        ],
    )
    r2 = rule(
        "answer",
        ["A"],
        [
            atom("link", "A", "D1", "D2"),
            atom("inAnchor", "A", "$1"),
            atom("inTitle", "D2", "$2"),
            comparison("$1", "<", "$2"),
        ],
    )
    r3 = rule(
        "answer",
        ["A"],
        [
            atom("link", "A", "D1", "D2"),
            atom("inAnchor", "A", "$2"),
            atom("inTitle", "D2", "$1"),
            comparison("$1", "<", "$2"),
        ],
    )
    return UnionQuery((r1, r2, r3))


def path_query(n: int):
    """Fig. 6 / Example 4.3: $1 has >= c successors X from which a path of
    length n extends: arc($1,X) AND arc(X,Y1) AND ... AND arc(Y[n-1],Yn)."""
    body = [atom("arc", "$1", "X")]
    prev = "X"
    for i in range(1, n + 1):
        nxt = f"Y{i}"
        body.append(atom("arc", prev, nxt))
        prev = nxt
    return rule("answer", ["X"], body)


@pytest.fixture
def path_query_3():
    return path_query(3)


# ----------------------------------------------------------------------
# Flock-level fixtures: paper flocks with low thresholds + tiny databases
# ----------------------------------------------------------------------


@pytest.fixture
def basket_flock(basket_query_ordered):
    """Fig. 2 with the Section 2.3 ordering, support 2 (test scale)."""
    return QueryFlock(basket_query_ordered, support_filter(2, target="B"))


@pytest.fixture
def medical_flock(medical_query):
    """Fig. 3 at support 2."""
    return QueryFlock(medical_query, support_filter(2, target="P"))


@pytest.fixture
def web_flock(web_union_query):
    """Fig. 4 at support 2 (COUNT(answer(*)))."""
    return QueryFlock(web_union_query, support_filter(2))


def basket_db():
    """Seven baskets; {beer, diapers} appears in 3, {beer, chips} in 2,
    all other pairs at most once."""
    return database_from_dict(
        {
            "baskets": (
                ("BID", "Item"),
                [
                    (1, "beer"), (1, "diapers"),
                    (2, "beer"), (2, "diapers"),
                    (3, "beer"), (3, "diapers"),
                    (4, "beer"), (4, "chips"),
                    (5, "beer"), (5, "chips"),
                    (6, "soap"),
                    (7, "beer"),
                ],
            )
        }
    )


def medical_db():
    """Five patients; (rash, aspirin) is an unexplained pair for
    patients 1 and 2; every other (symptom, medicine) pair has at most
    one unexplained patient."""
    return database_from_dict(
        {
            "diagnoses": (
                ("P", "D"),
                [(1, "flu"), (2, "flu"), (3, "cold"), (4, "flu"), (5, "cold")],
            ),
            "exhibits": (
                ("P", "S"),
                [
                    (1, "fever"), (1, "rash"),
                    (2, "fever"), (2, "rash"),
                    (3, "cough"),
                    (4, "fever"),
                    (5, "rash"),
                ],
            ),
            "treatments": (
                ("P", "M"),
                [
                    (1, "aspirin"), (2, "aspirin"), (3, "syrup"),
                    (4, "aspirin"), (5, "lotion"),
                ],
            ),
            "causes": (
                ("D", "S"),
                [("flu", "fever"), ("cold", "cough")],
            ),
        }
    )


def web_db():
    """A corpus where (alpha, beta) is supported by >= 2 answers."""
    return database_from_dict(
        {
            "inTitle": (
                ("D", "W"),
                [
                    ("d1", "alpha"), ("d1", "beta"),
                    ("d2", "alpha"), ("d2", "beta"),
                    ("d3", "gamma"),
                ],
            ),
            "inAnchor": (
                ("A", "W"),
                [("a1", "alpha"), ("a2", "beta"), ("a3", "gamma")],
            ),
            "link": (
                ("A", "D1", "D2"),
                [("a1", "d3", "d1"), ("a2", "d3", "d2"), ("a3", "d1", "d2")],
            ),
        }
    )


@pytest.fixture
def small_basket_db():
    return basket_db()


@pytest.fixture
def small_medical_db():
    return medical_db()


@pytest.fixture
def small_web_db():
    return web_db()
