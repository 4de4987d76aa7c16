"""Differential properties for the join order and runtime filters.

Join order and sideways information passing are pure *performance*
levers: for any catalog, any flock, any backend and any worker count,
the ``optimized`` plan (UES order, runtime semi-join filters from every
materialized pre-filter step) must produce the survivor set of the
single-step plan, which has no pre-filter step and so never a filter.
Hypothesis drives random small catalogs through both backends; a fixed
grid covers the process-parallel path.

The bound algebra's soundness is a property too: every number
:func:`chain_upper_bounds` certifies must dominate the rows the prefix
actually produces — on *any* input, not just the benchmark workloads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import atom, comparison, rule
from repro.flocks import QueryFlock, parse_filter
from repro.flocks.mining import mine
from repro.relational import (
    chain_upper_bounds,
    database_from_dict,
    evaluate_conjunctive,
    ues_join_order,
)

values = st.integers(min_value=0, max_value=4)
r_rows = st.sets(st.tuples(values, values), min_size=1, max_size=20)
s_rows = st.sets(st.tuples(values, values), max_size=12)
thresholds = st.integers(min_value=1, max_value=3)


def make_db(r, s):
    return database_from_dict(
        {"r": (("B", "I"), r), "s": (("I", "C"), s)}
    )


def pair_flock(threshold):
    """Two parameterized self-joins: the a-priori rewrite gives this
    flock a pre-filter step, so runtime filters have a source."""
    query = rule(
        "answer",
        ["B"],
        [atom("r", "B", "$1"), atom("r", "B", "$2"),
         comparison("$1", "<", "$2")],
    )
    return QueryFlock(query, parse_filter(f"COUNT(answer.B) >= {threshold}"))


def join_flock(threshold):
    query = rule(
        "answer", ["B"],
        [atom("r", "B", "$1"), atom("s", "$1", "C")],
    )
    return QueryFlock(query, parse_filter(f"COUNT(answer.B) >= {threshold}"))


def survivors(db, flock, **knobs):
    relation, report = mine(db, flock, strategy="optimized", **knobs)
    return relation.tuples, report


def single_step(db, flock):
    """The single-step plan's survivors: memory, serial, no filters."""
    relation, _ = mine(
        db, flock, strategy="naive", backend="memory", parallelism=1
    )
    return relation.tuples


@pytest.mark.parametrize("make_flock", [pair_flock, join_flock])
@given(
    r=r_rows,
    s=s_rows,
    threshold=thresholds,
    backend=st.sampled_from(("memory", "sqlite")),
)
@settings(max_examples=25, deadline=None)
def test_knobs_never_change_survivors(make_flock, r, s, threshold, backend):
    db = make_db(r, s)
    flock = make_flock(threshold)
    variant, report = survivors(db, flock, backend=backend, parallelism=1)
    assert variant == single_step(db, flock)
    assert report.backend_used == backend


@given(r=r_rows, threshold=thresholds)
@settings(max_examples=15, deadline=None)
def test_ues_defaults_runtime_filters_on(r, threshold):
    """The single-step plan has no filter source and never prunes a
    scan row; the searched plan's pruning changes no survivor."""
    db = make_db(r, set())
    flock = pair_flock(threshold)
    _, naive = mine(db, flock, strategy="naive", parallelism=1)
    variant, _ = survivors(db, flock, backend="memory", parallelism=1)
    assert naive.runtime_filter_rows_pruned == 0
    assert variant == single_step(db, flock)


@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_workers_agree(force_pool, jobs):
    """The process-parallel path (explicit ``parallelism=2``) matches
    the single-step plan exactly."""
    db = make_db(
        {(b, i) for b in range(30) for i in range(5) if (b + i) % 3},
        set(),
    )
    flock = pair_flock(3)
    variant, _ = survivors(db, flock, backend="memory", parallelism=jobs)
    assert variant == single_step(db, flock)


@given(r=r_rows, s=s_rows)
@settings(max_examples=40, deadline=None)
def test_chain_bounds_are_sound(r, s):
    """Certified bounds dominate actual output at every prefix."""
    db = make_db(r, s)
    atoms = (atom("r", "B", "I"), atom("s", "I", "C"), atom("r", "Z", "I"))
    order = ues_join_order(db, atoms)
    bounds = chain_upper_bounds(db, atoms, order)
    for k in range(len(order)):
        prefix_atoms = [atoms[i] for i in order[: k + 1]]
        head = []
        for prefix_atom in prefix_atoms:
            for term in prefix_atom.terms:
                if str(term) not in head:
                    head.append(str(term))
        prefix = rule("answer", head, prefix_atoms)
        actual = evaluate_conjunctive(db, prefix)
        assert bounds[k] >= len(actual)
