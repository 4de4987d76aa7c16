"""The chaos property: no fault schedule produces a silent partial result.

Each seed fully determines a schedule of injected faults across the
instrumented sites (transient errors, fatal errors, SQLite lock storms,
killed workers, stalled morsels) *and* the retry jitter of the run
executed under it.  The property — the safety argument of the whole
recovery ladder — is that ``mine()`` under any schedule either returns
a result bit-identical to the fault-free baseline or raises a clean,
library-typed error.  A differing result ("silent-partial") or a
non-library exception is a composed-handler bug, and the failing seed
replays it exactly.

The seed count scales with ``REPRO_CHAOS_SEEDS`` (default 25 locally;
CI runs 200).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryFlock, mine, support_filter
from repro.relational import database_from_dict
from repro.testing.chaos import (
    SITE_MENUS,
    chaos_schedule,
    run_under_chaos,
)

N_SEEDS = int(os.environ.get("REPRO_CHAOS_SEEDS", "25"))

#: Sites exercised by a serial in-memory mine() call.  The worker/hang
#: sites only fire inside pool workers and are covered separately below —
#: arming them here would silently test nothing.
SERIAL_SITES = [
    "relational.join",
    "executor.step",
    "optimizer.search",
    "dynamic.join",
]
PARALLEL_SITES = ["parallel.worker", "relational.join", "executor.step"]


@pytest.fixture(scope="module")
def chaos_db():
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


@pytest.fixture(scope="module")
def chaos_flock(chaos_db):
    from repro.datalog import atom, comparison, rule

    query = rule(
        "answer",
        ["B"],
        [
            atom("baskets", "B", "$1"),
            atom("baskets", "B", "$2"),
            comparison("$1", "<", "$2"),
        ],
    )
    return QueryFlock(query, support_filter(2, target="B"))


@pytest.fixture(scope="module")
def baseline(chaos_db, chaos_flock):
    relation, _ = mine(chaos_db, chaos_flock)
    return relation.tuples


@pytest.mark.chaos
@pytest.mark.faults
class TestChaosProperty:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_never_silent_partial(self, chaos_db, chaos_flock, baseline, seed):
        schedule = chaos_schedule(seed, sites=SERIAL_SITES)
        verdict = run_under_chaos(chaos_db, chaos_flock, schedule, baseline)
        assert verdict.kind != "silent-partial", (
            f"SILENT PARTIAL RESULT under seed {seed}: {verdict}"
        )

    @pytest.mark.parametrize("seed", range(0, N_SEEDS, 5))
    def test_never_silent_partial_sqlite(
        self, chaos_db, chaos_flock, baseline, seed
    ):
        """The SQLite backend under lock storms and statement faults."""
        schedule = chaos_schedule(seed, sites=["sqlite.execute"])
        verdict = run_under_chaos(
            chaos_db, chaos_flock, schedule, baseline,
            strategy="naive", backend="sqlite",
        )
        assert verdict.kind != "silent-partial", (
            f"SILENT PARTIAL RESULT under seed {seed}: {verdict}"
        )

    @pytest.mark.parametrize("seed", range(0, N_SEEDS, 5))
    def test_never_silent_partial_parallel(
        self, force_pool, chaos_db, chaos_flock, baseline, seed
    ):
        """Two-job process-pool execution (forced onto this tiny input)
        under worker kills and transient faults — the salvage and
        full-serial rungs."""
        schedule = chaos_schedule(seed, sites=PARALLEL_SITES, max_sites=2)
        verdict = run_under_chaos(
            chaos_db, chaos_flock, schedule, baseline,
            strategy="naive", parallelism=2,
        )
        assert verdict.kind != "silent-partial", (
            f"SILENT PARTIAL RESULT under seed {seed}: {verdict}"
        )

    def test_schedules_are_deterministic(self):
        for seed in range(50):
            a = chaos_schedule(seed)
            b = chaos_schedule(seed)
            assert str(a) == str(b)
            assert [f.error_name for f in a.faults] == [
                f.error_name for f in b.faults
            ]

    def test_menus_cover_every_instrumented_site(self):
        from repro.testing import faults as faults_mod

        # every menu site must be a real trip()/maybe_hang() site —
        # grep the source so a renamed site can't silently un-arm chaos
        import pathlib

        src = pathlib.Path(faults_mod.__file__).parent.parent
        text = "\n".join(
            p.read_text() for p in src.rglob("*.py") if "testing" not in str(p)
        )
        for site in SITE_MENUS:
            assert f'"{site}"' in text, f"menu site {site!r} not in source"


@pytest.mark.chaos
@pytest.mark.faults
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_chaos_property_hypothesis(chaos_db, chaos_flock, baseline, seed):
    """Hypothesis sweeps the seed space beyond the fixed grid."""
    schedule = chaos_schedule(seed, sites=SERIAL_SITES)
    verdict = run_under_chaos(chaos_db, chaos_flock, schedule, baseline)
    assert verdict.kind != "silent-partial", (
        f"SILENT PARTIAL RESULT under seed {seed}: {verdict}"
    )
