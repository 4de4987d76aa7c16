"""MiningReport wire format: to_json/from_json round-trips exactly.

The serve layer ships reports over HTTP, so every field a client can
see must survive serialization.  Certificates are the documented
exception — they hold in-process query/plan objects — and come back as
``certificate=None`` with no decision certificates.
"""

import dataclasses
import json

import pytest

from repro import database_from_dict, mine, parse_flock
from repro.flocks.mining import Downgrade, MiningReport

FLOCK_TEXT = """
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2

FILTER:
COUNT(answer.B) >= 3
"""


@pytest.fixture()
def db():
    return database_from_dict({
        "baskets": (
            ["BID", "item"],
            [
                (basket, f"i{item}")
                for basket in range(20)
                for item in range(5)
                if (basket + item) % 3
            ],
        ),
    })


def strip_certificates(report: MiningReport) -> MiningReport:
    """What a deserialized report is documented to look like."""
    return dataclasses.replace(
        report, certificate=None, decision_certificates=()
    )


class TestRoundTrip:
    def test_real_report_round_trips(self, db):
        _, report = mine(db, parse_flock(FLOCK_TEXT))
        restored = MiningReport.from_json(report.to_json())
        assert restored == strip_certificates(report)

    def test_report_with_warnings_round_trips(self, db):
        # A cross product draws a lint warning with a rule index.
        noisy = parse_flock(
            """
            QUERY:
            answer(B) :- baskets(B,$1) AND baskets(C,$2)

            FILTER:
            COUNT(answer.B) >= 2
            """
        )
        _, report = mine(db, noisy)
        assert report.warnings  # the scenario depends on it
        restored = MiningReport.from_json(report.to_json())
        assert restored.warnings == report.warnings
        assert restored == strip_certificates(report)

    def test_report_with_downgrades_round_trips(self):
        synthetic = MiningReport(
            strategy_requested="optimized",
            strategy_used="naive",
            seconds=1.25,
            warnings=(),
            downgrades=(
                Downgrade(
                    kind="strategy",
                    from_name="optimized",
                    to_name="naive",
                    reason="planner exploded",
                ),
            ),
            cache_hits=2,
            rows_saved=17,
            run_id="abc123",
            steps_resumed=1,
            steps_checkpointed=3,
        )
        restored = MiningReport.from_json(synthetic.to_json())
        assert restored == synthetic
        assert restored.degraded

    def test_json_is_plain_data(self, db):
        _, report = mine(db, parse_flock(FLOCK_TEXT))
        payload = json.loads(report.to_json())
        assert isinstance(payload, dict)
        assert payload["strategy_used"] == report.strategy_used
        # Nothing exotic leaked into the wire format.
        json.dumps(payload)

    def test_double_round_trip_is_stable(self, db):
        _, report = mine(db, parse_flock(FLOCK_TEXT))
        once = MiningReport.from_json(report.to_json())
        twice = MiningReport.from_json(once.to_json())
        assert once == twice

    def test_stage_observations_round_trip(self):
        from repro.engine.ir import StageObservation

        synthetic = MiningReport(
            strategy_requested="optimized",
            strategy_used="optimized",
            seconds=0.5,
            warnings=(),
            runtime_filter_rows_pruned=594,
            stage_rows=(
                StageObservation(
                    node="join:baskets", estimated=120.5, bound=240.0,
                    actual=96,
                ),
                # A stage without a computed bound survives as None.
                StageObservation(
                    node="join:ok0", estimated=14.0, bound=None, actual=14
                ),
            ),
        )
        restored = MiningReport.from_json(synthetic.to_json())
        assert restored == synthetic
        assert restored.stage_rows[1].bound is None

    def test_stage_kernel_round_trips_and_defaults_off_the_wire(self, db):
        from repro.engine.ir import StageObservation

        bitmap = StageObservation(
            node="join:baskets", estimated=9.0, bound=None, actual=12,
            kernel="bitmap",
        )
        pairs = dataclasses.replace(bitmap, kernel="pairs")
        assert bitmap.to_dict()["kernel"] == "bitmap"
        assert "kernel" not in pairs.to_dict()  # wire payloads unchanged
        assert StageObservation.from_dict(pairs.to_dict()) == pairs
        # A real dynamic run counts its last stage by bitmaps.
        _, report = mine(db, parse_flock(FLOCK_TEXT), strategy="dynamic")
        assert report.stage_rows[-1].kernel == "bitmap"
        assert str(report).count(" [bitmap]") == 1
        restored = MiningReport.from_json(report.to_json())
        assert restored.stage_rows == report.stage_rows
        assert restored == strip_certificates(report)

    def test_real_ues_run_round_trips_observability(self, db):
        # stage_rows are recorded by the serial in-memory engine only.
        _, report = mine(
            db, parse_flock(FLOCK_TEXT),
            strategy="optimized", parallelism=1,
        )
        assert report.stage_rows
        restored = MiningReport.from_json(report.to_json())
        assert restored.stage_rows == report.stage_rows
        assert (
            restored.runtime_filter_rows_pruned
            == report.runtime_filter_rows_pruned
        )

    def test_certificates_documented_as_dropped(self, db):
        _, report = mine(db, parse_flock(FLOCK_TEXT), strategy="optimized")
        assert report.certificate is not None  # verification is on
        restored = MiningReport.from_json(report.to_json())
        assert restored.certificate is None
        assert restored.decision_certificates == ()


class TestWireContract:
    def test_payload_keys_are_the_fields_but_certificates(self, db):
        _, report = mine(db, parse_flock(FLOCK_TEXT), strategy="optimized")
        expected = [
            f.name for f in dataclasses.fields(MiningReport)
            if f.name not in ("certificate", "decision_certificates")
        ]
        assert list(report.to_dict()) == expected
        assert list(json.loads(report.to_json())) == expected

    def test_unknown_keys_ignored_and_missing_keys_default(self):
        payload = {
            "strategy_requested": "auto",
            "strategy_used": "dynamic",
            "seconds": 0.25,
            "join_order": "ues",  # an old payload's key
        }
        assert MiningReport.from_dict(payload) == MiningReport(
            strategy_requested="auto", strategy_used="dynamic", seconds=0.25
        )
