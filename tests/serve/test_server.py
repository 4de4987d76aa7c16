"""End-to-end: the HTTP server over real sockets, via the thin client.

One module-scoped server instance: these tests exercise *the same*
process-wide session/cache the way concurrent production clients would,
so sharing it across tests is the point, not a shortcut.  Tests that
need isolation (admission, disconnects) build their own server.
"""

import json

import pytest

from repro import database_from_dict, mine, parse_flock
from repro.serve import (
    MiningClient,
    MiningService,
    ServeError,
    ServerConfig,
    server_in_thread,
)
from repro.serve.app import HttpError

FLOCK = """
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2

FILTER:
COUNT(answer.B) >= 4
"""

#: Alpha-variant of FLOCK (atoms reordered) — a different client asking
#: the same question in a different spelling must share cache entries.
#: (Renaming the *filter target* head variable is a documented
#: conservative miss, so the variant keeps ``B``.)
FLOCK_RENAMED = """
QUERY:
answer(B) :- baskets(B,$2) AND baskets(B,$1) AND $1 < $2

FILTER:
COUNT(answer.B) >= 4
"""


def make_db():
    return database_from_dict({
        "baskets": (
            ["BID", "item"],
            [
                (basket, f"i{item}")
                for basket in range(24)
                for item in range(6)
                if (basket + item) % 3
            ],
        ),
    })


@pytest.fixture(scope="module")
def server():
    service = MiningService(
        make_db(), ServerConfig(port=0, workers=2)
    )
    with server_in_thread(service) as running:
        yield running


@pytest.fixture()
def client(server):
    return MiningClient(server.address)


class TestMine:
    def test_mine_matches_direct_library_call(self, client):
        expected, _ = mine(make_db(), parse_flock(FLOCK))
        result = client.mine(FLOCK)
        assert result["status"] == "complete"
        assert result["columns"] == list(expected.columns)
        assert result["row_count"] == len(expected)
        assert {tuple(row) for row in result["rows"]} == expected.tuples
        assert result["report"]["strategy_used"] in (
            "naive", "optimized", "dynamic", "cache"
        )

    def test_cache_shared_across_requests(self, client):
        cold = client.mine(FLOCK)
        warm = client.mine(FLOCK_RENAMED)  # alpha-equivalent
        assert warm["report"]["cache_hits"] == 1
        assert warm["rows"] == cold["rows"]

    def test_stricter_threshold_served_by_containment(self, client):
        client.mine(FLOCK)
        stricter = client.mine(FLOCK, threshold=6)
        assert stricter["report"]["cache_hits"] == 1
        assert stricter["row_count"] <= client.mine(FLOCK)["row_count"]

    def test_limit_truncates_but_reports_full_count(self, client):
        result = client.mine(FLOCK, limit=2)
        assert len(result["rows"]) == 2
        assert result["truncated"] is True
        assert result["row_count"] > 2

    def test_report_round_trips_through_client(self, client):
        report = client.mine_report(FLOCK)
        assert report.strategy_used in (
            "naive", "optimized", "dynamic", "cache"
        )
        assert report.seconds >= 0

    def test_budget_exceeded_maps_to_408(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.mine(FLOCK.replace(">= 4", ">= 2"), max_rows=1)
        assert excinfo.value.status == 408
        assert excinfo.value.body.get("status") == "aborted"


class TestValidation:
    def test_malformed_flock_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.mine("not a flock at all")
        assert excinfo.value.status == 400

    def test_missing_flock_field_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/mine", {"threshold": 4})
        assert excinfo.value.status == 400

    def test_unknown_strategy_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.mine(FLOCK, strategy="quantum")
        assert excinfo.value.status == 400

    def test_unknown_join_order_is_400(self, client):
        """The client refuses the deleted option before sending it; sent
        anyway, the server answers 400."""
        with pytest.raises(TypeError, match="join_order"):
            client.mine(FLOCK, join_order="alphabetical")
        with pytest.raises(ServeError) as excinfo:
            client._request(
                "POST", "/v1/mine",
                {"flock": FLOCK, "join_order": "alphabetical"},
            )
        assert excinfo.value.status == 400

    def test_deleted_join_order_is_400(self, client):
        """Every plan takes the UES order: ``join_order`` is an unknown
        key, refused by name whichever order it names."""
        for order in ("greedy", "ues"):
            with pytest.raises(ServeError) as excinfo:
                client._request(
                    "POST", "/v1/mine", {"flock": FLOCK, "join_order": order}
                )
            assert excinfo.value.status == 400
            assert "join_order" in str(excinfo.value)

    def test_unknown_payload_key_is_400(self, client):
        """A key that is no /v1/mine field is refused by name, before
        the flock is parsed — a deleted option or a typo is never
        silently ignored."""
        for key, value in (
            ("runtime_filters", True), ("join_ordr", "ues"), ("lint", False),
        ):
            with pytest.raises(ServeError) as excinfo:
                client._request(
                    "POST", "/v1/mine", {"flock": "x", key: value}
                )
            assert excinfo.value.status == 400
            assert repr(key) in str(excinfo.value)

    @pytest.mark.parametrize("key, bad", [
        # JSON true is not a number (bool is an int in Python) ...
        ("parallelism", True), ("limit", True), ("threshold", True),
        ("timeout", True), ("max_rows", True), ("max_answer_rows", True),
        # ... a fraction is not an integer (it used to be truncated) ...
        ("max_rows", 2.7), ("limit", 1.5), ("parallelism", 2.0),
        # ... and the other JSON types stay rejected.
        ("parallelism", 0), ("limit", -1), ("timeout", "5"),
        ("checkpoint", "yes"), ("resume", 7), ("strategy", 3),
    ])
    def test_wrongly_typed_value_is_400(self, client, key, bad):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/mine", {"flock": FLOCK, key: bad})
        assert excinfo.value.status == 400
        assert key in str(excinfo.value)

    def test_integral_float_is_an_integer(self, client):
        result = client._request(
            "POST", "/v1/mine", {"flock": FLOCK, "limit": 2.0}
        )
        assert len(result["rows"]) == 2

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nothing")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/mine")
        assert excinfo.value.status == 405

    def test_invalid_json_body_is_400(self, client, server):
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            connection.request(
                "POST", "/v1/mine", body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "JSON" in body["error"]


class TestRuns:
    def test_run_status_after_completion(self, client):
        result = client.mine(FLOCK)
        status = client.run_status(result["run_id"])
        assert status["status"] == "complete"
        assert status["summary"]["row_count"] == result["row_count"]

    def test_unknown_run_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.run_status("no-such-run")
        assert excinfo.value.status == 404


class TestData:
    def test_load_and_mine_new_relation(self, client):
        client.load_relation(
            "pairs", ["a", "b"], [[1, 2], [1, 3], [2, 3], [3, 3]]
        )
        result = client.mine(
            """
            QUERY:
            answer(A) :- pairs(A,$1)

            FILTER:
            COUNT(answer.A) >= 2
            """
        )
        assert result["status"] == "complete"

    def test_reload_bumps_version_and_invalidates(self, client):
        flock = FLOCK.replace(">= 4", ">= 5")
        client.mine(flock)
        warm = client.mine(flock)
        assert warm["report"]["cache_hits"] == 1
        # Mutating the base relation must drop the derived entries...
        db = make_db()
        rows = [list(r) for r in sorted(db.get("baskets").tuples)]
        response = client.load_relation("baskets", ["BID", "item"], rows)
        assert response["cache_entries_invalidated"] >= 1
        # ...so the next ask re-evaluates rather than serving stale rows.
        cold = client.mine(flock)
        assert cold["report"]["cache_hits"] == 0

    def test_append_merges_rows(self, client):
        client.load_relation("seen", ["x"], [[1], [2]])
        response = client.load_relation("seen", ["x"], [[2], [3]],
                                        mode="append")
        assert response["rows"] == 3

    def test_append_with_wrong_columns_is_400(self, client):
        client.load_relation("typed", ["x"], [[1]])
        with pytest.raises(ServeError) as excinfo:
            client.load_relation("typed", ["y"], [[2]], mode="append")
        assert excinfo.value.status == 400

    def test_scalar_cells_of_every_json_type_load(self, client):
        rows = [[1, "a"], [2.5, True], [None, False]]
        response = client.load_relation("scalars", ["x", "y"], rows)
        assert response["rows"] == 3

    def test_object_row_over_http_is_400_and_adds_nothing(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/data", {
                "name": "objrow", "columns": ["A", "B"],
                "rows": [{"A": 1, "B": 2}],
            })
        assert excinfo.value.status == 400
        assert "row 0" in excinfo.value.body["error"]
        assert "objrow" not in client.health()["relations"]

    @pytest.mark.parametrize("mode", ["replace", "append"])
    @pytest.mark.parametrize(
        "bad_row",
        [
            pytest.param("xy", id="string-row"),
            pytest.param({"A": 1, "B": 2}, id="object-row"),
            pytest.param([1, [2]], id="array-cell"),
            pytest.param([1, {"x": 2}], id="object-cell"),
        ],
    )
    def test_malformed_row_is_400_and_keeps_the_version(self, bad_row, mode):
        with MiningService(make_db(), ServerConfig(port=0, workers=1)) as service:
            stored = service.db.get("baskets").tuples
            version = service.db.version("baskets")
            with pytest.raises(HttpError) as excinfo:
                service.handle_data({
                    "name": "baskets",
                    "columns": ["BID", "item"],
                    "rows": [[1, "i1"], bad_row],
                    "mode": mode,
                })
            assert excinfo.value.status == 400
            assert "row 1" in str(excinfo.value)
            assert service.db.version("baskets") == version
            assert service.db.get("baskets").tuples == stored


class TestObservability:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert "baskets" in health["relations"]
        assert health["session"]["queries"] >= 0

    def test_metrics_exposition_format(self, client):
        client.mine(FLOCK)
        text = client.metrics()
        assert "# TYPE repro_mine_seconds histogram" in text
        assert "# TYPE repro_cache_hits_total counter" in text
        assert 'repro_http_requests_total{endpoint="/v1/mine",status="200"}' in text
        assert text.endswith("\n")

    def test_cache_hit_counters_move(self, client):
        before = client.metric_value("repro_cache_hits_total") or 0
        client.mine(FLOCK)  # warm (other tests may have cached it)
        client.mine(FLOCK)  # guaranteed hit
        after = client.metric_value("repro_cache_hits_total")
        assert after >= before + 1

    def test_latency_histogram_counts_requests(self, client):
        client.mine(FLOCK)
        count = client.metric_value("repro_mine_seconds_count")
        assert count >= 1

    # A query shape no other test mines: the shared session cache
    # cannot serve it (exactly or by containment), so the knobs below
    # demonstrably reach a live evaluation.
    TRIPLE_FLOCK = """
    QUERY:
    answer(B) :- baskets(B,$1) AND baskets(B,$2) AND baskets(B,$3)
                 AND $1 < $2 AND $2 < $3
    FILTER:
    COUNT(answer.B) >= 2
    """

    def test_join_order_and_filters_reach_the_report(self, client):
        """The report carries the pruned-row count and no order or
        filter switch: neither exists."""
        result = client.mine(self.TRIPLE_FLOCK, strategy="optimized")
        report = result["report"]
        assert report["runtime_filter_rows_pruned"] >= 0
        assert "join_order" not in report
        assert "runtime_filters" not in report

    def test_pruned_rows_counter_exposed(self, client):
        client.mine(
            self.TRIPLE_FLOCK.replace(">= 2", ">= 3"), strategy="optimized",
        )
        text = client.metrics()
        assert "# TYPE repro_runtime_filter_rows_pruned counter" in text
        value = client.metric_value("repro_runtime_filter_rows_pruned")
        assert value is not None and value >= 0


class TestAdmission:
    def test_full_tenant_queue_is_429(self):
        import threading

        service = MiningService(
            make_db(),
            ServerConfig(port=0, workers=1, max_queued_per_tenant=1),
        )
        gate = threading.Event()
        # Occupy the single worker out-of-band so the HTTP request
        # finds the tenant's one slot taken.
        service.dispatcher.submit("greedy", gate.wait)
        try:
            with server_in_thread(service) as running:
                client = MiningClient(running.address, tenant="greedy")
                with pytest.raises(ServeError) as excinfo:
                    client.mine(FLOCK)
                assert excinfo.value.status == 429
                assert excinfo.value.body["tenant"] == "greedy"
                gate.set()  # release the worker for the next tenant
                # Another tenant was never blocked from admission.
                other = MiningClient(running.address, tenant="patient")
                assert other.mine(FLOCK)["status"] == "complete"
        finally:
            gate.set()


class TestCheckpointedRuns:
    def test_checkpoint_run_reports_manifest_progress(self, tmp_path):
        service = MiningService(
            make_db(),
            ServerConfig(
                port=0, workers=1,
                checkpoint_path=str(tmp_path / "ckpt.sqlite"),
            ),
        )
        with server_in_thread(service) as running:
            client = MiningClient(running.address)
            result = client.mine(FLOCK, checkpoint=True)
            assert result["report"]["steps_checkpointed"] >= 1
            status = client.run_status(result["run_id"])
            assert status["status"] == "complete"
            manifest = status["checkpoint"]
            assert manifest["status"] == "complete"
            assert manifest["steps_completed"] == manifest["steps_total"]

    def test_checkpoint_without_store_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.mine(FLOCK, checkpoint=True)
        assert excinfo.value.status == 400
