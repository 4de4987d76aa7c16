"""Client-disconnect cancellation: an abandoned request must abort
cleanly — releasing its queue slot and recording the abort — never
finish silently for nobody.

The verdict vocabulary is the chaos harness's
(:class:`repro.testing.chaos.ChaosVerdict`): a disconnected request
whose run record ends ``aborted`` is a **clean-abort**; one that kept
computing to completion is the property violation the harness calls a
**silent-partial** (work the client never received, produced after the
contract ended).  The "fault" here is not an injected exception but the
client itself vanishing — an empty :class:`FaultSchedule` documents
that.
"""

import json
import socket
import time

import pytest

from repro import database_from_dict
from repro.serve import (
    MiningClient,
    MiningService,
    ServerConfig,
    server_in_thread,
)
from repro.testing.chaos import ChaosVerdict, FaultSchedule

#: Sized so one naive evaluation takes seconds — a socket closed a few
#: hundred ms in is mid-mine with a wide margin on any machine.  The
#: filter is a SUM: the engine sums the last join pair by pair, while a
#: COUNT of ``B`` here is counted by bitmaps in a fraction of a second.
SLOW_FLOCK = """
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2

FILTER:
SUM(answer.B) >= 2
"""

CHEAP_FLOCK = """
QUERY:
answer(P) :- pairs(P,$1)

FILTER:
COUNT(answer.P) >= 1
"""

#: The disconnect scenario's "schedule": no injected faults — the
#: client hanging up *is* the fault.
DISCONNECT_SCHEDULE = FaultSchedule(seed=0, faults=())


def make_slow_db():
    n_baskets, items_per_basket, n_items = 1500, 50, 400
    return database_from_dict({
        "baskets": (
            ["BID", "item"],
            [
                (basket, f"i{(basket * 7 + slot * 3) % n_items}")
                for basket in range(n_baskets)
                for slot in range(items_per_basket)
            ],
        ),
        "pairs": (["PID", "x"], [(p, p % 3) for p in range(9)]),
    })


def abandon_mine(host: str, port: int, flock: str,
                 hold_seconds: float) -> None:
    """Send a well-formed POST /v1/mine, then hang up without reading
    the response — the impatient client.

    The request pins the serial engine: this client shares a process
    with the server, so a forked pool worker (``REPRO_JOBS`` > 1) would
    inherit this socket and keep it open past the ``close()`` below —
    the server would see no EOF until the workers exit.  A real client
    is another process."""
    body = json.dumps(
        {"flock": flock, "strategy": "naive", "parallelism": 1}
    ).encode()
    head = (
        "POST /v1/mine HTTP/1.1\r\n"
        "Host: test\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(head.encode() + body)
        time.sleep(hold_seconds)
    # Context exit closes the socket: the server's watchdog read sees
    # EOF and cancels the evaluation.


def wait_until(predicate, timeout: float = 60.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def classify(record) -> ChaosVerdict:
    """Map a finished server-side run record onto the chaos verdicts."""
    if record.status == "aborted":
        return ChaosVerdict(
            kind="clean-abort",
            schedule=DISCONNECT_SCHEDULE,
            detail=record.error or "",
        )
    if record.status == "complete":
        return ChaosVerdict(
            kind="silent-partial",
            schedule=DISCONNECT_SCHEDULE,
            detail="request completed after the client disconnected",
        )
    return ChaosVerdict(
        kind=record.status, schedule=DISCONNECT_SCHEDULE,
        detail=record.error or "",
    )


@pytest.fixture()
def service():
    built = MiningService(
        make_slow_db(), ServerConfig(port=0, workers=1)
    )
    yield built
    # server_in_thread closes the service; this is belt and braces for
    # tests that fail before reaching it.
    built.close()


class TestMidMineDisconnect:
    def test_disconnect_cancels_and_records_clean_abort(self, service):
        with server_in_thread(service) as server:
            abandon_mine(server.host, server.port, SLOW_FLOCK,
                         hold_seconds=0.3)
            # The evaluation was mid-flight; the guard's next checkpoint
            # must surface the cancellation.
            assert wait_until(
                lambda: service.runs.counts().get("aborted", 0) == 1
            ), f"run never aborted: {service.runs.counts()}"

            record = service.runs.records()[-1]
            verdict = classify(record)
            assert verdict.kind == "clean-abort", str(verdict)
            assert "ExecutionCancelled" in (record.error or "")

            # The slot was released: nothing queued, nothing running.
            assert wait_until(lambda: service.dispatcher.active() == 0)
            assert service.dispatcher.queue_depth() == 0
            stats = service.dispatcher.tenant_stats()["default"]
            assert stats["occupancy"] == 0
            assert stats["cancelled"] == 1

            # The abort is visible to observers, not silent.
            client = MiningClient(server.address)
            status = client.run_status(record.run_id)
            assert status["status"] == "aborted"
            assert client.metric_value(
                "repro_mine_requests_total",
                tenant="default", outcome="aborted",
            ) == 1
            assert client.metric_value(
                "repro_mine_requests_total",
                tenant="default", outcome="complete",
            ) in (None, 0)

            # And the server is healthy: the next request completes.
            result = client.mine(CHEAP_FLOCK)
            assert result["status"] == "complete"


class TestQueuedDisconnect:
    def test_disconnect_while_queued_drops_without_running(self, service):
        import threading

        gate = threading.Event()
        try:
            with server_in_thread(service) as server:
                # Occupy the single worker so the HTTP request queues.
                service.dispatcher.submit("blocker", gate.wait)
                abandon_mine(server.host, server.port, SLOW_FLOCK,
                             hold_seconds=0.3)
                # The doomed job sits queued with a cancelled token
                # until the worker frees up...
                assert wait_until(
                    lambda: service.runs.counts().get("queued", 0) == 1
                )
                # abandon_mine has returned, so the socket is closed;
                # give the event loop a beat to see the EOF and cancel
                # the token before the worker is released.
                time.sleep(1.0)
                gate.set()
                # ...at which point dispatch drops it unrun.
                assert wait_until(
                    lambda: service.runs.counts().get("aborted", 0) == 1
                ), f"queued run never dropped: {service.runs.counts()}"

                record = service.runs.records()[-1]
                assert classify(record).kind == "clean-abort"
                assert record.started_at is None  # never ran
                stats = service.dispatcher.tenant_stats()["default"]
                assert stats["cancelled"] == 1
                assert stats["occupancy"] == 0
        finally:
            gate.set()
