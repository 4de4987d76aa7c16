"""Deterministic fault injection for the evaluator and backends.

The degradation machinery (strategy fallback, SQLite retry, budget
aborts) is only trustworthy if its failure paths run in CI, not just in
production incidents.  This harness plants *failure points* at fixed
sites inside the library; a test arms a site with an exception and the
next call(s) through that site raise it, deterministically.

Sites currently instrumented:

========================  ====================================================
``relational.join``       per join stage the in-memory engine runs
``executor.step``         before each FILTER step in ``execute_plan``
``optimizer.search``      per candidate plan scored in ``best_plan``
``dynamic.join``          per stage the dynamic policy is consulted on
``sqlite.execute``        before every statement the SQLite backend executes
``parallel.worker``       at the start of every parallel partition task
``parallel.hang``         same place, but an armed :class:`Hang` makes the
                          worker *sleep* instead of raise — the hung-worker
                          watchdog's deterministic test hook
========================  ====================================================

Arming ``parallel.worker`` with :class:`WorkerKill` simulates a hard
worker death: the pool worker exits immediately, the parent sees
``BrokenProcessPool``, and the parallel executor must degrade to serial
execution and record the downgrade.  Pool workers are forked, so they
inherit whatever is armed when the pool starts and count ``skip`` /
``times`` per process.

Usage::

    from repro.testing import faults

    with faults.inject("sqlite.execute", sqlite3.OperationalError("database is locked"), times=2):
        backend.evaluate_flock(flock)   # first two executes fail, then heal

The harness is deliberately global (module-level registry) so the site
checks cost one dict lookup on an *empty* dict when nothing is armed —
cheap enough to leave in hot paths permanently.  Arming is done from
the test thread, but *tripping* happens concurrently (the serve
dispatcher's worker threads mine through the same sites), so the
per-fault ``hits``/``failures`` counters are updated under a lock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union


ErrorSource = Union[BaseException, type, Callable[[], BaseException]]


class WorkerKill(BaseException):
    """Injected at ``parallel.worker`` to simulate a killed worker.

    Deliberately a ``BaseException``: real worker deaths (OOM kill,
    segfault) are not ordinary exceptions, and the parallel executor's
    crash handling must not depend on ``except Exception`` catching it.
    In a process-pool worker the task handler turns it into an immediate
    ``os._exit``, so the parent observes a genuinely broken pool.
    """


class Hang(BaseException):
    """Injected at ``parallel.hang`` to simulate a *hung* worker.

    Unlike every other injected error this one is not raised out of the
    site: :func:`maybe_hang` catches it and sleeps for
    :attr:`seconds`, so the worker simply stops making progress — the
    failure mode the parallel executor's watchdog exists to detect.
    Keep ``seconds`` small in tests: an abandoned (non-cancellable)
    worker sleeps it out in the background.
    """

    def __init__(self, seconds: float = 2.0):
        super().__init__(f"injected hang for {seconds}s")
        self.seconds = seconds

    def __reduce__(self):
        # The default BaseException reduction replays ``Hang(*args)``,
        # i.e. ``Hang("injected hang for ...s")`` — a message string
        # where ``seconds`` belongs.  Rebuild from the real parameter.
        return (Hang, (self.seconds,))


@dataclass
class FaultSpec:
    """One armed failure point.

    Attributes:
        site: the instrumented site name.
        error: an exception instance, an exception class, or a zero-arg
            factory returning an exception.
        skip: let this many hits pass before failing (fail the
            ``skip+1``-th call onwards).
        times: fail at most this many times, then heal (``None`` =
            fail forever while armed).  ``skip=0, times=2`` models a
            transient failure that a retry loop should survive.
        hits: total calls observed through the site (telemetry for
            assertions).
        failures: how many of those calls were failed.
    """

    site: str
    error: ErrorSource
    skip: int = 0
    times: int | None = None
    hits: int = field(default=0, init=False)
    failures: int = field(default=0, init=False)

    def make_error(self) -> BaseException:
        if isinstance(self.error, BaseException):
            return self.error
        made = self.error()
        if not isinstance(made, BaseException):  # exception class case
            raise TypeError(f"fault factory for {self.site!r} returned {made!r}")
        return made

    def should_fail(self) -> bool:
        if self.hits <= self.skip:
            return False
        if self.times is not None and self.failures >= self.times:
            return False
        return True


#: site name -> armed fault.  Empty in production; `trip` is a no-op then.
_ACTIVE: dict[str, FaultSpec] = {}

#: Serializes counter updates: workers trip sites concurrently, and an
#: unlocked ``hits += 1`` / ``failures += 1`` pair would race (lost
#: increments, or two workers both claiming the same scheduled failure).
_LOCK = threading.Lock()


def trip(site: str) -> None:
    """Called by instrumented library code; raises if ``site`` is armed.

    No-op (one failed dict lookup, no lock) when nothing is armed.
    Thread-safe: the hit/failure accounting for one call is atomic, so
    a schedule like ``skip=1, times=2`` fails exactly the 2nd and 3rd
    hits even when the hits come from concurrent threads.
    """
    if not _ACTIVE:
        return
    with _LOCK:
        fault = _ACTIVE.get(site)
        if fault is None:
            return
        fault.hits += 1
        if not fault.should_fail():
            return
        fault.failures += 1
        error = fault.make_error()
    raise error


def maybe_hang(site: str) -> None:
    """A trip point whose injected :class:`Hang` *sleeps* (outside the
    registry lock) instead of raising — workers call this so a test can
    deterministically simulate a stalled task.  Any non-``Hang`` error
    armed at the site raises as usual."""
    try:
        trip(site)
    except Hang as hang:
        time.sleep(hang.seconds)


@contextmanager
def inject(
    site: str,
    error: ErrorSource,
    skip: int = 0,
    times: int | None = None,
) -> Iterator[FaultSpec]:
    """Arm ``site`` with ``error`` for the duration of the block.

    Yields the :class:`FaultSpec` so tests can assert on ``hits`` /
    ``failures``.  Nested injection at the same site is rejected — it
    would make the failure schedule ambiguous.
    """
    if isinstance(error, type) and issubclass(error, BaseException):
        def error_source() -> BaseException:
            return error(f"injected fault at {site}")
    else:
        error_source = error
    fault = FaultSpec(site=site, error=error_source, skip=skip, times=times)
    with _LOCK:
        if site in _ACTIVE:
            raise RuntimeError(f"fault site {site!r} is already armed")
        _ACTIVE[site] = fault
    try:
        yield fault
    finally:
        with _LOCK:
            _ACTIVE.pop(site, None)


def active_faults() -> tuple[str, ...]:
    """Names of the currently armed sites (for diagnostics)."""
    with _LOCK:
        return tuple(sorted(_ACTIVE))


def reset_faults() -> None:
    """Disarm everything — a safety net for test teardown."""
    with _LOCK:
        _ACTIVE.clear()
