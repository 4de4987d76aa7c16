"""The ambient plan-verification switch.

``mine(verify_plans=True)`` — and the test suite, via an autouse
fixture — turn on IR checking for *every* plan the planner emits (the
dynamic strategy's included) and certification of each in-flight
FILTER the dynamic strategy applies.  The switch is a
:class:`contextvars.ContextVar` rather than a parameter threaded
through a dozen call sites: lowering happens deep inside strategies
that predate the checker, and a context variable keeps the hot paths
signature-stable while staying thread/async-safe (unlike a module
global).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

_PLAN_VERIFICATION: ContextVar[bool] = ContextVar(
    "repro_plan_verification", default=False
)


def plan_verification_enabled() -> bool:
    """Whether lowered plans are schema-checked before execution."""
    return _PLAN_VERIFICATION.get()


def set_plan_verification(enabled: bool) -> None:
    """Set the ambient switch (process/context-wide until changed)."""
    _PLAN_VERIFICATION.set(enabled)


@contextmanager
def plan_verification(enabled: bool = True) -> Iterator[None]:
    """Scope the switch to a ``with`` block."""
    token = _PLAN_VERIFICATION.set(enabled)
    try:
        yield
    finally:
        _PLAN_VERIFICATION.reset(token)
