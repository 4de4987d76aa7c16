"""The one home of every ``mine()`` knob.

Every option is a *how* — it picks a route to the flock's one survivor
set (Section 2), never the set.  :class:`MiningOptions` is the only
place one is declared, defaulted, validated, serialised for ``POST
/v1/mine`` and bound to a CLI flag; ``mine()``, ``MiningSession``, the
serve layer and the CLI build or override one and pass it inward.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from ..errors import EvaluationError, FilterError

if TYPE_CHECKING:
    from ..recovery import CheckpointStore, RetryPolicy

STRATEGIES = ("auto", "naive", "optimized", "dynamic")

BACKENDS = ("memory", "sqlite")


def positive_int(text: str) -> int:
    """argparse ``type=`` for a count that must be at least 1 (argparse
    turns ``int``'s ``ValueError`` into ``invalid positive_int value``)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _option(
    default: Any, wire: type | None = None, flag: str | None = None, **cli: Any
) -> Any:
    """One option field: its default, its JSON type if it is a ``/v1/mine``
    key, and its CLI flag with the ``add_argument`` keywords if it has one."""
    return field(
        default=default, metadata={"wire": wire, "flag": flag, "cli": cli}
    )


@dataclass(frozen=True)
class MiningOptions:
    """How one :func:`~repro.flocks.mining.mine` call evaluates a flock.

    Construction validates everything that does not need the flock:
    :class:`~repro.errors.FilterError` for an unknown ``strategy``,
    :class:`~repro.errors.EvaluationError` for an unknown ``backend``,
    ``ValueError`` for ``resume`` without ``checkpoint`` and for
    ``checkpoint`` with a strategy that has no plan.

    The join order is not an option: every lowered plan orders its
    joins by certified UES upper bounds and injects runtime semi-join
    filters from materialized pre-filter steps into later scans
    (:mod:`repro.relational.joinorder`).

    Attributes:
        strategy: ``"naive"``, ``"optimized"`` (static plan search),
            ``"dynamic"`` (Section 4.4 filtering decided mid-run), or
            ``"auto"``, which picks by flock shape (see
            :mod:`repro.flocks.mining`).
        backend: ``"memory"`` or ``"sqlite"`` (which falls back to
            memory on backend failure, with a recorded downgrade).
        verify_plans: run the :mod:`repro.analysis` verifiers on every
            plan the call uses — the IR schema checker on each lowered
            physical plan and certificate re-validation on each
            FILTER-step plan and dynamic in-flight FILTER.  ``None`` inherits
            the ambient switch, which the test suite turns on.
        parallelism: worker count of the process pool that large
            in-memory FILTER steps are partitioned over; small steps,
            the dynamic strategy and the SQLite backend run serially
            whatever the value.  ``None`` reads the ``REPRO_JOBS``
            environment variable (default 1 = serial), clamped to the
            CPU count.  Results are bit-identical to serial for any
            value; worker failures degrade to serial with a recorded
            ``parallelism`` downgrade (:mod:`repro.engine.parallel`).
        retry: the :class:`~repro.recovery.RetryPolicy` of the
            transient-fault retry rung.  ``None`` is the default policy
            (3 attempts, 50 ms base backoff);
            ``RetryPolicy(max_attempts=1)`` disables retries.
        checkpoint: a :class:`~repro.recovery.CheckpointStore` (or a
            path to one) that makes every completed FILTER step
            durable, on either backend.  Needs a plan-based strategy
            (``"auto"`` becomes ``"optimized"`` for a monotone flock).
            The report's ``run_id`` names the run.
        run_id: explicit id for a fresh checkpointed run (default:
            generated).
        resume: id of a checkpointed run to resume.  Its manifest is
            validated (same flock, plan and base-relation cardinalities,
            else :class:`~repro.errors.ResumeError`) and only unfinished
            steps re-execute.  Disables strategy degradation: another
            strategy could not honour the manifest's plan.

    Per-call *resources* (``budget``, ``cancel``, ``guard``,
    ``session``) are not options; they stay keyword arguments of
    :func:`~repro.flocks.mining.mine`.
    """

    strategy: str = _option(
        "auto", str, "--strategy", choices=STRATEGIES,
        help="evaluation strategy (default: auto, picked by flock shape)",
    )
    backend: str = _option(
        "memory", str, "--backend", choices=BACKENDS,
        help="execution backend (sqlite falls back to memory on failure)",
    )
    verify_plans: Optional[bool] = _option(None)
    parallelism: Optional[int] = _option(
        None, int, "--jobs", type=positive_int, metavar="N",
        help="workers for partitioned execution (default: REPRO_JOBS, else 1)",
    )
    retry: Optional["RetryPolicy"] = _option(None)
    checkpoint: "CheckpointStore | str | None" = _option(
        None, bool, "--checkpoint", metavar="PATH",
        help="SQLite file that makes each completed FILTER step durable, so "
        "an interrupted run can be resumed (needs a plan-based strategy)",
    )
    run_id: Optional[str] = _option(
        None, None, "--run-id", metavar="ID",
        help="explicit run id for --checkpoint (default: generated)",
    )
    resume: Optional[str] = _option(
        None, str, "--resume", metavar="RUN_ID",
        help="resume run RUN_ID from --checkpoint (unfinished steps only)",
    )

    def __post_init__(self) -> None:
        for what, value, allowed, error in (
            ("strategy", self.strategy, STRATEGIES, FilterError),
            ("backend", self.backend, BACKENDS, EvaluationError),
        ):
            if value not in allowed:
                raise error(
                    f"unknown {what} {value!r}; choose one of {allowed}"
                )
        if self.checkpoint is None:
            if self.resume is not None:
                raise ValueError(
                    "resume= (--resume) requires checkpoint= (--checkpoint)"
                )
        # Checkpointing needs a *plan* whose steps can be replayed: only
        # the plan-based strategies have one.
        elif self.strategy in ("naive", "dynamic"):
            raise ValueError(
                "checkpoint= requires a plan-based strategy "
                f"(auto/optimized), not {self.strategy!r}"
            )

    def over(self, **overrides: Any) -> "MiningOptions":
        """These options with every non-``None`` override applied
        (``None`` inherits).  A name that is not an option is passed on
        even when ``None``, so ``replace`` raises its usual ``TypeError``."""
        given = {
            k: v for k, v in overrides.items()
            if v is not None or k not in _NAMES
        }
        return replace(self, **given) if given else self

    # -- wire form (POST /v1/mine) ---------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The ``/v1/mine`` option keys these options put on the wire.
        ``checkpoint`` travels as a switch: the server owns the store."""
        payload = {name: getattr(self, name) for name in WIRE_FIELDS}
        payload["checkpoint"] = self.checkpoint is not None
        return {k: v for k, v in payload.items() if v is not None}

    @classmethod
    def from_json(
        cls,
        payload: Mapping[str, Any],
        defaults: "MiningOptions",
        checkpoint_store: "CheckpointStore | str | None" = None,
    ) -> "MiningOptions":
        """``defaults`` overridden by the option keys of a ``/v1/mine``
        payload (other keys are the caller's; ``null`` inherits), where
        ``{"checkpoint": true}``, implied by ``resume``, selects
        ``checkpoint_store``.  ``ValueError`` for a wrong JSON type, a
        library-only option, or a checkpoint request without a store."""
        given: dict[str, Any] = {}
        for name, value in payload.items():
            if name not in _NAMES or value is None:
                continue
            kind = WIRE_FIELDS.get(name)
            if kind is None:
                raise ValueError(
                    f"{name!r} is a library-only option, not a /v1/mine key"
                )
            if type(value) is not kind or (kind is int and value < 1):
                raise ValueError(f"{name!r} must be {_JSON_WORDS[kind]}")
            given[name] = value
        if given.pop("checkpoint", False) or "resume" in given:
            if checkpoint_store is None:
                raise ValueError(
                    "this server has no checkpoint store configured "
                    "(start it with --checkpoint PATH)"
                )
            given["checkpoint"] = checkpoint_store
        return replace(defaults, **given) if given else defaults

    # -- argparse binding ------------------------------------------------

    @classmethod
    def add_arguments(
        cls, parser: argparse.ArgumentParser, flags: Iterable[str]
    ) -> None:
        """Declare the option ``flags`` a subcommand exposes (e.g.
        ``"--strategy", "--jobs"``); every one defaults to unset."""
        for flag in flags:
            option = _BY_FLAG[flag]
            parser.add_argument(
                flag, dest=option.name, default=None, **option.metadata["cli"]
            )

    @staticmethod
    def given(namespace: object) -> dict[str, Any]:
        """The option values a parsed namespace carries — or any object
        with option-named attributes; unset (``None``) ones omitted."""
        return {
            name: value for name in _NAMES
            if (value := getattr(namespace, name, None)) is not None
        }

    @classmethod
    def from_args(cls, namespace: object) -> "MiningOptions":
        """The options :meth:`given` by ``namespace``, over the defaults."""
        return cls(**cls.given(namespace))


_NAMES = frozenset(f.name for f in fields(MiningOptions))

#: Fields that name one run, not a way of running: never a session-wide
#: default.
PER_CALL_FIELDS = frozenset({"strategy", "verify_plans", "run_id", "resume"})

_BY_FLAG = {
    f.metadata["flag"]: f for f in fields(MiningOptions) if f.metadata["flag"]
}

#: The ``/v1/mine`` option keys, each with its JSON type.
WIRE_FIELDS: dict[str, type] = {
    f.name: f.metadata["wire"]
    for f in fields(MiningOptions)
    if f.metadata["wire"]
}

_JSON_WORDS = {str: "a string", bool: "a boolean", int: "a positive integer"}
