"""MiningOptions: coverage by construction.

Every test here iterates ``dataclasses.fields(MiningOptions)`` (or the
enumerations the options module owns), so an option added later fails
this file until it is given a sample value, a wire decision and a place
in the configuration matrix.
"""

import dataclasses
import itertools

import pytest

from repro import (
    MiningClient,
    MiningOptions,
    MiningService,
    MiningSession,
    RetryPolicy,
    ServeError,
    ServerConfig,
    evaluate_flock_bruteforce,
    mine,
)
from repro.errors import EvaluationError, FilterError
from repro.flocks.options import (
    BACKENDS,
    PER_CALL_FIELDS,
    STRATEGIES,
    WIRE_FIELDS,
)
from repro.serve import server_in_thread

FIELDS = [f.name for f in dataclasses.fields(MiningOptions)]

#: One non-default value per option.
SAMPLES = {
    "strategy": "optimized",
    "backend": "sqlite",
    "verify_plans": False,
    "parallelism": 2,
    "retry": RetryPolicy(max_attempts=1),
    "checkpoint": "ckpt.sqlite",
    "run_id": "r1",
    "resume": "r0",
}

#: What a sample needs beside itself to be a valid combination.
NEEDS = {"resume": {"checkpoint": "ckpt.sqlite"}}

FLOCK_TEXT = """
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2

FILTER:
COUNT(answer.B) >= 2
"""


def test_every_field_has_a_sample():
    assert set(SAMPLES) == set(FIELDS)
    defaults = MiningOptions()
    for name, sample in SAMPLES.items():
        assert sample != getattr(defaults, name), name


# ----------------------------------------------------------------------
# (b) over(): None inherits, anything else overrides
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", FIELDS)
def test_over_inherits_none_and_overrides_otherwise(name):
    base = MiningOptions()
    assert base.over(**{name: None}) is base
    changed = base.over(**NEEDS.get(name, {}), **{name: SAMPLES[name]})
    assert getattr(changed, name) == SAMPLES[name]
    for other in set(FIELDS) - {name} - NEEDS.get(name, {}).keys():
        assert getattr(changed, other) == getattr(base, other)
    # A second layer keeps the first where it passes None.
    assert changed.over(**{name: None}) is changed


def test_over_rejects_a_name_that_is_not_an_option():
    for value in (None, 3):
        with pytest.raises(TypeError, match="jion_order"):
            MiningOptions().over(jion_order=value)


def test_every_keyword_surface_rejects_an_unknown_name(small_basket_db, basket_flock):
    session = MiningSession(small_basket_db)
    with pytest.raises(TypeError):
        mine(small_basket_db, basket_flock, jion_order="ues")
    with pytest.raises(TypeError):
        session.mine(basket_flock, jion_order="ues")
    with pytest.raises(TypeError):
        MiningSession(small_basket_db, jion_order="ues")
    with pytest.raises(TypeError):
        ServerConfig(jion_order="ues")
    with pytest.raises(TypeError):
        MiningClient("http://127.0.0.1:1").mine(FLOCK_TEXT, jion_order="ues")


@pytest.mark.parametrize("name", FIELDS)
def test_session_defaults_are_the_options_that_are_not_per_call(
    small_basket_db, name
):
    kwargs = {**NEEDS.get(name, {}), name: SAMPLES[name]}
    if name in PER_CALL_FIELDS:
        with pytest.raises(TypeError, match=name):
            MiningSession(small_basket_db, **kwargs)
    else:
        session = MiningSession(small_basket_db, **kwargs)
        assert getattr(session.defaults, name) == SAMPLES[name]


# ----------------------------------------------------------------------
# (a) the wire form: client payload -> from_json -> to_json
# ----------------------------------------------------------------------


def client_payload(**options):
    """The JSON body MiningClient.mine would POST for ``options``."""
    client = MiningClient("http://127.0.0.1:1")
    sent = []
    client._request = lambda method, path, payload: sent.append(payload)
    client.mine(FLOCK_TEXT, **options)
    return sent[0]


@pytest.mark.parametrize("name", FIELDS)
def test_wire_fields_round_trip_and_the_rest_are_rejected(name):
    # On the wire, checkpoint is a switch; the server owns the store.
    value = True if name == "checkpoint" else SAMPLES[name]
    if name not in WIRE_FIELDS:
        with pytest.raises(TypeError, match=name):
            client_payload(**{name: value})
        with pytest.raises(ValueError, match=name):
            MiningOptions.from_json({name: "x"}, MiningOptions())
        return
    payload = client_payload(**{name: value})
    assert payload == {"flock": FLOCK_TEXT, name: value}
    options = MiningOptions.from_json(
        payload, MiningOptions(), checkpoint_store="server.sqlite"
    )
    assert options.to_json()[name] == value
    # Nothing but what the payload names moved off the defaults.
    moved = {
        f for f in FIELDS
        if getattr(options, f) != getattr(MiningOptions(), f)
    }
    assert moved <= {name, "checkpoint"}
    if name in ("checkpoint", "resume"):
        assert options.checkpoint == "server.sqlite"


def test_from_json_inherits_the_defaults_it_is_given():
    defaults = MiningOptions(strategy="optimized", backend="sqlite")
    assert MiningOptions.from_json({"flock": FLOCK_TEXT}, defaults) is defaults
    options = MiningOptions.from_json({"backend": "memory"}, defaults)
    assert (options.strategy, options.backend) == ("optimized", "memory")


# ----------------------------------------------------------------------
# (d) invalid combinations: the documented exception, and 400 over HTTP
# ----------------------------------------------------------------------

INVALID = [
    (FilterError, {"strategy": "quantum"}),
    (EvaluationError, {"backend": "duckdb"}),
    (ValueError, {"resume": "r0"}),
    (ValueError, {"checkpoint": "ckpt.sqlite", "strategy": "naive"}),
    (ValueError, {"checkpoint": "ckpt.sqlite", "strategy": "dynamic"}),
]


@pytest.fixture
def server(small_basket_db, tmp_path):
    store = str(tmp_path / "server.sqlite")
    service = MiningService(
        small_basket_db,
        ServerConfig(port=0, workers=1, checkpoint_path=store),
    )
    with server_in_thread(service) as running:
        yield running


@pytest.mark.parametrize("error, kwargs", INVALID)
def test_invalid_combination_raises_and_is_400(
    server, small_basket_db, basket_flock, error, kwargs
):
    with pytest.raises(error):
        MiningOptions(**kwargs)
    with pytest.raises(error):
        mine(small_basket_db, basket_flock, **kwargs)
    wire = {k: True if k == "checkpoint" else v for k, v in kwargs.items()}
    with pytest.raises(ServeError) as excinfo:
        MiningClient(server.address).mine(FLOCK_TEXT, **wire)
    assert excinfo.value.status == 400


def test_checkpoint_on_sqlite_is_a_valid_combination(server):
    """Both backends run the one executor loop, recorder included."""
    MiningOptions(checkpoint="ckpt.sqlite", backend="sqlite")  # no raise
    result = MiningClient(server.address).mine(
        FLOCK_TEXT, backend="sqlite", checkpoint=True
    )
    report = result["report"]
    assert report["backend_used"] == "sqlite"
    assert report["run_id"] is not None
    assert report["steps_checkpointed"] >= 1


@pytest.mark.parametrize("name", sorted(set(FIELDS) - WIRE_FIELDS.keys()))
def test_library_only_option_in_a_payload_is_400(server, name):
    with pytest.raises(ServeError) as excinfo:
        MiningClient(server.address)._request(
            "POST", "/v1/mine", {"flock": FLOCK_TEXT, name: "x"}
        )
    assert excinfo.value.status == 400
    assert name in str(excinfo.value)


# ----------------------------------------------------------------------
# (c) every enumerated configuration returns the Section 2 survivor set
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "strategy, backend", itertools.product(STRATEGIES, BACKENDS)
)
def test_every_configuration_matches_bruteforce(
    small_basket_db, basket_flock, strategy, backend
):
    expected = evaluate_flock_bruteforce(small_basket_db, basket_flock)
    options = MiningOptions(strategy=strategy, backend=backend)
    relation, report = mine(small_basket_db, basket_flock, options=options)
    assert relation.tuples == expected.tuples
    assert report.strategy_requested == strategy
    assert report.backend_requested == backend
