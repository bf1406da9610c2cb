"""Tests for the service wire protocol (repro.serve.protocol).

Covers adder-reference resolution (registry keys, explicit widths, raw
GeAr triples, full spec documents), wire-to-EvalRequest translation and
its defaults, malformed-body rejection, canonical response encoding,
and the coalescing keys — including the auto-backend normalisation that
makes ``auto`` coalesce with the explicit spelling of the backend that
answers it.
"""

import json

import numpy as np
import pytest

from repro.engine import api, evaluate
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.utils.distributions import INT64_OPERAND_BITS, UniformOperands


# ---------------------------------------------------------------------------
# adder references
# ---------------------------------------------------------------------------

def test_resolve_registry_key_default_width():
    adder = protocol.resolve_adder("gear_r2p2")
    assert adder.width == protocol.DEFAULT_WIDTH


def test_resolve_family_with_width():
    adder = protocol.resolve_adder({"family": "rca", "width": 12})
    assert adder.width == 12


def test_resolve_gear_triple():
    adder = protocol.resolve_adder({"gear": [12, 4, 4]})
    assert (adder.config.n, adder.config.r, adder.config.p) == (12, 4, 4)


def test_resolve_spec_document_round_trips():
    from repro.spec.catalog import catalog_spec

    spec = catalog_spec("gear_r2p2", 8)
    via_wire = protocol.resolve_adder({"spec": spec.to_dict()})
    direct = spec.to_model()
    assert via_wire.fingerprint() == direct.fingerprint()


def test_resolution_is_memoised():
    first = protocol.resolve_adder("gear_r2p2")
    second = protocol.resolve_adder("gear_r2p2")
    assert first is second


@pytest.mark.parametrize("ref", [
    "definitely_not_registered",
    {"family": "nope"},
    {"gear": [8, 2]},
    {"unknown_kind": 1},
    42,
    None,
    {"spec": None},
    {"spec": [1, 2]},
    {"spec": {}},
])
def test_bad_references_raise_protocol_error(ref):
    with pytest.raises(ProtocolError):
        protocol.resolve_adder(ref)


@pytest.mark.parametrize("ref,fragment", [
    ({"family": "rca", "width": True}, "'width' must be an integer"),
    ({"family": "rca", "width": 6.5}, "'width' must be an integer"),
    ({"family": "rca", "width": "6"}, "'width' must be an integer"),
    ({"gear": [12, 4.5, 4]}, "'r' must be an integer"),
    ({"gear": [True, 4, 4]}, "'n' must be an integer"),
    ({"gear": [12, 4, None]}, "'p' must be an integer"),
])
def test_reference_integers_refuse_bools_and_fractions(ref, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        protocol.resolve_adder(ref)


def _wide_spec_document():
    from repro.spec.catalog import catalog_spec

    return catalog_spec("rca", protocol.MAX_WIDTH + 1).to_dict()


@pytest.mark.parametrize("ref,fragment", [
    ({"family": "rca", "width": 257}, "'width' must be at most 256"),
    ({"gear": [10 ** 6, 1, 1]}, "'n' must be at most 256"),
    ({"spec": _wide_spec_document()}, "spec width must be at most 256"),
])
def test_references_wider_than_max_width_are_refused(ref, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        protocol.resolve_adder(ref)


def test_reference_integers_accept_integral_floats():
    assert protocol.resolve_adder({"family": "rca", "width": 6.0}).width == 6
    adder = protocol.resolve_adder({"gear": [12.0, 4, 4]})
    assert (adder.config.n, adder.config.r, adder.config.p) == (12, 4, 4)


# ---------------------------------------------------------------------------
# /eval wire bodies
# ---------------------------------------------------------------------------

def test_build_request_defaults():
    request = protocol.build_request({"adder": "gear_r2p2"})
    assert request.mode == "monte_carlo"
    assert request.samples == 10_000
    assert request.seed == 2015
    assert request.backend == "sampling"


def test_build_request_full_body():
    request = protocol.build_request({
        "adder": {"gear": [12, 4, 4]},
        "mode": "exhaustive",
        "backend": "analytic",
        "thresholds": [16, 64],
    })
    assert request.mode == "exhaustive"
    assert request.backend == "analytic"
    assert request.maa_thresholds == (16.0, 64.0)


@pytest.mark.parametrize("wire,fragment", [
    ({}, "adder"),
    ({"adder": "gear_r2p2", "mode": "fixed"}, "mode"),
    ({"adder": "gear_r2p2", "bogus": 1}, "bogus"),
    ([], "object"),
    ({"adder": "gear_r2p2", "thresholds": "x"}, "thresholds"),
    ({"adder": "gear_r2p2", "seed": -1},
     "'seed' must be a non-negative integer, got -1"),
    ({"adder": "gear_r2p2", "samples": 0},
     "'samples' must be a positive integer, got 0"),
])
def test_build_request_rejects_malformed(wire, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        protocol.build_request(wire)


@pytest.mark.parametrize("wire,fragment", [
    ({"adder": "gear_r2p2", "samples": True, "seed": 6.7},
     "'samples' must be an integer"),
    ({"adder": "gear_r2p2", "seed": 6.7}, "'seed' must be an integer"),
    ({"adder": "gear_r2p2", "seed": False}, "'seed' must be an integer"),
    ({"adder": "gear_r2p2", "samples": "100"},
     "'samples' must be an integer"),
])
def test_build_request_refuses_bools_and_fractions(wire, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        protocol.build_request(wire)


@pytest.mark.parametrize("thresholds", [
    "123",          # a string once iterated into (1.0, 2.0, 3.0)
    {"5": 1},       # an object once iterated into its keys
    [True, 2],      # a bool once read as 1.0
    [1, float("nan")],
    [10 ** 400],
])
def test_build_request_thresholds_must_be_a_list_of_finite_numbers(
        thresholds):
    with pytest.raises(ProtocolError, match="bad thresholds"):
        protocol.build_request({"adder": "gear_r2p2",
                                "thresholds": thresholds})


def test_build_request_null_seed_and_integral_floats():
    assert protocol.build_request(
        {"adder": "gear_r2p2", "seed": None}).seed is None
    request = protocol.build_request(
        {"adder": "gear_r2p2", "samples": 500.0, "seed": 6.0})
    assert (request.samples, request.seed) == (500, 6)
    assert type(request.seed) is int


WIDE_SAMPLED = {"adder": {"family": "rca", "width": 64}, "samples": 200}


@pytest.mark.parametrize("backend", [None, "sampling", "compiled"])
def test_build_request_refuses_sampling_past_int64(backend):
    wire = dict(WIDE_SAMPLED) if backend is None else dict(WIDE_SAMPLED,
                                                           backend=backend)
    with pytest.raises(ProtocolError) as refused:
        protocol.build_request(wire)
    with pytest.raises(ValueError) as sampler:
        UniformOperands(64).sample(1, np.random.default_rng(0))
    assert str(refused.value) == str(sampler.value)


def test_build_request_keeps_wide_auto_and_the_widest_sampled_width():
    assert protocol.build_request(
        dict(WIDE_SAMPLED, backend="auto")).backend == "auto"
    assert protocol.build_request(
        {"adder": {"family": "rca", "width": INT64_OPERAND_BITS}}).width == 62


def test_offline_payload_matches_engine(gear_wire={"adder": "gear_r2p2",
                                                   "samples": 1000,
                                                   "seed": 5}):
    payload = protocol.offline_eval_payload(gear_wire)
    direct = evaluate(protocol.build_request(gear_wire)).to_json()
    assert payload == direct


def test_canonical_bytes_match_cli_json_encoding():
    payload = {"b": 1, "a": {"z": [1, 2]}}
    expected = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    assert protocol.canonical_bytes(payload) == expected


# ---------------------------------------------------------------------------
# coalescing keys
# ---------------------------------------------------------------------------

def test_eval_key_stable_across_equivalent_bodies():
    a = protocol.build_request({"adder": "gear_r2p2", "samples": 1000,
                                "seed": 9})
    b = protocol.build_request({"adder": {"family": "gear_r2p2", "width": 8},
                                "seed": 9, "samples": 1000})
    assert protocol.eval_coalesce_key(a) == protocol.eval_coalesce_key(b)


def test_eval_key_distinguishes_seed_and_samples():
    base = {"adder": "gear_r2p2", "samples": 1000, "seed": 1}
    key = protocol.eval_coalesce_key(protocol.build_request(base))
    for variant in [dict(base, seed=2), dict(base, samples=2000)]:
        other = protocol.eval_coalesce_key(protocol.build_request(variant))
        assert other != key


def test_eval_key_none_for_unseeded_monte_carlo():
    request = protocol.build_request({"adder": "gear_r2p2", "seed": None})
    assert protocol.eval_coalesce_key(request) is None


def test_eval_key_auto_coalesces_with_resolved_backend():
    """'auto' must share a key with the backend it resolves to."""
    from repro.engine.backends import resolve_backend

    wire = {"adder": "gear_r2p2", "mode": "exhaustive"}
    auto = protocol.build_request(dict(wire, backend="auto"))
    resolved = resolve_backend(auto).name
    explicit = protocol.build_request(dict(wire, backend=resolved))
    assert (protocol.eval_coalesce_key(auto)
            == protocol.eval_coalesce_key(explicit))


def test_request_digest_folds_seed_into_identity():
    adder = protocol.resolve_adder("gear_r2p2")
    r1 = api.EvalRequest.monte_carlo(adder, 1000, seed=1)
    r2 = api.EvalRequest.monte_carlo(adder, 1000, seed=2)
    assert api.request_digest(r1) != api.request_digest(r2)
    # while the shard-cache key material stays seed-free
    assert (api.request_key_material(r1) == api.request_key_material(r2))


def test_wire_key_canonicalises_field_order():
    a = protocol.wire_coalesce_key("verify", {"width": 8, "adders": ["rca"]})
    b = protocol.wire_coalesce_key("verify", {"adders": ["rca"], "width": 8})
    assert a == b
    assert a != protocol.wire_coalesce_key("experiment",
                                           {"width": 8, "adders": ["rca"]})


# ---------------------------------------------------------------------------
# /verify and /experiment bodies
# ---------------------------------------------------------------------------

def test_build_verify_options_defaults_and_validation():
    adders, options = protocol.build_verify_options({})
    assert adders is None
    assert options.width == protocol.DEFAULT_WIDTH

    adders, options = protocol.build_verify_options(
        {"adders": ["rca"], "layers": ["behavioural"], "width": 6})
    assert adders == ["rca"]
    assert options.layers == ("behavioural",)

    with pytest.raises(ProtocolError, match="unknown adders"):
        protocol.build_verify_options({"adders": ["nope"]})
    with pytest.raises(ProtocolError, match="list of registry keys"):
        protocol.build_verify_options({"adders": "rca"})


@pytest.mark.parametrize("wire,fragment", [
    ({"adders": ["gear_r2p2"], "width": True}, "'width' must be an integer"),
    ({"width": 6.7}, "'width' must be an integer"),
    ({"width": "6"}, "'width' must be an integer"),
    ({"seed": False}, "'seed' must be an integer"),
    ({"seed": None}, "'seed' must be an integer"),
    ({"samples": 100.5}, "'samples' must be an integer"),
    ({"layers": "vector"}, "'layers' must be a non-empty list"),
    ({"layers": []}, "'layers' must be a non-empty list"),
    ({"layers": ["vector", "vector"]}, "distinct layer names"),
    ({"layers": [1]}, "'layers' must be a non-empty list"),
    ({"layers": ["nope"]}, "unknown layers"),
    ({"adders": []}, "non-empty list of registry keys"),
    ({"backend": "nope"}, "unknown backend 'nope'"),
    ({"adders": ["etaii_l4"], "width": 7}, "no registered adder supports"),
    ({"width": 0}, "width must be >= 1"),
    ({"width": 10 ** 9}, "'width' must be at most 256"),
    ({"width": 63, "layers": ["vector"]}, "width must be at most 62"),
    ({"width": 64}, "width must be at most 62"),
    ({"samples": -1}, "'samples' must be a positive integer, got -1"),
    ({"samples": 0}, "'samples' must be a positive integer, got 0"),
    ({"seed": -1}, "'seed' must be a non-negative integer, got -1"),
])
def test_build_verify_options_rejects_at_parse_time(wire, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        protocol.build_verify_options(wire)


def test_build_verify_options_accepts_integral_and_partial_bodies():
    _, options = protocol.build_verify_options({"width": 6.0, "seed": 3})
    assert (options.width, options.seed) == (6, 3)
    assert type(options.width) is int
    # One named adder defined at the width is enough; the runner skips
    # the others, as the CLI does.
    adders, options = protocol.build_verify_options(
        {"adders": ["etaii_l4", "rca"], "width": 7, "backend": "auto"})
    assert adders == ["etaii_l4", "rca"]
    assert options.backend == "auto"


def test_build_experiment_validates_name():
    name, kwargs = protocol.build_experiment(
        {"name": "table3", "samples": 100, "seed": 1})
    assert name == "table3"
    assert kwargs == {"samples": 100, "seed": 1}

    with pytest.raises(ProtocolError, match="unknown experiment"):
        protocol.build_experiment({"name": "nope"})
    with pytest.raises(ProtocolError, match="unknown experiment"):
        protocol.build_experiment({})
    with pytest.raises(ProtocolError, match="unknown experiment"):
        protocol.build_experiment({"name": ["table3"]})


@pytest.mark.parametrize("wire,fragment", [
    ({"name": "table3", "samples": True}, "'samples' must be an integer"),
    ({"name": "table3", "seed": 1.5}, "'seed' must be an integer"),
    ({"name": "table3", "samples": 0},
     "'samples' must be a positive integer, got 0"),
    ({"name": "table3", "seed": -1},
     "'seed' must be a non-negative integer, got -1"),
    ({"name": "sweep", "backend": "typo"}, "unknown backend 'typo'"),
])
def test_build_experiment_refuses_bools_and_fractions(wire, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        protocol.build_experiment(wire)


def test_build_experiment_reads_integral_floats():
    _, kwargs = protocol.build_experiment(
        {"name": "table3", "samples": 100.0, "seed": None})
    assert kwargs == {"samples": 100}
