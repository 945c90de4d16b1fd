"""Tests for the service wire protocol (repro.serve.protocol).

Covers adder-reference resolution (registry keys, explicit widths, raw
GeAr triples, full spec documents), wire-to-EvalRequest translation and
its defaults, malformed-body rejection, canonical response encoding,
and the coalescing keys — including the auto-backend normalisation that
makes ``auto`` coalesce with the explicit spelling of the backend that
answers it.
"""

import json

import pytest

from repro.engine import api, evaluate
from repro.serve import protocol
from repro.serve.protocol import ProtocolError


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
])
def test_bad_references_raise_protocol_error(ref):
    with pytest.raises(ProtocolError):
        protocol.resolve_adder(ref)


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
])
def test_build_request_rejects_malformed(wire, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        protocol.build_request(wire)


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
    with pytest.raises(ProtocolError, match="int64"):
        protocol.build_verify_options({"adders": ["rca"], "width": 63})


def test_build_experiment_validates_name():
    name, kwargs = protocol.build_experiment(
        {"name": "table3", "samples": 100, "seed": 1})
    assert name == "table3"
    assert kwargs == {"samples": 100, "seed": 1}

    with pytest.raises(ProtocolError, match="unknown experiment"):
        protocol.build_experiment({"name": "nope"})
    with pytest.raises(ProtocolError, match="unknown experiment"):
        protocol.build_experiment({})
