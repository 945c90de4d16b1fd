"""End-to-end tests for the serve daemon (repro.serve.daemon).

A module-scoped in-process daemon (workers=0) answers real HTTP over a
loopback socket.  Covers the health/stats endpoints, the byte-identity
guarantee of served /eval responses against the offline engine, request
coalescing under concurrent duplicates, HTTP error mapping (400/404/405
plus worker failures as 500-free 400s for protocol errors), /verify and
/experiment round trips, and the keep-alive connection behaviour.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    ServeClient,
    ServeDaemon,
    ServeError,
    protocol,
    start_background,
)

EVAL_WIRE = {"adder": "gear_r2p2", "samples": 1000, "seed": 5}


@pytest.fixture(scope="module")
def daemon():
    instance = ServeDaemon(port=0, workers=0)
    thread = start_background(instance)
    yield instance
    instance.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture
def client(daemon):
    with ServeClient(port=daemon.port) as instance:
        yield instance


def test_port_zero_binds_ephemeral(daemon):
    assert daemon.port != 0


def test_healthz(client):
    payload = client.healthz()
    assert payload["status"] == "ok"
    assert payload["protocol"] == protocol.PROTOCOL_VERSION
    assert "/eval" in payload["endpoints"]


def test_eval_byte_identity_vs_offline(client):
    served = client.eval_raw(EVAL_WIRE)
    offline = protocol.canonical_bytes(protocol.offline_eval_payload(EVAL_WIRE))
    assert served == offline


def test_eval_analytic_backend(client):
    payload = client.eval({"adder": "gear_r2p2", "mode": "exhaustive",
                           "backend": "analytic"})
    assert payload == protocol.offline_eval_payload(
        {"adder": "gear_r2p2", "mode": "exhaustive", "backend": "analytic"})


def test_concurrent_duplicates_coalesce(daemon):
    before = daemon.coalescer.hits
    wire = {"adder": "gear_r2p2", "samples": 150_000, "seed": 77}

    def one(_):
        with ServeClient(port=daemon.port) as c:
            return c.eval(wire)

    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(one, range(6)))
    assert all(r == results[0] for r in results)
    assert daemon.coalescer.hits > before


def test_stats_counters_and_latency(daemon, client):
    client.eval(EVAL_WIRE)
    stats = client.stats()
    server = stats["server"]
    assert server["coalesce"]["hits"] + server["coalesce"]["misses"] > 0
    assert stats["latency"]["serve.eval"]["count"] >= 1
    p50 = stats["latency"]["serve.eval"]["p50_s"]
    assert p50 is None or p50 >= 0
    # worker frames were absorbed across the pool boundary
    assert stats["telemetry"]["counters"].get("engine.requests", 0) >= 1
    # the whole document survives canonical JSON encoding (no inf/nan)
    json.dumps(stats, allow_nan=False)


def test_verify_endpoint(client):
    payload = client.verify({"adders": ["gear_r2p2"],
                             "layers": ["behavioural"], "width": 6})
    assert payload["ok"] is True
    assert payload["adders"] == ["gear_r2p2"]


@pytest.mark.parametrize("width", [63, 64])
def test_verify_width_past_int64_is_400(client, width):
    with pytest.raises(ServeError) as excinfo:
        client.verify({"adders": ["rca"], "width": width})
    assert excinfo.value.status == 400
    assert "width must be <= 62" in excinfo.value.message


def test_experiment_endpoint(client):
    payload = client.experiment({"name": "table3", "samples": 2000,
                                 "seed": 3})
    assert payload  # unified to_json document


@pytest.mark.parametrize("wire,fragment", [
    ({"adder": "not_an_adder"}, "bad adder reference"),
    ({"adder": "gear_r2p2", "bogus": 1}, "unknown eval fields"),
    ({}, "adder"),
])
def test_bad_eval_bodies_are_400(client, wire, fragment):
    with pytest.raises(ServeError) as excinfo:
        client.eval(wire)
    assert excinfo.value.status == 400
    assert fragment in excinfo.value.message


def test_unsupported_backend_is_400_not_500(client):
    with pytest.raises(ServeError) as excinfo:
        client.eval({"adder": "gear_r2p2", "backend": "nope"})
    assert excinfo.value.status == 400


def test_invalid_json_body_is_400(client):
    status, data = client.request_raw("POST", "/eval")
    assert status == 400  # empty body is not a JSON object
    status, _ = client.request_raw("GET", "/healthz")
    assert status == 200


def test_unknown_path_is_404(client):
    status, data = client.request_raw("GET", "/nope")
    assert status == 404
    assert "/eval" in json.loads(data)["error"]


def test_wrong_method_is_405(client):
    status, _ = client.request_raw("POST", "/healthz", {})
    assert status == 405
    status, _ = client.request_raw("GET", "/eval")
    assert status == 405


def test_keep_alive_reuses_one_connection(client):
    client.healthz()
    conn_before = client._connection()
    client.eval(EVAL_WIRE)
    assert client._connection() is conn_before


def test_errors_do_not_poison_the_connection(client):
    with pytest.raises(ServeError):
        client.eval({"adder": "nope"})
    assert client.healthz()["status"] == "ok"
