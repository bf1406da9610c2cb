"""Tests for the daemon's completed-result memo (repro.serve.memo).

The memo answers a request repeated after its first computation with
the stored bytes.  Pinned here: the LRU byte budget, byte identity of
remembered answers on all three POST endpoints, that nothing without a
stable identity or without a 200 is remembered, the byte tier (an exact
repeat of a request's bytes is answered without parsing or identity
derivation, inside the same budget), the ``/stats`` layout, and that a
worker process killed mid-request no longer wedges the pool.
"""

import http.client
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.serve import (
    ResultMemo,
    ServeClient,
    ServeDaemon,
    ServeError,
    protocol,
    start_background,
)
from repro.serve import pool as pool_module
from repro.serve.memo import MEMO_BYTES

EVAL_WIRE = {"adder": "gear_r2p2", "samples": 1000, "seed": 41}
VERIFY_WIRE = {"adders": ["gear_r2p2"], "layers": ["behavioural"],
               "width": 6}
EXPERIMENT_WIRE = {"name": "table3", "samples": 2000, "seed": 41}


# ---------------------------------------------------------------------------
# ResultMemo: a byte-bounded LRU
# ---------------------------------------------------------------------------

def test_memo_evicts_oldest_past_byte_budget():
    memo = ResultMemo(max_bytes=10)
    memo.put("a", b"1234")
    memo.put("b", b"5678")
    assert memo.get("a") == b"1234"  # "a" is now the most recent
    memo.put("c", b"90ab")
    assert memo.get("b") is None
    assert memo.get("a") == b"1234" and memo.get("c") == b"90ab"
    assert len(memo) == 2 and memo.bytes == 8
    assert memo.hits == 3


def test_memo_replacing_a_key_recounts_its_bytes():
    memo = ResultMemo(max_bytes=10)
    memo.put("a", b"12345678")
    memo.put("a", b"12")
    assert len(memo) == 1 and memo.bytes == 2


def test_memo_skips_a_body_larger_than_the_budget():
    memo = ResultMemo(max_bytes=4)
    memo.put("a", b"12")
    memo.put("big", b"12345")
    assert memo.get("big") is None
    assert memo.get("a") == b"12" and memo.bytes == 2


def test_memo_recalls_an_aliased_body_by_exact_bytes():
    memo = ResultMemo(max_bytes=1000)
    memo.put("k", b"body")
    memo.alias("/eval", b'{"x": 1}', "k")
    assert memo.recall("/eval", b'{"x": 1}') == b"body"
    assert memo.recall("/eval", b'{"x":1}') is None  # other bytes
    assert memo.recall("/verify", b'{"x": 1}') is None  # other path
    assert memo.hits == 1
    assert len(memo) == 1 and memo.aliases == 1


def test_memo_aliases_only_a_remembered_body():
    memo = ResultMemo(max_bytes=1000)
    memo.alias("/eval", b"{}", "k")
    assert memo.aliases == 0 and memo.bytes == 0
    assert memo.recall("/eval", b"{}") is None


def test_memo_alias_of_an_evicted_body_recalls_nothing():
    memo = ResultMemo(max_bytes=220)
    memo.put("k", b"a" * 100)
    memo.alias("/eval", b"{}", "k")
    memo.put("other", b"b" * 100)  # evicts "k", the oldest entry
    assert memo.get("k") is None
    assert memo.recall("/eval", b"{}") is None
    assert memo.aliases == 0 and memo.bytes == 100 and memo.hits == 0


def test_memo_aliases_share_the_byte_budget_and_lru():
    memo = ResultMemo(max_bytes=400)
    memo.put("k", b"x" * 100)
    for i in range(10, 60):  # as the daemon does: a hit, then its alias
        assert memo.get("k") == b"x" * 100
        memo.alias("/eval", str(i).encode(), "k")
        assert memo.bytes <= memo.max_bytes
    alias_cost = 32 + len("k")
    assert memo.aliases == (400 - 100) // alias_cost
    assert memo.bytes == 100 + memo.aliases * alias_cost
    assert memo.recall("/eval", b"59") == b"x" * 100
    assert memo.recall("/eval", b"10") is None  # the oldest went first


# ---------------------------------------------------------------------------
# the memo inside a daemon
# ---------------------------------------------------------------------------

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


def _counter(client, name):
    return client.stats()["telemetry"]["counters"].get(name, 0)


@pytest.mark.parametrize("endpoint,wire", [
    ("eval", EVAL_WIRE),
    ("verify", VERIFY_WIRE),
    ("experiment", EXPERIMENT_WIRE),
])
def test_repeat_is_remembered_byte_identically(client, endpoint, wire):
    status, first = client.request_raw("POST", f"/{endpoint}", wire)
    assert status == 200
    computed = _counter(client, f"serve.{endpoint}.computed")
    remembered = _counter(client, f"serve.{endpoint}.remembered")
    status, again = client.request_raw("POST", f"/{endpoint}", wire)
    assert status == 200 and again == first
    assert _counter(client, f"serve.{endpoint}.computed") == computed
    assert _counter(client, f"serve.{endpoint}.remembered") == remembered + 1


def test_remembered_eval_matches_offline_bytes(client):
    wire = dict(EVAL_WIRE, seed=42)
    client.eval_raw(wire)
    offline = protocol.canonical_bytes(protocol.offline_eval_payload(wire))
    assert client.eval_raw(wire) == offline


def test_unseeded_eval_is_computed_every_time(daemon, client):
    wire = dict(EVAL_WIRE, seed=None)
    entries = client.stats()["server"]["memo"]["entries"]
    computed = _counter(client, "serve.eval.computed")
    client.eval(wire)
    client.eval(wire)
    assert _counter(client, "serve.eval.computed") == computed + 2
    assert client.stats()["server"]["memo"]["entries"] == entries


def test_bad_request_is_not_remembered(client):
    before = client.stats()["server"]["memo"]
    for _ in range(2):
        with pytest.raises(ServeError) as excinfo:
            client.eval({"adder": "gear_r2p2", "samples": True})
        assert excinfo.value.status == 400
    after = client.stats()["server"]["memo"]
    assert (after["entries"], after["bytes"], after["hits"]) == (
        before["entries"], before["bytes"], before["hits"])


def test_worker_400_is_not_remembered(client, monkeypatch):
    # The body parses on the event loop; the worker refuses it with a
    # ProtocolError, which the daemon answers with 400.
    wire = dict(EVAL_WIRE, seed=44)

    def refuse(body):
        raise protocol.ProtocolError("forced worker refusal")

    monkeypatch.setitem(pool_module._HANDLERS, "eval", refuse)
    computed = _counter(client, "serve.eval.computed")
    before = client.stats()["server"]["memo"]
    for _ in range(2):
        with pytest.raises(ServeError) as excinfo:
            client.eval(wire)
        assert excinfo.value.status == 400
    assert _counter(client, "serve.eval.computed") == computed + 2
    after = client.stats()["server"]["memo"]
    assert (after["aliases"], after["hits"]) == (before["aliases"],
                                                 before["hits"])


def test_wide_sampled_eval_is_refused_before_the_pool(client):
    wire = {"adder": {"family": "rca", "width": 64}, "samples": 200}
    computed = _counter(client, "serve.eval.computed")
    for backend in ("sampling", "compiled"):
        with pytest.raises(ServeError) as excinfo:
            client.eval(dict(wire, backend=backend))
        assert excinfo.value.status == 400
        assert "samples at most 62-bit operands" in excinfo.value.message
    assert _counter(client, "serve.eval.computed") == computed
    # auto answers analytically: the infinite-sample limit, zero samples.
    assert client.eval(dict(wire, backend="auto"))["samples"] == 0


def test_worker_failure_is_not_remembered(client, monkeypatch):
    wire = dict(EVAL_WIRE, seed=43)
    real = pool_module._HANDLERS["eval"]
    calls = []

    def fail_once(body):
        calls.append(body)
        if len(calls) == 1:
            raise RuntimeError("forced worker failure")
        return real(body)

    monkeypatch.setitem(pool_module._HANDLERS, "eval", fail_once)
    with pytest.raises(ServeError) as excinfo:
        client.eval(wire)
    assert excinfo.value.status == 500
    assert "forced worker failure" in excinfo.value.message
    served = client.eval_raw(wire)
    assert len(calls) == 2  # the retry computed afresh
    assert served == protocol.canonical_bytes(
        protocol.offline_eval_payload(wire))


def test_stats_layout(client):
    server = client.stats()["server"]
    assert set(server["coalesce"]) == {"hits", "misses", "inflight_keys"}
    assert set(server["memo"]) == {"hits", "entries", "aliases", "bytes"}
    assert server["memo"]["entries"] >= 1 and server["memo"]["bytes"] > 0
    assert server["worker_respawns"] == 0


# ---------------------------------------------------------------------------
# the byte tier: an exact repeat skips parsing and identity derivation
# ---------------------------------------------------------------------------

def _post_bytes(port, path, raw):
    """POST ``raw`` exactly as given (ServeClient re-encodes its body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=raw,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _resolves(client, endpoint):
    spans = client.stats()["telemetry"]["spans"]
    return spans.get(f"serve.{endpoint}.resolve", [0])[0]


@pytest.fixture
def derivations(monkeypatch):
    """Counts calls of the two wire validators identity derivation uses."""
    calls = {"eval": 0, "verify": 0}
    for endpoint, name in (("eval", "build_request"),
                           ("verify", "build_verify_options")):
        real = getattr(protocol, name)

        def counted(wire, real=real, endpoint=endpoint):
            calls[endpoint] += 1
            return real(wire)

        monkeypatch.setattr(protocol, name, counted)
    return calls


@pytest.mark.parametrize("endpoint,wire", [
    ("eval", dict(EVAL_WIRE, seed=51)),
    ("verify", dict(VERIFY_WIRE, seed=51)),
])
def test_byte_repeat_skips_parsing_and_identity(client, derivations,
                                                endpoint, wire):
    status, first = client.request_raw("POST", f"/{endpoint}", wire)
    assert status == 200 and derivations[endpoint] >= 1
    before = client.stats()["server"]["memo"]
    remembered = _counter(client, f"serve.{endpoint}.remembered")
    resolves = _resolves(client, endpoint)
    derived = derivations[endpoint]
    status, again = client.request_raw("POST", f"/{endpoint}", wire)
    assert status == 200 and again == first
    assert derivations[endpoint] == derived
    assert _resolves(client, endpoint) == resolves
    assert _counter(client, f"serve.{endpoint}.remembered") == remembered + 1
    assert client.stats()["server"]["memo"]["hits"] == before["hits"] + 1


def test_byte_tier_is_per_path(client):
    wire = dict(EVAL_WIRE, seed=52)
    client.eval_raw(wire)
    client.eval_raw(wire)
    # The same bytes sent to another endpoint are that endpoint's body.
    status, body = client.request_raw("POST", "/experiment", wire)
    assert status == 400 and b"error" in body


def test_differently_spelled_body_is_remembered_by_identity(daemon, client,
                                                            derivations):
    wire = dict(EVAL_WIRE, seed=53)
    first = client.eval_raw(wire)
    computed = _counter(client, "serve.eval.computed")
    remembered = _counter(client, "serve.eval.remembered")
    aliases = client.stats()["server"]["memo"]["aliases"]
    derived = derivations["eval"]
    spelled = json.dumps(dict(wire, mode="monte_carlo")).encode()
    for _ in range(2):
        status, body = _post_bytes(daemon.port, "/eval", spelled)
        assert status == 200 and body == first
    assert _counter(client, "serve.eval.computed") == computed
    assert _counter(client, "serve.eval.remembered") == remembered + 2
    # The first spelling derived the identity and aliased its bytes; the
    # repeat of those bytes needed neither.
    assert derivations["eval"] == derived + 1
    assert client.stats()["server"]["memo"]["aliases"] == aliases + 1


@pytest.mark.parametrize("endpoint,wire,status", [
    ("eval", dict(EVAL_WIRE, seed=None), 200),  # unseeded: no identity
    ("eval", {"adder": "gear_r2p2", "samples": True}, 400),
    ("experiment", {"name": "table3", "samples": -7}, 400),
    ("eval", {"adder": {"family": "rca", "width": 64}, "samples": 200},
     400),  # sampled past 62 bits
])
def test_never_answered_from_the_byte_index(client, endpoint, wire, status):
    before = client.stats()["server"]["memo"]
    resolves = _resolves(client, endpoint)
    for _ in range(3):
        got, _body = client.request_raw("POST", f"/{endpoint}", wire)
        assert got == status
    after = client.stats()["server"]["memo"]
    assert (after["aliases"], after["hits"]) == (before["aliases"],
                                                 before["hits"])
    assert _resolves(client, endpoint) == resolves + 3


def test_evicted_body_makes_its_alias_compute_again():
    wire, other = dict(EVAL_WIRE, seed=54), dict(EVAL_WIRE, seed=55)
    size = len(protocol.canonical_bytes(protocol.offline_eval_payload(wire)))
    daemon = ServeDaemon(port=0, workers=0)
    # Room for one body and its aliases, not for two bodies.
    daemon.memo = ResultMemo(max_bytes=size + size // 2)
    thread = start_background(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            first = client.eval_raw(wire)
            assert client.eval_raw(wire) == first  # via its alias
            client.eval_raw(other)  # evicts the first body
            computed = _counter(client, "serve.eval.computed")
            assert client.eval_raw(wire) == first
            assert _counter(client, "serve.eval.computed") == computed + 1
            memo = client.stats()["server"]["memo"]
            assert memo["bytes"] <= daemon.memo.max_bytes
    finally:
        daemon.stop()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_large_verify_body_alias_is_charged_its_digest(daemon, client):
    client.request_raw("POST", "/verify", VERIFY_WIRE)  # remembered
    padded = json.dumps(VERIFY_WIRE).encode() + b" " * (1 << 20)
    key = protocol.wire_coalesce_key("verify", VERIFY_WIRE)
    before = client.stats()["server"]["memo"]
    status, body = _post_bytes(daemon.port, "/verify", padded)
    assert status == 200
    after = client.stats()["server"]["memo"]
    assert after["bytes"] - before["bytes"] == 32 + len(key)
    assert after["aliases"] == before["aliases"] + 1
    assert after["bytes"] <= MEMO_BYTES
    resolves = _resolves(client, "verify")
    assert _post_bytes(daemon.port, "/verify", padded) == (200, body)
    assert _resolves(client, "verify") == resolves


# ---------------------------------------------------------------------------
# a killed worker process no longer wedges the pool
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX signals")
def test_killed_worker_is_respawned():
    daemon = ServeDaemon(port=0, workers=1)
    thread = start_background(daemon)
    try:
        before = set(multiprocessing.active_children())
        outcome = {}

        def doomed():
            with ServeClient(port=daemon.port, timeout=60) as client:
                try:
                    client.eval({"adder": "gear_r2p2", "samples": 150_000,
                                 "seed": 44})
                    outcome["status"] = 200
                except ServeError as exc:
                    outcome["status"] = exc.status

        requester = threading.Thread(target=doomed)
        requester.start()
        deadline = time.monotonic() + 30
        workers = set()
        while not workers and time.monotonic() < deadline:
            workers = set(multiprocessing.active_children()) - before
            time.sleep(0.001)
        assert workers, "the pool never started a worker process"
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)
        requester.join(timeout=60)
        assert not requester.is_alive()
        assert outcome["status"] == 500

        wire = {"adder": "gear_r2p2", "samples": 20_000, "seed": 45}
        with ServeClient(port=daemon.port, timeout=60) as client:
            served = client.eval_raw(wire)
            assert client.stats()["server"]["worker_respawns"] == 1
        assert served == protocol.canonical_bytes(
            protocol.offline_eval_payload(wire))
    finally:
        daemon.stop()
        thread.join(timeout=30)
    assert not thread.is_alive()
