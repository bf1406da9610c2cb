"""Tests for the daemon's completed-result memo (repro.serve.memo).

The memo answers a request repeated after its first computation with
the stored bytes.  Pinned here: the LRU byte budget, byte identity of
remembered answers on all three POST endpoints, that nothing without a
stable identity or without a 200 is remembered, the ``/stats`` layout,
and that a worker process killed mid-request no longer wedges the pool.
"""

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


def test_worker_400_is_not_remembered(client):
    # The body parses on the event loop; the experiment refuses the
    # sample count in the worker, which the daemon answers with 400.
    wire = {"name": "table3", "samples": -5}
    computed = _counter(client, "serve.experiment.computed")
    for _ in range(2):
        with pytest.raises(ServeError) as excinfo:
            client.experiment(wire)
        assert excinfo.value.status == 400
    assert _counter(client, "serve.experiment.computed") == computed + 2


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
    assert set(server["memo"]) == {"hits", "entries", "bytes"}
    assert server["memo"]["entries"] >= 1 and server["memo"]["bytes"] > 0
    assert server["worker_respawns"] == 0


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
