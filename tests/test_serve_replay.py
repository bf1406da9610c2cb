"""``replay`` against a live daemon: aggregates, errors and its sockets.

``repro.serve.client.replay`` gives each pool thread its own keep-alive
``ServeClient``.  These tests run a small mixed script through a
background daemon and check the aggregates it reports, that a refused
request lands in ``errors``, and that every connection the replay opened
is closed by the time it returns.
"""

import socket

import pytest

from repro.serve import ServeDaemon, start_background
from repro.serve.client import replay
from repro.spec.catalog import gear_spec

EVAL_WIRE = {"adder": "gear_r2p2", "samples": 500, "seed": 3}
VERIFY_WIRE = {"adders": ["gear_r2p2"], "layers": ["behavioural"],
               "width": 6}


@pytest.fixture(scope="module")
def daemon():
    instance = ServeDaemon(port=0, workers=0)
    thread = start_background(instance)
    yield instance
    instance.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture
def opened(monkeypatch):
    """Every socket ``socket.create_connection`` hands out."""
    sockets = []
    create = socket.create_connection

    def recording(*args, **kwargs):
        sock = create(*args, **kwargs)
        sockets.append(sock)
        return sock

    monkeypatch.setattr(socket, "create_connection", recording)
    return sockets


def test_replay_reports_the_mix(daemon):
    script = [EVAL_WIRE] * 6 + [{"endpoint": "verify", "body": VERIFY_WIRE}]
    report = replay(script, port=daemon.port, concurrency=2)
    assert report["requests"] == 7
    assert report["errors"] == []
    # Six identical bodies compute once; the rest are remembered or
    # share the computation in flight.
    assert report["memo"]["hits"] + report["coalesce"]["hits"] >= 5
    assert 0.0 < report["latency_s"]["p50"] <= report["latency_s"]["max"]


def test_replay_closes_every_connection(daemon, opened):
    script = [dict(EVAL_WIRE, seed=seed) for seed in range(8)]
    report = replay(script, port=daemon.port, concurrency=3)
    assert report["errors"] == []
    # The stats probe plus one connection per pool thread that ran.
    assert 2 <= len(opened) <= 4
    assert all(sock.fileno() == -1 for sock in opened)


@pytest.mark.parametrize("width", [8.5, "8", True])
def test_served_spec_with_non_integer_width_answers_400(daemon, width):
    spec = dict(gear_spec(8, 2, 2).to_dict(), width=width)
    report = replay([{"adder": {"spec": spec}, "samples": 100}],
                    port=daemon.port, concurrency=1)
    [error] = report["errors"]
    assert error.startswith("HTTP 400:")
    assert "'width' must be an integer" in error
