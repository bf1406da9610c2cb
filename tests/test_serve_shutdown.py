"""Graceful-shutdown tests for the serve daemon.

Runs ``gear serve`` as a real subprocess, sends SIGTERM, and pins the
shutdown contract: in-flight requests drain and are answered, the
telemetry trace is flushed as parseable JSONL, and the process exits 0.
The in-process variant covers drain-with-inflight behaviour without
subprocess latency.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import ServeClient, ServeDaemon, start_background

pytestmark = pytest.mark.skipif(sys.platform == "win32",
                                reason="POSIX signals")


@contextlib.contextmanager
def _spawned_daemon(tmp_path, *extra):
    """Run ``gear serve`` as a subprocess; yield ``(proc, port)``.

    Its stderr goes to a file, so a chatty daemon never blocks on a full
    pipe; on exit the daemon is killed if still running, and its stdout
    pipe is drained and closed.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", "")
    with open(tmp_path / "daemon.err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *extra, "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env)
    try:
        ready = proc.stdout.readline().strip()
        assert ready.startswith("serving on http://"), (
            ready, (tmp_path / "daemon.err").read_text())
        yield proc, int(ready.split(":")[2].split(" ")[0].rstrip("/"))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def test_sigterm_exits_zero(tmp_path):
    with _spawned_daemon(tmp_path) as (proc, port):
        with ServeClient(port=port) as client:
            assert client.healthz()["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


def test_sigterm_flushes_parseable_trace(tmp_path):
    trace = tmp_path / "serve-trace.jsonl"
    with _spawned_daemon(tmp_path, "--trace", str(trace)) as (proc, port):
        with ServeClient(port=port) as client:
            client.eval({"adder": "gear_r2p2", "samples": 500, "seed": 1})
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

    assert trace.exists()
    records = [json.loads(line) for line in
               trace.read_text().splitlines() if line.strip()]
    assert records, "trace is empty"
    # the daemon's aggregate (endpoint counters + worker engine counters)
    # reached the CLI's trace via the shutdown flush
    from repro.obs import read_trace

    frame = read_trace(trace).frame
    assert frame.counters.get("serve.eval.requests", 0) >= 1
    assert frame.counters.get("engine.requests", 0) >= 1


def test_sigterm_drains_inflight_request():
    daemon = ServeDaemon(port=0, workers=0, drain_timeout=30.0)
    thread = start_background(daemon)
    result = {}

    def slow_request():
        with ServeClient(port=daemon.port, timeout=60) as client:
            result["payload"] = client.eval(
                {"adder": "gear_r2p2", "samples": 400_000, "seed": 11})

    requester = threading.Thread(target=slow_request)
    requester.start()
    # let the request reach the daemon, then ask for shutdown mid-flight
    deadline = time.time() + 10
    while daemon.coalescer.inflight == 0 and time.time() < deadline:
        time.sleep(0.005)
    daemon.stop()
    requester.join(timeout=60)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert result["payload"]["samples"] == 400_000


def test_stop_is_idempotent():
    daemon = ServeDaemon(port=0, workers=0)
    thread = start_background(daemon)
    daemon.stop()
    daemon.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()
