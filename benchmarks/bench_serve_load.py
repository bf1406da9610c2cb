"""Bench (load): the evaluation service under mixed concurrent traffic.

Not a paper artefact — this replays thousands of mixed requests (a mix
of hot repeated evals, a cold per-request tail and periodic verify
calls) against an in-process ``gear serve`` daemon with a two-process
warm worker pool, and reports p50/p99 latency plus how many requests
the memo and the coalescer answered.

Acceptance gates, checked here and in the CI ``serve-smoke`` job via
``python benchmarks/bench_serve_load.py``:

* no repeat recomputes: every request whose body was warmed or already
  sent earlier in the script is remembered or coalesced
  (``memo.hits + coalesce.hits >= repeats``),
* warm-cache p50 stays under ``MAX_WARM_P50_S`` — a repeated request
  must cost a digest lookup, not a recomputation,
* every served ``/eval`` body is byte-identical to the offline engine's
  canonical JSON for the same wire request.
"""

import json
import random
import time

import pytest

from repro.serve import ServeClient, ServeDaemon, protocol, start_background
from repro.serve.client import replay

#: Total requests in the replay (the issue's floor is 1000).
REQUESTS = 1200

#: Client-side concurrency for the replay.
CONCURRENCY = 16

#: Worker processes behind the daemon.
WORKERS = 2

#: Warm-cache p50 ceiling: a repeated (coalesced or memoised) request
#: is a hash lookup plus HTTP round trip, never a recomputation.
MAX_WARM_P50_S = 0.25

#: Distinct hot eval bodies — repeated often enough that concurrent
#: duplicates are guaranteed at CONCURRENCY clients.
HOT_WIRES = [
    {"adder": "gear_r2p2", "samples": 20_000, "seed": 2015},
    {"adder": {"gear": [12, 4, 4]}, "samples": 20_000, "seed": 2015},
    {"adder": {"family": "etaii_l4", "width": 8}, "samples": 20_000,
     "seed": 2015, "backend": "auto"},
]

#: One cheap verify body mixed into the stream.
VERIFY_WIRE = {"adders": ["gear_r2p2"], "layers": ["behavioural"],
               "width": 6}


def _script(requests: int = REQUESTS):
    """The mixed request script: ~80% hot evals, ~15% cold, ~5% verify."""
    rng = random.Random(2015)
    script = []
    for i in range(requests):
        roll = rng.random()
        if roll < 0.80:
            script.append({"endpoint": "eval",
                           "body": rng.choice(HOT_WIRES)})
        elif roll < 0.95:
            # Cold tail: distinct seeds never coalesce with each other.
            script.append({"endpoint": "eval",
                           "body": {"adder": "gear_r2p2", "samples": 2_000,
                                    "seed": 10_000 + i}})
        else:
            script.append({"endpoint": "verify", "body": VERIFY_WIRE})
    return script


def _repeats(script) -> int:
    """Script items whose body was warmed or sent earlier in the script."""
    seen = {("eval", json.dumps(wire, sort_keys=True)) for wire in HOT_WIRES}
    repeats = 0
    for item in script:
        key = (item["endpoint"], json.dumps(item["body"], sort_keys=True))
        repeats += key in seen
        seen.add(key)
    return repeats


def run_load(requests: int = REQUESTS, verbose: bool = False):
    """Run the load replay against a fresh daemon; returns the summary."""
    daemon = ServeDaemon(port=0, workers=WORKERS)
    thread = start_background(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            # Warm the pool (model resolution, first evaluation) so the
            # measured replay sees steady-state latency.
            for wire in HOT_WIRES:
                client.eval(wire)
            served = client.eval_raw(HOT_WIRES[0])
        offline = protocol.canonical_bytes(
            protocol.offline_eval_payload(HOT_WIRES[0]))

        script = _script(requests)
        start = time.perf_counter()
        summary = replay(script, port=daemon.port, concurrency=CONCURRENCY)
        summary["wall_s"] = time.perf_counter() - start
        summary["repeats"] = _repeats(script)
        summary["byte_identical"] = served == offline
    finally:
        daemon.stop()
        thread.join(timeout=30)

    if verbose:
        lat = summary["latency_s"]
        coal = summary["coalesce"]
        print(f"workload: {summary['requests']} requests, "
              f"{CONCURRENCY} clients, {WORKERS} workers")
        print(f"wall time: {summary['wall_s']:.2f} s "
              f"({summary['requests'] / summary['wall_s']:.0f} req/s)")
        print(f"latency: p50={lat['p50'] * 1e3:.1f} ms  "
              f"p99={lat['p99'] * 1e3:.1f} ms  "
              f"max={lat['max'] * 1e3:.1f} ms")
        print(f"repeats: {summary['repeats']}, remembered: "
              f"{summary['memo']['hits']}, coalesced: {coal['hits']}, "
              f"computed: {coal['misses']}")
        print(f"served vs offline bytes: "
              f"{'identical' if summary['byte_identical'] else 'DIFFER'}")
        print(f"errors: {len(summary['errors'])}")
    return summary


def _deduplicated(summary) -> int:
    """Requests answered without a computation of their own."""
    return summary["memo"]["hits"] + summary["coalesce"]["hits"]


def _check(summary) -> bool:
    return (not summary["errors"]
            and summary["byte_identical"]
            and _deduplicated(summary) >= summary["repeats"]
            and summary["latency_s"]["p50"] <= MAX_WARM_P50_S)


@pytest.fixture(scope="module")
def load_summary():
    return run_load()


def test_serve_load_no_repeat_recomputes(load_summary):
    assert _deduplicated(load_summary) >= load_summary["repeats"]


def test_serve_load_warm_p50(load_summary):
    assert load_summary["latency_s"]["p50"] <= MAX_WARM_P50_S


def test_serve_load_byte_identity_and_errors(load_summary):
    assert load_summary["byte_identical"]
    assert load_summary["errors"] == []


if __name__ == "__main__":
    import sys

    summary = run_load(verbose=True)
    print(json.dumps({k: summary[k] for k in
                      ("requests", "repeats", "latency_s", "memo",
                       "coalesce", "wall_s")},
                     indent=2, sort_keys=True))
    sys.exit(0 if _check(summary) else 1)
