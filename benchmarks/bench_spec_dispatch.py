"""Bench (micro): spec-derived model dispatch overhead on an engine sweep.

Not a paper artefact — this guards the AdderSpec refactor's performance
contract: a model compiled from the declarative IR (``spec.to_model()``)
must cost no more than **2 %** over the legacy hand-written class on an
engine sweep workload, measured as a min-of-N wall-clock ratio of the
same sweep.  Both sides run identical geometry (equal fingerprints), so
any gap is pure dispatch/abstraction overhead, not workload drift.

Run with::

    pytest benchmarks/bench_spec_dispatch.py -s
"""

from __future__ import annotations

import time

import pytest

from repro.core.gear import GeArAdder, GeArConfig
from repro.engine import Engine, EvalRequest
from repro.spec.catalog import gear_spec

SAMPLES = 120_000
SEED = 11
REPEATS = 5

# CI-safe ceiling: the ISSUE target is 2 %; same order, no extra headroom —
# both sides share the one vectorised SpecAdder hot path, so the
# true gap is far below the limit.
DISPATCH_LIMIT = 0.02

GEOMETRIES = [(16, 2, 2), (16, 2, 4), (16, 2, 6)]


def _legacy_adders():
    return [GeArAdder(GeArConfig(n, r, p)) for n, r, p in GEOMETRIES]


def _spec_adders():
    return [gear_spec(n, r, p).to_model() for n, r, p in GEOMETRIES]


def _sweep(engine: Engine, adders) -> int:
    """A small accuracy sweep: the workload the overhead is judged on."""
    total = 0
    for adder in adders:
        total += engine.evaluate(
            EvalRequest.monte_carlo(adder, SAMPLES, seed=SEED)
        ).stats.samples
    return total


def _min_wall_time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_spec_models_match_legacy_fingerprints():
    for legacy, spec in zip(_legacy_adders(), _spec_adders()):
        assert legacy.fingerprint() == spec.fingerprint()


def test_spec_dispatch_overhead_below_2_percent(archive):
    engine = Engine(jobs=1)
    legacy = _legacy_adders()
    spec = _spec_adders()

    legacy_time = _min_wall_time(lambda: _sweep(engine, legacy))
    spec_time = _min_wall_time(lambda: _sweep(engine, spec))
    ratio = spec_time / legacy_time
    archive(
        "bench_spec_dispatch",
        "\n".join([
            "spec-model dispatch overhead (engine sweep)",
            f"  legacy wall time : {legacy_time * 1e3:9.2f} ms",
            f"  spec wall time   : {spec_time * 1e3:9.2f} ms",
            f"  ratio            : {ratio:9.3f} x",
        ]),
    )
    assert ratio < 1.0 + DISPATCH_LIMIT
