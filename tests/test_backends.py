"""Tests for the pluggable backend layer (repro.engine.backends).

Covers the registry contract, explicit and ``auto`` backend resolution,
the analytic backend's exactness through the public ``evaluate`` path,
cache-key disjointness between backends, determinism across worker
counts, and the removed legacy request spellings (which now raise a
pointed TypeError).
"""

import json

import pytest

from repro import obs
from repro.core.gear import GeArAdder, GeArConfig
from repro.engine import (
    ANALYTIC_VERSION,
    BACKENDS,
    AnalyticUnsupported,
    Engine,
    EvalRequest,
    evaluate,
    register_backend,
    resolve_backend,
)
from repro.metrics.exhaustive import exhaustive_stats
from repro.utils.distributions import GaussianOperands, SparseOperands


@pytest.fixture()
def adder():
    return GeArAdder(GeArConfig(8, 2, 2))


# ---------------------------------------------------------------------------
# registry and resolution
# ---------------------------------------------------------------------------

def test_registry_contains_both_builtin_backends():
    assert set(BACKENDS) >= {"sampling", "analytic"}
    for backend in BACKENDS.values():
        assert callable(backend.supports)
        assert callable(backend.evaluate)


def test_register_backend_rejects_auto_name():
    class Fake:
        name = "auto"

        def supports(self, request):
            return True

        def evaluate(self, request, engine):
            raise NotImplementedError

    with pytest.raises(ValueError):
        register_backend(Fake())


def test_unknown_backend_name_rejected_at_request_build(adder):
    with pytest.raises(ValueError, match="unknown backend"):
        EvalRequest.exhaustive(adder, backend="quantum")


def test_auto_resolves_to_analytic_for_block_based(adder):
    request = EvalRequest.exhaustive(adder, backend="auto")
    assert resolve_backend(request).name == "analytic"


def test_auto_falls_back_to_sampling(adder):
    request = EvalRequest.monte_carlo(
        adder, 100, distribution=GaussianOperands(8), backend="auto")
    assert resolve_backend(request).name == "sampling"


def test_explicit_analytic_unsupported_raises(adder):
    request = EvalRequest.monte_carlo(
        adder, 100, distribution=GaussianOperands(8), backend="analytic")
    with pytest.raises(AnalyticUnsupported):
        evaluate(request)


# ---------------------------------------------------------------------------
# analytic answers through the public evaluate() path
# ---------------------------------------------------------------------------

def test_analytic_exhaustive_matches_simulation(adder):
    result = evaluate(EvalRequest.exhaustive(adder, backend="analytic"))
    reference = exhaustive_stats(adder)
    assert result.stats.samples == 0
    assert result.stats.error_rate == pytest.approx(reference.error_rate,
                                                    abs=1e-12)
    assert result.stats.med == pytest.approx(reference.med, abs=1e-9)
    assert result.stats.max_ed_observed == reference.max_ed_observed


def test_analytic_monte_carlo_uses_distribution_profile(adder):
    sparse = evaluate(EvalRequest.monte_carlo(
        adder, 100, distribution=SparseOperands(8, one_density=0.1),
        backend="analytic"))
    uniform = evaluate(EvalRequest.exhaustive(adder, backend="analytic"))
    # sparse operands rarely carry: far fewer speculative misses
    assert sparse.stats.error_rate < uniform.stats.error_rate


def test_analytic_identical_across_jobs(adder):
    request = EvalRequest.exhaustive(adder, backend="analytic")
    one = Engine(jobs=1).evaluate(request)
    two = Engine(jobs=2).evaluate(request)
    assert one.to_json() == two.to_json()


# ---------------------------------------------------------------------------
# cache-key disjointness and analytic caching
# ---------------------------------------------------------------------------

def test_warm_sampling_cache_not_served_to_analytic(adder, tmp_path):
    engine = Engine(jobs=1, cache=tmp_path)
    sampled = engine.evaluate(EvalRequest.exhaustive(adder))
    assert sampled.shards_executed > 0

    analytic = engine.evaluate(EvalRequest.exhaustive(adder,
                                                      backend="analytic"))
    # nothing from the sampled run may answer the analytic request
    assert analytic.shards_cached == 0
    assert analytic.shards_executed == 1
    assert analytic.stats.samples == 0

    warm = engine.evaluate(EvalRequest.exhaustive(adder, backend="analytic"))
    assert warm.shards_cached == 1
    assert warm.shards_executed == 0
    assert warm.stats == analytic.stats

    # and the analytic entry did not poison the sampling key either
    resampled = engine.evaluate(EvalRequest.exhaustive(adder))
    assert resampled.stats == sampled.stats
    assert resampled.stats.samples > 0


def _stale_analytic_v(record: dict) -> dict:
    record["body"]["analytic_v"] = ANALYTIC_VERSION - 1
    return record


def _keyless(record: dict) -> dict:
    # the pre-record layout: a bare payload with no embedded key
    return {"version": 1, "analytic_v": ANALYTIC_VERSION,
            "pmf": record["body"]["pmf"]}


@pytest.mark.parametrize("damage", [_stale_analytic_v, _keyless],
                         ids=["stale_analytic_v", "keyless"])
def test_bad_analytic_record_is_quarantined_and_recomputed(adder, tmp_path,
                                                           damage):
    request = EvalRequest.exhaustive(adder, backend="analytic")
    uncached = Engine(jobs=1).evaluate(request)
    Engine(jobs=1, cache=tmp_path).evaluate(request)
    (path,) = tmp_path.glob("??/*.json")
    text = path.read_text()
    path.write_text(json.dumps(damage(json.loads(text))))

    engine = Engine(jobs=1, cache=tmp_path)
    with obs.collecting() as collector:
        served = engine.evaluate(request)
    counters = collector.snapshot().counters
    assert served.stats == uncached.stats
    assert served.shards_cached == 0 and served.shards_executed == 1
    assert counters["engine.cache.corrupt"] == 1
    assert "engine.cache.hit" not in counters
    assert (tmp_path / "quarantine" / path.name).exists()
    assert path.read_text() == text
    warm = engine.evaluate(request)
    assert warm.shards_cached == 1
    assert warm.stats == uncached.stats


# ---------------------------------------------------------------------------
# constructor classmethods and removed legacy spellings
# ---------------------------------------------------------------------------

def test_classmethods_build_equivalent_requests(adder):
    assert EvalRequest.monte_carlo(adder, 500, seed=7) == EvalRequest(
        adder=adder, mode="monte_carlo", samples=500, seed=7)
    assert EvalRequest.exhaustive(adder) == EvalRequest(
        adder=adder, mode="exhaustive")


def test_engine_monte_carlo_removed(adder):
    engine = Engine(jobs=1)
    with pytest.raises(TypeError, match="EvalRequest.monte_carlo"):
        engine.monte_carlo(adder, samples=1000, seed=3)


def test_engine_exhaustive_removed(adder):
    engine = Engine(jobs=1)
    with pytest.raises(TypeError, match="EvalRequest.exhaustive"):
        engine.exhaustive(adder)
