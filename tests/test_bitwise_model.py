"""Unit tests for the per-bit-statistics error model."""

import numpy as np
import pytest

from repro.core.bitwise_model import (
    BitStatistics,
    estimate_bit_statistics,
    predict_error_rate,
    statistics_from_distribution,
)
from repro.core.error_model import error_probability_windows
from repro.core.gear import GeArAdder, GeArConfig
from repro.engine import EvalRequest, evaluate
from repro.utils.distributions import GaussianOperands, SparseOperands, UniformOperands


def _bitwise_error_probability(cfg, stats):
    """The window chain over the GeAr model's layout under measured
    per-bit rates."""
    adder = GeArAdder(cfg)
    return error_probability_windows(adder.windows, adder.width,
                                     rates=stats.rates)


def _measured_error_rate(adder, samples, seed, distribution):
    request = EvalRequest(adder=adder, mode="monte_carlo", samples=samples,
                          seed=seed, distribution=distribution)
    return evaluate(request).stats.error_rate


class TestBitStatistics:
    def test_uniform_factory(self):
        stats = BitStatistics.uniform(8)
        assert stats.width == 8
        assert all(g == 0.25 for g in stats.generate)
        assert all(p == 0.5 for p in stats.propagate)

    def test_validation(self):
        with pytest.raises(ValueError):
            BitStatistics(generate=(0.9,), propagate=(0.5,))  # g+p > 1
        with pytest.raises(ValueError):
            BitStatistics(generate=(0.5, 0.5), propagate=(0.5,))
        with pytest.raises(ValueError):
            BitStatistics(generate=(-0.1,), propagate=(0.5,))

    def test_estimation_from_samples(self):
        a = np.array([0b11, 0b01, 0b10, 0b00], dtype=np.int64)
        b = np.array([0b11, 0b10, 0b10, 0b00], dtype=np.int64)
        stats = estimate_bit_statistics(a, b, 2)
        # bit 0: pairs (1,1),(1,0),(0,0),(0,0) -> g=1/4, p=1/4
        assert stats.generate[0] == pytest.approx(0.25)
        assert stats.propagate[0] == pytest.approx(0.25)

    def test_estimation_validates(self):
        with pytest.raises(ValueError):
            estimate_bit_statistics(np.array([1]), np.array([1, 2]), 4)

    def test_uniform_distribution_estimates_quarter_half(self):
        stats = statistics_from_distribution(UniformOperands(10), samples=200_000)
        for g, p in zip(stats.generate, stats.propagate):
            assert g == pytest.approx(0.25, abs=0.01)
            assert p == pytest.approx(0.5, abs=0.01)


class TestBitwiseProbability:
    def test_uniform_stats_reproduce_paper_model(self):
        for (n, r, p) in [(16, 2, 2), (16, 4, 4), (12, 4, 4), (20, 5, 5)]:
            cfg = GeArConfig(n, r, p)
            assert _bitwise_error_probability(
                cfg, BitStatistics.uniform(n)
            ) == pytest.approx(GeArAdder(cfg).error_probability(), abs=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _bitwise_error_probability(GeArConfig(16, 4, 4),
                                       BitStatistics.uniform(8))
        with pytest.raises(ValueError):
            predict_error_rate(GeArAdder(GeArConfig(16, 4, 4)),
                               UniformOperands(8),
                               samples=1000)

    def test_exact_config_zero(self):
        assert _bitwise_error_probability(
            GeArConfig(8, 4, 4), BitStatistics.uniform(8)
        ) == 0.0

    def test_zero_propagate_means_no_errors(self):
        # If no bit ever propagates, speculation cannot miss.
        stats = BitStatistics(generate=(0.5,) * 16, propagate=(0.0,) * 16)
        assert _bitwise_error_probability(GeArConfig(16, 4, 4), stats) == 0.0

    def test_all_propagate_makes_error_generate_bound(self):
        # All-propagate operands never generate, so no carry ever exists.
        stats = BitStatistics(generate=(0.0,) * 16, propagate=(1.0,) * 16)
        assert _bitwise_error_probability(GeArConfig(16, 4, 4), stats) == 0.0


class TestPredictions:
    @pytest.mark.parametrize("dist_factory,abs_tol", [
        (lambda: SparseOperands(16, one_density=0.25), 0.01),
        (lambda: SparseOperands(16, one_density=0.75), 0.01),
        (lambda: GaussianOperands(16), 0.015),
    ])
    def test_prediction_close_to_measurement(self, dist_factory, abs_tol):
        adder = GeArAdder(GeArConfig(16, 2, 2))
        dist = dist_factory()
        predicted = predict_error_rate(adder, dist, samples=100_000, seed=5)
        measured = _measured_error_rate(
            adder, samples=100_000, seed=6, distribution=dist
        )
        assert predicted == pytest.approx(measured, abs=abs_tol)

    @pytest.mark.parametrize("key", ["loa_half", "hoeraa", "cesa_rect"])
    def test_non_plain_layout_refused(self, key):
        # The chain reads only the speculative windows; an OR-reduced low
        # part or a rectify stage changes the sum outside them.
        from repro.spec.catalog import spec_adder

        with pytest.raises(ValueError, match="plain window layouts"):
            predict_error_rate(spec_adder(key, 16), UniformOperands(16),
                               samples=1000)

    def test_prediction_beats_paper_model_on_sparse_data(self):
        from repro.core.error_model import error_probability

        cfg = GeArConfig(16, 2, 2)
        adder = GeArAdder(cfg)
        dist = SparseOperands(16, one_density=0.25)
        measured = _measured_error_rate(
            adder, samples=100_000, seed=7, distribution=dist
        )
        bitwise_gap = abs(predict_error_rate(adder, dist, seed=8) - measured)
        paper_gap = abs(error_probability(cfg) - measured)
        assert bitwise_gap < paper_gap / 10
