"""Unit tests for repro.metrics.error_metrics."""

import numpy as np
import pytest

from repro.adders import RippleCarryAdder
from repro.core.gear import GeArAdder, GeArConfig
from repro.metrics.error_metrics import (
    TABLE1_MAA_THRESHOLDS,
    acceptance_probability,
    accuracy_amplitude,
    accuracy_information,
    compute_error_stats,
    error_distances,
)
from tests.conftest import random_pairs


class TestAccuracyAmplitude:
    def test_perfect(self):
        acc = accuracy_amplitude(np.array([10, 20]), np.array([10, 20]))
        np.testing.assert_allclose(acc, [1.0, 1.0])

    def test_half_off(self):
        acc = accuracy_amplitude(np.array([5]), np.array([10]))
        np.testing.assert_allclose(acc, [0.5])

    def test_zero_exact_conventions(self):
        acc = accuracy_amplitude(np.array([0, 3]), np.array([0, 0]))
        np.testing.assert_allclose(acc, [1.0, 0.0])

    def test_clamped_to_unit_interval(self):
        acc = accuracy_amplitude(np.array([100]), np.array([10]))
        assert acc[0] == 0.0


class TestAccuracyInformation:
    def test_identical_is_one(self):
        acc = accuracy_information(np.array([0b1010]), np.array([0b1010]), 4)
        np.testing.assert_allclose(acc, [1.0])

    def test_counts_wrong_bits(self):
        acc = accuracy_information(np.array([0b1010]), np.array([0b1000]), 4)
        np.testing.assert_allclose(acc, [0.75])

    def test_all_wrong(self):
        acc = accuracy_information(np.array([0b1111]), np.array([0b0000]), 4)
        np.testing.assert_allclose(acc, [0.0])


class TestAcceptance:
    def test_basic(self):
        acc = np.array([1.0, 0.9, 0.8, 0.99])
        assert acceptance_probability(acc, 0.95) == pytest.approx(50.0)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            acceptance_probability(np.array([1.0]), 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            acceptance_probability(np.array([]), 0.5)

    def test_float_dust_tolerated(self):
        acc = np.array([0.95 - 1e-14])
        assert acceptance_probability(acc, 0.95) == 100.0


class TestComputeErrorStats:
    def test_exact_adder_stats(self):
        adder = RippleCarryAdder(8)
        a, b = random_pairs(8, 1000, seed=1)
        stats = compute_error_stats(adder, a, b)
        assert stats.error_rate == 0.0
        assert stats.med == 0.0
        assert stats.ned == 0.0
        assert stats.acc_amp_avg == 1.0
        assert stats.acc_inf_avg == 1.0
        assert stats.maa(1.0) == 100.0

    def test_gear_stats_match_model(self):
        cfg = GeArConfig(12, 4, 4)
        adder = GeArAdder(cfg)
        a, b = random_pairs(12, 200_000, seed=2)
        stats = compute_error_stats(adder, a, b)
        assert stats.error_rate == pytest.approx(adder.error_probability(), abs=2e-3)
        assert stats.max_ed_bound == 256
        assert stats.max_ed_observed <= 256

    def test_maa_thresholds_monotone(self):
        adder = GeArAdder(GeArConfig(12, 2, 2))
        a, b = random_pairs(12, 50_000, seed=3)
        stats = compute_error_stats(adder, a, b)
        ordered = [stats.maa(t) for t in sorted(TABLE1_MAA_THRESHOLDS)]
        assert ordered == sorted(ordered, reverse=True)

    def test_override_mode(self):
        adder = RippleCarryAdder(8)
        stats = compute_error_stats(
            adder,
            exact_reference=np.array([10, 20, 30]),
            approx_values=np.array([10, 18, 30]),
        )
        assert stats.samples == 3
        assert stats.error_rate == pytest.approx(1 / 3)
        assert stats.med == pytest.approx(2 / 3)

    def test_override_requires_both_or_operands(self):
        adder = RippleCarryAdder(8)
        with pytest.raises(ValueError):
            compute_error_stats(adder, approx_values=np.array([1]))

    def test_mismatched_shapes_rejected(self):
        adder = RippleCarryAdder(8)
        with pytest.raises(ValueError):
            compute_error_stats(
                adder,
                exact_reference=np.array([1, 2]),
                approx_values=np.array([1]),
            )

    def test_empty_rejected(self):
        adder = RippleCarryAdder(8)
        with pytest.raises(ValueError):
            compute_error_stats(
                adder,
                exact_reference=np.array([], dtype=np.int64),
                approx_values=np.array([], dtype=np.int64),
            )

    def test_unknown_maa_threshold_raises(self):
        adder = RippleCarryAdder(8)
        a, b = random_pairs(8, 10, seed=4)
        stats = compute_error_stats(adder, a, b)
        with pytest.raises(KeyError):
            stats.maa(0.42)

    def test_error_distances_helper(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        a = np.array([0b000011111111], dtype=np.int64)
        b = np.array([1], dtype=np.int64)
        np.testing.assert_array_equal(error_distances(adder, a, b), [256])
