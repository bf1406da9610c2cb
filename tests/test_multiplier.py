"""Unit tests for the accuracy-configurable array multiplier."""

import numpy as np
import pytest

from repro.adders import RippleCarryAdder
from repro.core.gear import GeArAdder, GeArConfig
from repro.core.multiplier import (
    ApproximateMultiplier,
    make_exact_multiplier,
    make_gear_multiplier,
)
from tests.conftest import random_pairs


class TestExactMultiplier:
    def test_none_adder_reference(self):
        mul = ApproximateMultiplier(8)
        a, b = random_pairs(8, 500, seed=1)
        np.testing.assert_array_equal(mul.multiply(a, b), a * b)

    def test_rca_reduction_exact(self):
        mul = make_exact_multiplier(6)
        vals = np.arange(64, dtype=np.int64)
        a = np.repeat(vals, 64)
        b = np.tile(vals, 64)
        np.testing.assert_array_equal(mul.multiply(a, b), a * b)

    def test_scalar(self):
        mul = make_exact_multiplier(8)
        assert mul.multiply(255, 255) == 255 * 255
        assert mul.multiply(0, 123) == 0


class TestApproximateMultiplier:
    def test_never_exceeds_exact(self):
        mul = make_gear_multiplier(8, 4, 4)
        a, b = random_pairs(8, 20000, seed=2)
        assert np.all(np.asarray(mul.multiply(a, b)) <= a * b)

    def test_quality_improves_with_p(self):
        mreds = [make_gear_multiplier(8, 2, p).mean_relative_error(8000)
                 for p in (2, 6, 10)]
        assert mreds == sorted(mreds, reverse=True)

    def test_mred_small_for_accurate_config(self):
        assert make_gear_multiplier(8, 4, 8).mean_relative_error(8000) < 1e-3

    def test_error_distance(self):
        mul = make_gear_multiplier(8, 2, 2)
        a, b = random_pairs(8, 5000, seed=3)
        ed = mul.error_distance(a, b)
        assert np.asarray(ed).min() >= 0

    def test_identity_operands(self):
        mul = make_gear_multiplier(8, 2, 2)
        a, _ = random_pairs(8, 500, seed=4)
        np.testing.assert_array_equal(mul.multiply(a, np.ones_like(a)), a)
        np.testing.assert_array_equal(mul.multiply(a, np.zeros_like(a)), 0)


class TestValidation:
    def test_adder_width_checked(self):
        with pytest.raises(ValueError):
            ApproximateMultiplier(8, RippleCarryAdder(8))  # needs 16

    def test_operand_range_checked(self):
        mul = make_exact_multiplier(8)
        with pytest.raises(ValueError):
            mul.multiply(256, 1)
        with pytest.raises(TypeError):
            mul.multiply(1.5, 1)

    def test_out_width(self):
        assert ApproximateMultiplier(8).out_width == 16
