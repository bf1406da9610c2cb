"""Unit tests for the Image Integral kernel."""

import numpy as np
import pytest

from repro.adders import RippleCarryAdder
from repro.apps.images import natural_image
from repro.apps.integral import (
    accumulate,
    integral_image_2d,
    integral_image_rows,
    max_row_width,
)
from repro.core.gear import GeArAdder, GeArConfig


class TestMaxRowWidth:
    def test_paper_sizing(self):
        # N=20 fits a full-HD row of 8-bit pixels (the paper's choice).
        assert max_row_width(20) >= 1920
        # N=16 does not.
        assert max_row_width(16) < 1920


class TestAccumulate:
    def test_exact_prefix_sums(self):
        np.testing.assert_array_equal(
            accumulate(np.array([1, 2, 3, 4])), [1, 3, 6, 10]
        )

    def test_exact_adder_matches_cumsum(self):
        values = np.arange(50, dtype=np.int64)
        np.testing.assert_array_equal(
            accumulate(values, RippleCarryAdder(16)), np.cumsum(values)
        )

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            accumulate(np.zeros((2, 2)))


class TestIntegralRows:
    def test_exact_reference(self):
        img = natural_image(8, 16, seed=1)
        np.testing.assert_array_equal(
            integral_image_rows(img), np.cumsum(img, axis=1)
        )

    def test_exact_adder_reproduces_reference(self):
        img = natural_image(8, 32, seed=2)
        got = integral_image_rows(img, RippleCarryAdder(16))
        np.testing.assert_array_equal(got, np.cumsum(img, axis=1))

    def test_approximate_never_exceeds_exact(self):
        img = natural_image(16, 64, seed=3)
        adder = GeArAdder(GeArConfig(16, 4, 4))
        approx = integral_image_rows(img, adder)
        assert np.all(approx <= np.cumsum(img, axis=1))

    def test_errors_compound_along_rows(self):
        # Application-level MEDs grow towards the right edge (Table I's
        # large MEDs come from this accumulation).
        img = natural_image(32, 128, seed=4)
        adder = GeArAdder(GeArConfig(16, 4, 2, allow_partial=True))
        err = np.cumsum(img, axis=1) - integral_image_rows(img, adder)
        left = err[:, : 32].mean()
        right = err[:, -32 :].mean()
        assert right > left

    def test_overflow_guard(self):
        img = np.full((2, 2000), 255, dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            integral_image_rows(img, RippleCarryAdder(16))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            integral_image_rows(np.arange(5))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integral_image_rows(np.array([[-1, 0]]))


class Test2D:
    def test_exact_2d(self):
        img = natural_image(8, 8, seed=5)
        expected = np.cumsum(np.cumsum(img, axis=1), axis=0)
        np.testing.assert_array_equal(integral_image_2d(img), expected)

    def test_2d_with_wide_adder(self):
        img = natural_image(8, 8, seed=6)
        got = integral_image_2d(img, RippleCarryAdder(20))
        expected = np.cumsum(np.cumsum(img, axis=1), axis=0)
        np.testing.assert_array_equal(got, expected)

    def test_2d_overflow_guard(self):
        img = np.full((64, 64), 255, dtype=np.int64)
        with pytest.raises(ValueError):
            integral_image_2d(img, RippleCarryAdder(16))
