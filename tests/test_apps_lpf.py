"""Unit tests for the low-pass filter kernel."""

import numpy as np
import pytest

from repro.adders import RippleCarryAdder
from repro.apps.images import gradient_image, natural_image
from repro.apps.lpf import binomial_kernel_3x3, low_pass_filter
from repro.core.gear import GeArAdder, GeArConfig


class TestKernel:
    def test_binomial_weights(self):
        kernel = binomial_kernel_3x3()
        np.testing.assert_array_equal(
            kernel, [[1, 2, 1], [2, 4, 2], [1, 2, 1]]
        )
        assert kernel.sum() == 16


class TestExactFilter:
    def test_constant_image_unchanged(self):
        img = np.full((8, 8), 77, dtype=np.int64)
        np.testing.assert_array_equal(low_pass_filter(img), img)

    def test_matches_direct_convolution(self):
        img = natural_image(12, 12, seed=1)
        got = low_pass_filter(img)
        kernel = binomial_kernel_3x3()
        padded = np.pad(img, 1, mode="edge")
        rows, cols = img.shape
        expected = np.zeros_like(img)
        for y in range(rows):
            for x in range(cols):
                expected[y, x] = (padded[y : y + 3, x : x + 3] * kernel).sum() >> 4
        np.testing.assert_array_equal(got, expected)

    def test_output_range(self):
        img = natural_image(16, 16, seed=2)
        out = low_pass_filter(img)
        assert out.min() >= 0 and out.max() <= 255

    def test_smooths_high_frequency(self):
        img = natural_image(32, 32, seed=3)
        out = low_pass_filter(img)
        assert np.abs(np.diff(out, axis=1)).mean() <= \
            np.abs(np.diff(img, axis=1)).mean()


class TestApproximateFilter:
    def test_exact_adder_matches_reference(self):
        img = gradient_image(16, 16, seed=4)
        np.testing.assert_array_equal(
            low_pass_filter(img, RippleCarryAdder(12)), low_pass_filter(img)
        )

    def test_gear_output_close(self):
        img = gradient_image(32, 32, seed=5)
        adder = GeArAdder(GeArConfig(12, 4, 4))
        exact = low_pass_filter(img)
        approx = low_pass_filter(img, adder)
        assert np.abs(exact - approx).mean() < 16.0
        assert np.all(approx <= exact)

    def test_width_guard(self):
        img = gradient_image(8, 8, seed=6)
        with pytest.raises(ValueError, match="accumulator"):
            low_pass_filter(img, RippleCarryAdder(8))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            low_pass_filter(np.arange(4))
        with pytest.raises(ValueError):
            low_pass_filter(np.array([[300]]))
        with pytest.raises(ValueError):
            low_pass_filter(np.zeros((0, 0), dtype=np.int64))
