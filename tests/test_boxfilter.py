"""Unit tests for the box-filter / variable-window stereo application."""

import numpy as np
import pytest

from repro.adders import RippleCarryAdder
from repro.apps.boxfilter import (
    box_filter_mean,
    box_filter_sums,
    disparity_map,
    variable_window_cost,
)
from repro.apps.images import natural_image
from repro.core.gear import GeArAdder, GeArConfig


def _brute_box_sums(image, radius):
    rows, cols = image.shape
    out = np.zeros_like(image)
    for y in range(rows):
        for x in range(cols):
            y1, y2 = max(0, y - radius), min(rows - 1, y + radius)
            x1, x2 = max(0, x - radius), min(cols - 1, x + radius)
            out[y, x] = image[y1 : y2 + 1, x1 : x2 + 1].sum()
    return out


class TestBoxSums:
    def test_exact_matches_brute_force(self):
        image = natural_image(12, 14, seed=1)
        for radius in (0, 1, 2, 3):
            np.testing.assert_array_equal(
                box_filter_sums(image, radius), _brute_box_sums(image, radius)
            )

    def test_radius_zero_is_identity(self):
        image = natural_image(6, 6, seed=2)
        np.testing.assert_array_equal(box_filter_sums(image, 0), image)

    def test_exact_adder_matches_reference(self):
        image = natural_image(10, 10, seed=3)
        got = box_filter_sums(image, 2, RippleCarryAdder(20))
        np.testing.assert_array_equal(got, _brute_box_sums(image, 2))

    def test_accurate_config_keeps_boxes_tight(self):
        image = natural_image(16, 16, seed=4)
        adder = GeArAdder(GeArConfig(20, 4, 12))  # p(err) ~ 1e-4
        approx = box_filter_sums(image, 2, adder)
        exact = _brute_box_sums(image, 2)
        rel = np.abs(approx - exact) / np.maximum(exact, 1)
        assert rel.mean() < 0.02

    def test_corner_differencing_amplifies_relative_error(self):
        # Observation: box sums are *differences* of four large integral
        # values, so the integral stage's absolute errors are amplified
        # relative to the (much smaller) box sum — an aggressive config
        # that is fine for plain integrals is not fine for box filtering.
        image = natural_image(16, 16, seed=4)
        adder = GeArAdder(GeArConfig(20, 5, 5))
        box_rel = np.abs(
            box_filter_sums(image, 2, adder) - _brute_box_sums(image, 2)
        ) / np.maximum(_brute_box_sums(image, 2), 1)
        from repro.apps.integral import integral_image_2d

        integral_rel = np.abs(
            integral_image_2d(image, adder) - integral_image_2d(image)
        ) / np.maximum(integral_image_2d(image), 1)
        assert box_rel.mean() > 5 * integral_rel.mean()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            box_filter_sums(np.arange(5), 1)
        with pytest.raises(ValueError):
            box_filter_sums(np.zeros((3, 3), dtype=np.int64), -1)


class TestBoxMean:
    def test_constant_image_fixed_point(self):
        image = np.full((9, 9), 40, dtype=np.int64)
        np.testing.assert_array_equal(box_filter_mean(image, 2), image)

    def test_mean_is_smoothing(self):
        image = natural_image(20, 20, seed=5)
        smoothed = box_filter_mean(image, 3)
        assert np.abs(np.diff(smoothed, axis=1)).mean() < \
            np.abs(np.diff(image, axis=1)).mean()


class TestStereo:
    def _pair(self, true_disp=3, seed=6):
        right = natural_image(24, 40, seed=seed)
        left = np.roll(right, true_disp, axis=1)
        return left, right

    def test_cost_minimal_at_true_disparity(self):
        left, right = self._pair(true_disp=3)
        interior = (slice(6, 18), slice(10, 34))
        at_true = variable_window_cost(left, right, 3, 2)[interior]
        at_wrong = variable_window_cost(left, right, 1, 2)[interior]
        assert at_true.mean() < at_wrong.mean()

    def test_exact_disparity_map_recovers_shift(self):
        left, right = self._pair(true_disp=3)
        disp = disparity_map(left, right, max_disparity=6, radius=2)
        interior = disp[6:18, 10:34]
        assert np.mean(interior == 3) > 0.9

    def test_approximate_disparity_close_to_exact(self):
        left, right = self._pair(true_disp=3, seed=7)
        adder = GeArAdder(GeArConfig(20, 4, 12))  # box-filter-safe config
        exact = disparity_map(left, right, max_disparity=6, radius=2)
        approx = disparity_map(left, right, max_disparity=6, radius=2,
                               adder=adder)
        interior = (slice(6, 18), slice(10, 34))
        agreement = np.mean(exact[interior] == approx[interior])
        assert agreement > 0.8

    def test_disparity_validation(self):
        left, right = self._pair()
        with pytest.raises(ValueError):
            variable_window_cost(left, right, -1, 2)
        with pytest.raises(ValueError):
            variable_window_cost(left, right[:, :-1], 1, 2)
