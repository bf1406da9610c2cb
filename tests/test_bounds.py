"""Unit tests: the worst-case kernel bounds are sound (never exceeded)."""

import numpy as np
import pytest

from repro.adders.etai import ErrorTolerantAdderI
from repro.apps.bounds import (
    box_sum_bound,
    expected_error_estimate,
    integral_row_bound,
    lpf_bound,
    sad_bound,
)
from repro.apps.boxfilter import box_filter_sums
from repro.apps.images import checkerboard_image, natural_image
from repro.apps.integral import integral_image_rows
from repro.apps.lpf import low_pass_filter
from repro.apps.sad import sad
from repro.core.gear import GeArAdder, GeArConfig


@pytest.fixture(scope="module")
def adder16():
    return GeArAdder(GeArConfig(16, 2, 2))  # deliberately error-prone


class TestIntegralBound:
    def test_measured_never_exceeds_bound(self, adder16):
        image = checkerboard_image(16, 64)  # worst-case-ish input
        exact = integral_image_rows(image)
        approx = integral_image_rows(image, adder16)
        worst = int((exact - approx).max())
        bound = integral_row_bound(adder16, 64)
        assert worst <= bound.worst_case

    def test_bound_grows_with_row_length(self, adder16):
        short = integral_row_bound(adder16, 10)
        long = integral_row_bound(adder16, 100)
        assert long.worst_case > short.worst_case

    def test_single_pixel_row(self, adder16):
        assert integral_row_bound(adder16, 1).worst_case == 0


class TestSadBound:
    def test_measured_never_exceeds_bound(self, adder16):
        a = natural_image(16, 16, seed=1)
        b = natural_image(16, 16, seed=2)
        measured = abs(sad(a, b) - sad(a, b, adder16))
        assert measured <= sad_bound(adder16, 256).worst_case


class TestLpfBound:
    def test_measured_never_exceeds_bound(self):
        adder = GeArAdder(GeArConfig(12, 2, 2))
        image = checkerboard_image(24, 24)
        exact = low_pass_filter(image)
        approx = low_pass_filter(image, adder)
        worst_out = int(np.abs(exact - approx).max())
        # bound is on the accumulator, outputs are >>4.
        assert worst_out <= lpf_bound(adder).worst_case // 16 + 1


class TestBoxBound:
    def test_measured_never_exceeds_bound(self):
        adder = GeArAdder(GeArConfig(20, 5, 5))
        image = natural_image(16, 16, seed=3)
        exact = box_filter_sums(image, 2)
        approx = box_filter_sums(image, 2, adder)
        worst = int(np.abs(exact - approx).max())
        assert worst <= box_sum_bound(adder, 16, 16).worst_case


class TestHelpers:
    def test_expected_estimate(self, adder16):
        bound = integral_row_bound(adder16, 100)
        estimate = expected_error_estimate(bound, 0.01)
        assert estimate is not None
        assert 0 < estimate < bound.worst_case
        assert expected_error_estimate(bound, None) is None

    def test_exact_adder_bound_is_zero(self):
        from repro.adders import RippleCarryAdder

        assert integral_row_bound(RippleCarryAdder(16), 100).worst_case == 0

    def test_etai_has_bound(self):
        bound = sad_bound(ErrorTolerantAdderI(16, 8), 16)
        assert bound.worst_case > 0

    def test_adder_without_bound_rejected(self):
        from repro.adders.base import AdderModel

        class Opaque(AdderModel):
            def _add_impl(self, a, b):
                return a + b

        with pytest.raises(ValueError):
            integral_row_bound(Opaque(8, "opaque"), 10)

    def test_validation(self, adder16):
        with pytest.raises((ValueError, TypeError)):
            sad_bound(adder16, 0)
