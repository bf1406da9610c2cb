"""Unit tests for the signed-arithmetic wrapper."""

import numpy as np
import pytest

from repro.adders import RippleCarryAdder
from repro.core.gear import GeArAdder, GeArConfig
from repro.core.signed import SignedAdder


def _all_signed_pairs(width):
    lo, hi = -(1 << (width - 1)), (1 << (width - 1))
    vals = np.arange(lo, hi, dtype=np.int64)
    size = vals.size
    return np.repeat(vals, size), np.tile(vals, size)


class TestExactSigned:
    def test_exhaustive_exactness(self):
        signed = SignedAdder(RippleCarryAdder(8))
        a, b = _all_signed_pairs(8)
        np.testing.assert_array_equal(signed.add(a, b), a + b)

    def test_scalar_cases(self):
        signed = SignedAdder(RippleCarryAdder(8))
        assert signed.add(-128, -128) == -256
        assert signed.add(127, 127) == 254
        assert signed.add(-1, 1) == 0
        assert signed.add(0, 0) == 0

    def test_subtract(self):
        signed = SignedAdder(RippleCarryAdder(8))
        assert signed.subtract(100, 27) == 73
        assert signed.subtract(-100, 27) == -127
        assert signed.subtract(5, -5) == 10

    def test_subtract_min_value_rejected(self):
        signed = SignedAdder(RippleCarryAdder(8))
        with pytest.raises(ValueError):
            signed.subtract(0, -128)
        with pytest.raises(ValueError):
            signed.subtract(np.array([0]), np.array([-128]))


class TestApproximateSigned:
    def test_error_magnitude_matches_unsigned(self):
        # The sign fix-up is exact, so signed error magnitudes equal the
        # unsigned adder's on the corresponding bit patterns.
        adder = GeArAdder(GeArConfig(8, 2, 2))
        signed = SignedAdder(adder)
        a, b = _all_signed_pairs(8)
        signed_err = np.abs(np.asarray(signed.add(a, b)) - (a + b))
        au, bu = a & 0xFF, b & 0xFF
        unsigned_err = np.abs(np.asarray(adder.add(au, bu)) - (au + bu))
        np.testing.assert_array_equal(signed_err, unsigned_err)

    def test_error_distance_helper(self):
        signed = SignedAdder(GeArAdder(GeArConfig(8, 2, 2)))
        a, b = _all_signed_pairs(8)
        ed = signed.error_distance(a, b)
        assert ed.min() >= 0
        assert (ed > 0).any()

    def test_error_rate_matches_unsigned_model(self):
        adder = GeArAdder(GeArConfig(8, 2, 2))
        signed = SignedAdder(adder)
        a, b = _all_signed_pairs(8)
        rate = float(np.mean(np.asarray(signed.add(a, b)) != a + b))
        assert rate == pytest.approx(adder.error_probability())


class TestValidation:
    def test_range_checked(self):
        signed = SignedAdder(RippleCarryAdder(8))
        with pytest.raises(ValueError):
            signed.add(128, 0)
        with pytest.raises(ValueError):
            signed.add(0, -129)
        with pytest.raises(ValueError):
            signed.add(np.array([200]), np.array([0]))

    def test_type_checked(self):
        signed = SignedAdder(RippleCarryAdder(8))
        with pytest.raises(TypeError):
            signed.add(1.5, 0)
        with pytest.raises(TypeError):
            signed.add(np.array([0.5]), np.array([0]))
