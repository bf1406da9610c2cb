"""Unit tests for the LOA baseline [12]."""

import numpy as np
import pytest

from repro.adders import LowerPartOrAdder
from repro.spec.model import SpecAdder
from tests.conftest import random_pairs


class TestLoa:
    def test_zero_approx_is_exact(self):
        adder = LowerPartOrAdder(8, 0)
        a, b = random_pairs(8, 500, seed=1)
        np.testing.assert_array_equal(adder.add(a, b), a + b)
        assert adder.is_exact

    def test_low_bits_are_or(self):
        adder = LowerPartOrAdder(8, 4)
        assert adder.add(0b0101, 0b0011) & 0xF == 0b0111

    def test_carry_in_from_top_approx_bit(self):
        adder = LowerPartOrAdder(8, 4)
        # both operands have bit 3 set -> carry into the exact part
        got = adder.add(0b00001000, 0b00001000)
        assert got >> 4 == 1

    def test_upper_part_exact_given_carry(self):
        adder = LowerPartOrAdder(8, 2)
        a, b = random_pairs(8, 5000, seed=2)
        approx = np.asarray(adder.add(a, b))
        cin = ((a >> 1) & (b >> 1)) & 1
        np.testing.assert_array_equal(approx >> 2, (a >> 2) + (b >> 2) + cin)

    def test_error_bounded(self):
        adder = LowerPartOrAdder(10, 5)
        a, b = random_pairs(10, 20000, seed=3)
        ed = np.abs(np.asarray(adder.add(a, b)) - (a + b))
        assert ed.max() <= adder.max_error_distance()

    def test_more_approx_bits_more_error(self):
        a, b = random_pairs(10, 20000, seed=4)
        meds = []
        for bits in (1, 3, 5, 7):
            adder = LowerPartOrAdder(10, bits)
            meds.append(float(np.mean(np.abs(np.asarray(adder.add(a, b)) - (a + b)))))
        assert meds == sorted(meds)

    def test_zero_approx_is_an_exact_spec_adder(self):
        adder = LowerPartOrAdder(8, 0)
        assert type(adder) is SpecAdder
        assert adder.is_exact
        assert adder.error_probability() == 0.0
        assert adder.mean_error_distance() == 0.0
        assert adder.max_error_distance() == 0

    @pytest.mark.parametrize("approx_bits", [0, 3])
    def test_analytic_stats_match_exhaustive(self, approx_bits):
        adder = LowerPartOrAdder(8, approx_bits)
        grid = np.arange(256, dtype=np.int64)
        a, b = np.repeat(grid, 256), np.tile(grid, 256)
        ed = np.abs(np.asarray(adder.add(a, b)) - (a + b))
        assert adder.error_probability() == pytest.approx(
            float(np.mean(ed != 0)), abs=1e-12)
        assert adder.mean_error_distance() == pytest.approx(
            float(ed.mean()), abs=1e-12)
        assert ed.max() <= adder.max_error_distance()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LowerPartOrAdder(8, 8)
        with pytest.raises(ValueError):
            LowerPartOrAdder(8, -1)
