"""Tests for GDA's per-block carry-select muxes (the [13] degradation knob)."""

import numpy as np
import pytest

from repro.adders import GracefullyDegradingAdder, add_with_selects
from tests.conftest import random_pairs


class TestSelectSemantics:
    def test_all_accurate_is_exact(self):
        gda = GracefullyDegradingAdder(16, 4, 4)
        a, b = random_pairs(16, 5000, seed=1)
        np.testing.assert_array_equal(add_with_selects(gda, a, b), a + b)

    def test_default_is_accurate(self):
        gda = GracefullyDegradingAdder(8, 2, 2)
        assert add_with_selects(gda, 255, 1) == 256

    def test_all_approximate_matches_windowed_model(self):
        gda = GracefullyDegradingAdder(16, 4, 4)
        a, b = random_pairs(16, 5000, seed=2)
        selects = [False] * (len(gda.windows) - 1)
        np.testing.assert_array_equal(
            add_with_selects(gda, a, b, selects), np.asarray(gda.add(a, b))
        )

    def test_degradation_is_monotone_msb_first(self):
        # Chaining boundaries accurately from the MSB side can only shrink
        # the mean error.
        gda = GracefullyDegradingAdder(16, 2, 2)
        a, b = random_pairs(16, 20000, seed=3)
        boundaries = len(gda.windows) - 1
        meds = []
        for accurate_count in range(boundaries + 1):
            selects = [i >= boundaries - accurate_count
                       for i in range(boundaries)]
            out = np.asarray(add_with_selects(gda, a, b, selects))
            meds.append(float(np.abs(out - (a + b)).mean()))
        assert meds == sorted(meds, reverse=True)
        assert meds[-1] == 0.0

    def test_single_boundary_flip_fixes_that_boundary(self):
        gda = GracefullyDegradingAdder(8, 2, 2)
        # Generate in block 1, propagates through block 2: block 3's
        # 2-bit prediction (over bits 2..3) cannot see the carry.
        a, b = 0b00001111, 0b00000001
        approx = add_with_selects(gda, a, b, [False, False, False])
        fixed = add_with_selects(gda, a, b, [False, True, False])
        assert approx != a + b
        assert fixed == a + b

    def test_scalar_and_array_agree(self):
        gda = GracefullyDegradingAdder(8, 2, 4)
        a, b = random_pairs(8, 200, seed=4)
        selects = [False, True, False]
        vec = np.asarray(add_with_selects(gda, a, b, selects))
        for i in range(0, 200, 23):
            assert add_with_selects(gda, int(a[i]), int(b[i]), selects) == vec[i]

    def test_zero_anchored_prediction_is_exact(self):
        # With M_C reaching bit 0 every prediction sees all lower bits, so
        # approximate selects still give the exact sum.
        gda = GracefullyDegradingAdder(8, 2, 6, enforce_multiple=False)
        a, b = random_pairs(8, 2000, seed=5)
        np.testing.assert_array_equal(
            add_with_selects(gda, a, b, [False, False, False]), a + b)


class TestValidation:
    def test_select_length_checked(self):
        gda = GracefullyDegradingAdder(8, 2, 2)
        with pytest.raises(ValueError):
            add_with_selects(gda, 1, 2, [True])

    def test_operand_range_checked(self):
        gda = GracefullyDegradingAdder(8, 2, 2)
        with pytest.raises(ValueError):
            add_with_selects(gda, 256, 0)

    def test_block_count(self):
        assert len(GracefullyDegradingAdder(16, 4, 4).windows) == 4

    @pytest.mark.parametrize("a,b", [
        (3.7, 5.2),
        (True, 5),
        (np.array([1.5, 2.0]), np.array([1, 2])),
    ], ids=["float", "bool", "float-array"])
    def test_non_integer_operand_rejected(self, a, b):
        # Validated exactly like add().
        gda = GracefullyDegradingAdder(8, 2, 2)
        with pytest.raises(TypeError):
            gda.add(a, b)
        with pytest.raises(TypeError):
            add_with_selects(gda, a, b)
