"""Unit tests for the AdderModel interface and windowed machinery."""

import numpy as np
import pytest

from repro.adders import CarryLookaheadAdder, RippleCarryAdder
from repro.spec import AdderSpec, SpecAdder, WindowSpec
from tests.conftest import random_pairs


def _cover(windows, width=8):
    """Build a spec over ``(low, high, result_low, result_high)`` tuples."""
    return AdderSpec("hand", width, tuple(WindowSpec(*w) for w in windows))


class TestExactAdders:
    @pytest.mark.parametrize("cls", [RippleCarryAdder, CarryLookaheadAdder])
    def test_always_exact(self, cls):
        adder = cls(12)
        a, b = random_pairs(12, 1000, seed=2)
        np.testing.assert_array_equal(adder.add(a, b), a + b)
        assert adder.is_exact
        assert adder.error_probability() == 0.0

    def test_scalar_and_array_agree(self):
        adder = RippleCarryAdder(8)
        a, b = random_pairs(8, 50, seed=3)
        vec = np.asarray(adder.add(a, b))
        for i in range(50):
            assert adder.add(int(a[i]), int(b[i])) == vec[i]

    def test_out_width(self):
        assert RippleCarryAdder(16).out_width == 17


class TestOperandValidation:
    def setup_method(self):
        self.adder = RippleCarryAdder(8)

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValueError):
            self.adder.add(-1, 0)

    def test_oversized_scalar_rejected(self):
        with pytest.raises(ValueError):
            self.adder.add(256, 0)

    def test_negative_array_rejected(self):
        with pytest.raises(ValueError):
            self.adder.add(np.array([-1]), np.array([0]))

    def test_float_array_rejected(self):
        with pytest.raises(TypeError):
            self.adder.add(np.array([1.0]), np.array([0]))

    def test_float_scalar_rejected(self):
        with pytest.raises(TypeError):
            self.adder.add(1.5, 0)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            self.adder.add(True, 0)

    def test_error_distance(self):
        assert self.adder.error_distance(3, 4) == 0


class TestSpeculativeWindow:
    def test_properties(self):
        w = WindowSpec(low=4, high=11, result_low=8, result_high=11)
        assert w.length == 8
        assert w.prediction_bits == 4
        assert w.result_bits == 4

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(low=4, high=3, result_low=4, result_high=3)
        with pytest.raises(ValueError):
            WindowSpec(low=4, high=11, result_low=2, result_high=11)

    def test_cover_validation_gap(self):
        with pytest.raises(ValueError, match="drives bits from 6"):
            _cover([(0, 3, 0, 3), (2, 7, 6, 7)])  # bits 4..5 undriven

    def test_cover_validation_short(self):
        with pytest.raises(ValueError, match="up to 3, need 7"):
            _cover([(0, 3, 0, 3)])

    def test_cover_validation_overflow(self):
        with pytest.raises(ValueError, match="beyond width 8"):
            _cover([(0, 8, 0, 8)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one window"):
            _cover([])


class TestWindowedAdder:
    def _adder(self):
        # Hand-built GeAr(8,2,2)-equivalent windows.
        return SpecAdder(_cover([(0, 3, 0, 3), (2, 5, 4, 5), (4, 7, 6, 7)]))

    def test_single_window_is_exact(self):
        adder = SpecAdder(_cover([(0, 7, 0, 7)]))
        a, b = random_pairs(8, 200, seed=4)
        np.testing.assert_array_equal(adder.add(a, b), a + b)

    def test_never_exceeds_exact(self):
        adder = self._adder()
        a, b = random_pairs(8, 2000, seed=5)
        assert np.all(np.asarray(adder.add(a, b)) <= a + b)

    def test_max_error_distance_bounds_exhaustive_worst_case(self):
        adder = self._adder()
        bound = adder.max_error_distance()
        assert bound == (1 << 4) + (1 << 6)
        size = 256
        vals = np.arange(size, dtype=np.int64)
        a = np.repeat(vals, size)
        b = np.tile(vals, size)
        ed = (a + b) - np.asarray(adder.add(a, b))
        assert ed.min() >= 0
        assert ed.max() <= bound
        # Simultaneous misses wrap-cancel here, so the realised worst case
        # is a single top-window miss.
        assert ed.max() == 1 << 6

    def test_detection_flags_predict_errors(self):
        adder = self._adder()
        a, b = random_pairs(8, 2000, seed=6)
        flags = adder.detection_flags(a, b)
        any_flag = np.zeros(a.shape, dtype=bool)
        for f in flags[1:]:
            any_flag |= np.asarray(f).astype(bool)
        erroneous = np.asarray(adder.add(a, b)) != a + b
        # Every erroneous addition must raise at least one detector flag.
        assert np.all(any_flag[erroneous])

    def test_detection_flags_scalar(self):
        adder = self._adder()
        flags = adder.detection_flags(0b11111111, 0b00000001)
        assert flags[0] == 0
        assert all(isinstance(f, int) for f in flags)
