"""Tests for the Fig. 5/6 correction netlist and its multi-cycle harness."""

import numpy as np
import pytest

from repro.core.correction import ErrorCorrector
from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.builders import build_gear_corrected
from repro.rtl.correction_harness import MultiCycleCorrector
from repro.rtl.sim import simulate_bus
from repro.spec.catalog import gear_spec
from tests.conftest import random_pairs


def _pairs(n, count=20000, seed=3):
    if n <= 8:
        size = 1 << n
        vals = np.arange(size, dtype=np.int64)
        return np.repeat(vals, size), np.tile(vals, size)
    return random_pairs(n, count, seed=seed)


class TestCorrectionNetlist:
    @pytest.mark.parametrize("n,r,p", [(8, 2, 2), (12, 4, 4), (12, 2, 6)])
    def test_uncorrected_equals_plain_gear(self, n, r, p):
        nl = build_gear_corrected(n, r, p)
        adder = GeArAdder(GeArConfig(n, r, p))
        a, b = _pairs(n)
        got = simulate_bus(nl, {"A": a, "B": b, "EN": 0, "CORR": 0}, "S")
        np.testing.assert_array_equal(got, np.asarray(adder.add(a, b)))

    def test_fig5_single_correction(self):
        # Fig. 5: GeAr(12,4,4); forcing CORR on sub-adder 2 fixes the
        # canonical missed-carry case.
        nl = build_gear_corrected(12, 4, 4)
        a, b = 0b000011111111, 0b000000000001
        wrong = int(simulate_bus(nl, {"A": a, "B": b, "EN": 1, "CORR": 0}, "S"))
        fixed = int(simulate_bus(nl, {"A": a, "B": b, "EN": 1, "CORR": 1}, "S"))
        assert wrong != a + b
        assert fixed == a + b

    def test_flag_self_clears_after_correction(self):
        nl = build_gear_corrected(12, 4, 4)
        a, b = 0b000011111111, 0b000000000001
        before = int(simulate_bus(nl, {"A": a, "B": b, "EN": 1, "CORR": 0}, "ERR"))
        after = int(simulate_bus(nl, {"A": a, "B": b, "EN": 1, "CORR": 1}, "ERR"))
        assert before == 1
        assert after == 0

    def test_enable_gates_flags(self):
        nl = build_gear_corrected(12, 4, 4)
        a, b = 0b000011111111, 0b000000000001
        gated = int(simulate_bus(nl, {"A": a, "B": b, "EN": 0, "CORR": 0}, "ERR"))
        assert gated == 0

    def test_needs_speculation(self):
        with pytest.raises(ValueError):
            build_gear_corrected(8, 4, 4)  # k = 1


class TestMultiCycleHarness:
    @pytest.mark.parametrize("n,r,p", [(8, 2, 2), (8, 1, 3), (12, 2, 6)])
    def test_sequential_matches_behavioural_corrector(self, n, r, p):
        nl = build_gear_corrected(n, r, p)
        harness = MultiCycleCorrector(nl)
        core = ErrorCorrector(GeArAdder(GeArConfig(n, r, p)))
        a, b = _pairs(n)
        hres = harness.add(a, b)
        cres = core.add(a, b)
        np.testing.assert_array_equal(hres.value, a + b)
        np.testing.assert_array_equal(hres.cycles, cres.cycles)
        np.testing.assert_array_equal(hres.corrections, cres.corrections)

    def test_partial_enable_respected(self):
        nl = build_gear_corrected(12, 2, 6)
        adder = GeArAdder(GeArConfig(12, 2, 6))
        a, b = random_pairs(12, 20000, seed=4)
        mask_bits = [False, True]
        hres = MultiCycleCorrector(nl, enabled=mask_bits).add(a, b)
        cres = ErrorCorrector(adder, enabled=mask_bits).add(a, b)
        np.testing.assert_array_equal(hres.value, cres.value)

    def test_harness_validates_buses(self):
        with pytest.raises(ValueError):
            MultiCycleCorrector(gear_spec(8, 2, 2).to_netlist())

    def test_harness_validates_mask(self):
        nl = build_gear_corrected(8, 2, 2)
        with pytest.raises(ValueError):
            MultiCycleCorrector(nl, enabled=[True])
