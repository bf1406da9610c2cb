"""Unit tests for the GeAr functional adder."""

import numpy as np
import pytest

from repro.core.gear import GeArAdder, GeArConfig
from repro.spec import gear_spec
from repro.spec.model import SpecAdder
from tests.conftest import random_pairs


class TestPaperExamples:
    def test_fig3_example_error_case(self):
        # GeAr(12,4,4): a carry out of bit 3 that must propagate through
        # bits 4..7 (all propagating) is invisible to sub-adder 2.
        adder = GeArAdder(GeArConfig(12, 4, 4))
        a = 0b000011111111
        b = 0b000000000001
        exact = a + b  # 0b000100000000
        approx = adder.add(a, b)
        assert approx != exact
        assert exact - approx == 1 << 8  # missing carry into result field

    def test_no_error_when_prediction_generates(self):
        # If any prediction bit generates, the local carry is recreated.
        adder = GeArAdder(GeArConfig(12, 4, 4))
        a = 0b000000110000  # bits 4,5 set
        b = 0b000000110000
        assert adder.add(a, b) == a + b

    def test_first_sub_adder_result_bits_always_exact(self):
        # Eq. 2: the low L output bits come from an exact L-bit addition.
        adder = GeArAdder(GeArConfig(12, 4, 4))
        a, b = random_pairs(12, 5000, seed=1)
        low = np.asarray(adder.add(a, b)) & 0xFF
        np.testing.assert_array_equal(low, (a + b) & 0xFF)


class TestInvariants:
    @pytest.mark.parametrize("n,r,p", [(8, 2, 2), (12, 4, 4), (12, 2, 6),
                                       (16, 4, 8), (16, 2, 2)])
    def test_never_exceeds_exact(self, n, r, p):
        adder = GeArAdder(GeArConfig(n, r, p))
        a, b = random_pairs(n, 5000, seed=n + r)
        assert np.all(np.asarray(adder.add(a, b)) <= a + b)

    def test_commutative(self):
        adder = GeArAdder(GeArConfig(16, 4, 4))
        a, b = random_pairs(16, 3000, seed=2)
        np.testing.assert_array_equal(adder.add(a, b), adder.add(b, a))

    def test_zero_identity(self):
        adder = GeArAdder(GeArConfig(16, 4, 4))
        a, _ = random_pairs(16, 1000, seed=3)
        np.testing.assert_array_equal(adder.add(a, np.zeros_like(a)), a)

    def test_error_is_multiple_of_result_field_weight(self):
        # Every error is a sum of missed carries at window result bases.
        cfg = GeArConfig(12, 4, 4)
        adder = GeArAdder(cfg)
        a, b = random_pairs(12, 20000, seed=4)
        err = (a + b) - np.asarray(adder.add(a, b))
        assert set(np.unique(err)) <= {0, 1 << 8}

    def test_output_in_range(self):
        adder = GeArAdder(GeArConfig(16, 2, 2))
        a, b = random_pairs(16, 5000, seed=5)
        out = np.asarray(adder.add(a, b))
        assert out.min() >= 0
        assert out.max() < (1 << 17)

    def test_exact_config_is_exact(self):
        adder = GeArAdder(GeArConfig(8, 4, 4))
        assert adder.is_exact
        a, b = random_pairs(8, 1000, seed=6)
        np.testing.assert_array_equal(adder.add(a, b), a + b)
        assert adder.error_probability() == 0.0

    def test_partial_config_functional(self):
        adder = GeArAdder(GeArConfig(20, 3, 7, allow_partial=True))
        a, b = random_pairs(20, 5000, seed=7)
        approx = np.asarray(adder.add(a, b))
        assert np.all(approx <= a + b)
        assert np.mean(approx != a + b) < 0.05

    def test_factory_returns_labelled_spec_model(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        assert isinstance(adder, SpecAdder)
        assert adder.config == GeArConfig(12, 4, 4)
        assert adder.name == "GeAr(N=12,R=4,P=4)"
        assert adder.spec == gear_spec(12, 4, 4)

    def test_netlist_hook(self):
        nl = GeArAdder(GeArConfig(12, 4, 4)).build_netlist()
        assert nl is not None
        assert nl.input_buses == {"A": 12, "B": 12}


class TestAccuracyMonotonicity:
    def test_accuracy_improves_with_p(self):
        # Fig. 7's monotone curves, measured functionally.
        a, b = random_pairs(16, 30000, seed=8)
        rates = []
        for p in (2, 4, 6, 8, 10):
            strict = (16 - 2 - p) % 2 == 0
            adder = GeArAdder(GeArConfig(16, 2, p, allow_partial=not strict))
            rates.append(float(np.mean(np.asarray(adder.add(a, b)) != a + b)))
        assert rates == sorted(rates, reverse=True)
