"""Unit tests for the GDA baseline [13]."""

import numpy as np
import pytest

from repro.adders import GracefullyDegradingAdder
from repro.core.gear import GeArAdder, GeArConfig
from repro.metrics.exhaustive import exhaustive_stats
from tests.conftest import random_pairs


class TestGdaStructure:
    def test_block_windows(self):
        gda = GracefullyDegradingAdder(8, 2, 4)
        assert len(gda.windows) == 4
        # First block exact, others predict over mc bits (clamped at 0).
        assert gda.windows[0].prediction_bits == 0
        assert gda.windows[1].prediction_bits == 2  # clamped: base 2 - mc 4
        assert gda.windows[2].prediction_bits == 4
        assert gda.windows[3].prediction_bits == 4

    def test_width_divisibility_enforced(self):
        with pytest.raises(ValueError):
            GracefullyDegradingAdder(10, 4, 4)

    def test_mc_range_enforced(self):
        with pytest.raises(ValueError):
            GracefullyDegradingAdder(8, 2, 0)
        with pytest.raises(ValueError):
            GracefullyDegradingAdder(8, 2, 7)

    def test_multiple_constraint(self):
        # GDA's hierarchical CLA restricts M_C to multiples of M_B (§1).
        with pytest.raises(ValueError):
            GracefullyDegradingAdder(8, 2, 3)
        # ... unless explicitly overridden for exploration.
        GracefullyDegradingAdder(8, 2, 3, enforce_multiple=False)


class TestGdaBehaviour:
    def test_never_exceeds_exact(self):
        gda = GracefullyDegradingAdder(8, 2, 2)
        a, b = random_pairs(8, 5000, seed=1)
        assert np.all(np.asarray(gda.add(a, b)) <= a + b)

    def test_deeper_prediction_more_accurate(self):
        a, b = random_pairs(8, 20000, seed=2)
        rates = []
        for mc in (1, 2, 4, 6):
            gda = GracefullyDegradingAdder(8, 1, mc, enforce_multiple=False)
            rates.append(float(np.mean(np.asarray(gda.add(a, b)) != a + b)))
        assert rates == sorted(rates, reverse=True)

    def test_error_probability_uses_gear_model(self):
        gda = GracefullyDegradingAdder(16, 4, 4)
        gear = GeArAdder(GeArConfig(16, 4, 4))
        assert gda.error_probability() == gear.error_probability()

    def test_window_dp_gives_true_gda_probability(self):
        # GDA's own geometry (blocks near the bottom see all lower bits)
        # errs slightly less than the GeAr-parameter mapping predicts; the
        # generic window DP computes the true value.
        from repro.core.error_model import error_probability_windows
        from repro.metrics.exhaustive import exhaustive_error_probability

        gda = GracefullyDegradingAdder(8, 2, 4)
        true_prob = error_probability_windows(gda.windows, 8)
        assert true_prob == pytest.approx(
            exhaustive_error_probability(gda), abs=1e-12
        )
        # The §4.4 mapping (paper model at R=M_B, P=M_C) is conservative.
        assert gda.error_probability() >= true_prob

    def test_same_med_as_gear_at_equal_params(self):
        # The paper's Table II: identical NED columns for GDA and GeAr.
        gda = exhaustive_stats(GracefullyDegradingAdder(8, 2, 4))
        strict = (8 - 2 - 4) % 2 == 0
        gear = exhaustive_stats(GeArAdder(GeArConfig(8, 2, 4, allow_partial=not strict)))
        assert gda.med == pytest.approx(gear.med)

    def test_netlist_uses_cla_prediction(self):
        # GDA's netlist must be slower than GeAr's at the same parameters —
        # the paper's central delay observation (§4.2).
        from repro.timing.fpga import characterize

        gda = characterize(GracefullyDegradingAdder(8, 2, 4))
        gear = characterize(GeArAdder(GeArConfig(8, 2, 4)))
        assert gda.delay_ns > gear.delay_ns
