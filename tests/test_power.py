"""Unit tests for switching-activity power estimation."""

import numpy as np
import pytest

from repro.adders import CarryLookaheadAdder, RippleCarryAdder
from repro.adders.etai import ErrorTolerantAdderI
from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.power import characterize_power, switching_activity
from repro.spec.catalog import exact_spec


class TestSwitchingActivity:
    def test_constant_stimulus_zero_toggles(self):
        nl = exact_spec(8).to_netlist()
        stim = {"A": np.full(10, 5, dtype=np.int64),
                "B": np.full(10, 9, dtype=np.int64)}
        report = switching_activity(nl, stim)
        assert report.total_toggles == 0
        assert report.energy_score == 0.0

    def test_alternating_inputs_toggle_inputs(self):
        nl = exact_spec(4).to_netlist()
        stim = {"A": np.array([0b0000, 0b1111] * 8, dtype=np.int64),
                "B": np.zeros(16, dtype=np.int64)}
        report = switching_activity(nl, stim)
        # each A bit toggles on every transition
        assert report.toggles_per_net["A[0]"] == 15
        assert report.toggles_per_net["B[0]"] == 0
        assert report.total_toggles > 0

    def test_needs_two_vectors(self):
        nl = exact_spec(4).to_netlist()
        with pytest.raises(ValueError):
            switching_activity(nl, {"A": np.array([1]), "B": np.array([1])})

    def test_mismatched_lengths_rejected(self):
        nl = exact_spec(4).to_netlist()
        with pytest.raises(ValueError):
            switching_activity(nl, {"A": np.array([1, 2]),
                                    "B": np.array([1, 2, 3])})

    def test_energy_scales_with_activity(self):
        nl = exact_spec(8).to_netlist()
        rng = np.random.default_rng(0)
        hot = {"A": rng.integers(0, 256, 500, dtype=np.int64),
               "B": rng.integers(0, 256, 500, dtype=np.int64)}
        lazy = {"A": hot["A"] & 0x0F, "B": hot["B"] & 0x0F}
        assert switching_activity(nl, hot).energy_score > \
            switching_activity(nl, lazy).energy_score


class TestCharacterizePower:
    def test_deterministic(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        r1 = characterize_power(adder, samples=500, seed=1)
        r2 = characterize_power(adder, samples=500, seed=1)
        assert r1.energy_score == r2.energy_score

    def test_cla_costs_more_than_rca(self):
        # CLA's LUT trees toggle on large capacitance; the carry chain is
        # cheap — same story as the delay model.
        rca = characterize_power(RippleCarryAdder(16), samples=1500)
        cla = characterize_power(CarryLookaheadAdder(16), samples=1500)
        assert cla.energy_per_op > rca.energy_per_op

    def test_energy_grows_with_width(self):
        e8 = characterize_power(RippleCarryAdder(8), samples=1500).energy_per_op
        e16 = characterize_power(RippleCarryAdder(16), samples=1500).energy_per_op
        assert e16 > e8

    def test_behavioural_only_adder_rejected(self):
        with pytest.raises(ValueError):
            characterize_power(ErrorTolerantAdderI(8, 4))

    def test_report_properties(self):
        rep = characterize_power(RippleCarryAdder(8), samples=300)
        assert rep.vectors == 300
        assert 0.0 < rep.mean_toggle_rate < 1.0
        assert rep.energy_per_op > 0
