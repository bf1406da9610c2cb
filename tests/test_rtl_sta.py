"""Unit tests for repro.rtl.sta (static timing analysis)."""

import pytest

from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.rtl.sta import (
    FpgaDelayModel,
    UnitDelayModel,
    arrival_times,
    critical_path,
    critical_path_delay,
    depth_histogram,
)
from repro.spec.catalog import exact_spec, gear_spec


def _chain(depth: int) -> Netlist:
    """A NOT chain of the given depth."""
    nl = Netlist("chain")
    a = nl.add_input_bus("A", 1)
    net = a[0]
    for _ in range(depth):
        net = nl.not_(net)
    nl.set_output_bus("S", [net])
    return nl


class TestUnitDelay:
    @pytest.mark.parametrize("depth", [1, 3, 10])
    def test_chain_depth(self, depth):
        assert critical_path_delay(_chain(depth), UnitDelayModel()) == depth

    def test_inputs_at_zero(self):
        nl = _chain(2)
        times = arrival_times(nl, UnitDelayModel())
        assert times["A[0]"] == 0.0

    def test_max_over_outputs(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 2)
        short = nl.not_(a[0])
        long = nl.not_(nl.not_(nl.not_(a[1])))
        nl.set_output_bus("S", [short, long])
        assert critical_path_delay(nl, UnitDelayModel()) == 3

    def test_critical_path_is_traceable(self):
        nl = _chain(4)
        path = critical_path(nl, UnitDelayModel())
        assert path[0] == "A[0]"
        assert len(path) == 5  # input + 4 NOTs

    def test_no_outputs_raises(self):
        nl = Netlist("t")
        nl.add_input_bus("A", 1)
        with pytest.raises(ValueError):
            critical_path_delay(nl, UnitDelayModel())

    def test_depth_histogram(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 2)
        nl.set_output_bus("S", [nl.not_(a[0]), nl.not_(nl.not_(a[1]))])
        assert depth_histogram(nl) == {1: 1, 2: 1}


class TestBusRestriction:
    def test_excluding_err_bus_shortens_path(self):
        nl = gear_spec(16, 4, 4, error_detect=True).to_netlist()
        model = FpgaDelayModel()
        full = critical_path_delay(nl, model)
        sum_only = critical_path_delay(nl, model, buses=["S"])
        assert sum_only <= full

    def test_unknown_bus_rejected(self):
        nl = exact_spec(4).to_netlist()
        with pytest.raises(KeyError):
            critical_path_delay(nl, UnitDelayModel(), buses=["Q"])


class TestFpgaModel:
    def test_carry_chain_is_cheap(self):
        model = FpgaDelayModel()
        nl = Netlist("t")
        a = nl.add_input_bus("A", 2)
        fast = nl.and_(a[0], a[1], group="carry")
        slow = nl.and_(a[0], a[1])
        nl.set_output_bus("S", [fast, slow])
        times = arrival_times(nl, model)
        assert times[fast] < times[slow]

    def test_io_delay_applied_once(self):
        model = FpgaDelayModel(io_delay=0.5, lut_delay=0.25, net_delay=0.2)
        nl = _chain(1)
        assert critical_path_delay(nl, model) == pytest.approx(0.95)

    def test_rca_delay_scales_with_width(self):
        model = FpgaDelayModel()
        delays = [
            critical_path_delay(exact_spec(w).to_netlist(), model, buses=["S"])
            for w in (4, 8, 16, 32)
        ]
        assert delays == sorted(delays)
        assert delays[-1] > delays[0]

    def test_gear_beats_rca_of_same_width(self):
        model = FpgaDelayModel()
        rca = critical_path_delay(exact_spec(16).to_netlist(), model, buses=["S"])
        gear = critical_path_delay(gear_spec(16, 4, 4).to_netlist(), model, buses=["S"])
        assert gear < rca

    def test_gear_delay_tracks_sub_adder_length(self):
        # Table IV observation: delay depends on L, not N.
        model = FpgaDelayModel()
        short = critical_path_delay(gear_spec(16, 2, 2).to_netlist(), model,
                                    buses=["S"])
        long = critical_path_delay(gear_spec(16, 4, 8).to_netlist(), model,
                                   buses=["S"])
        assert short < long

    def test_cla_slower_than_rca_on_fpga(self):
        # §4.2: CLA maps to generic LUTs, RCA rides the carry chain.
        model = FpgaDelayModel()
        rca = critical_path_delay(exact_spec(16).to_netlist(), model, buses=["S"])
        cla = critical_path_delay(exact_spec(16, "cla").to_netlist(), model,
                                  buses=["S"])
        assert cla > rca

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            FpgaDelayModel(lut_delay=-0.1)

    def test_calibration_anchor_rca16(self):
        # The default model is calibrated near the paper's 1.365 ns.
        model = FpgaDelayModel()
        delay = critical_path_delay(exact_spec(16).to_netlist(), model, buses=["S"])
        assert 1.0 < delay < 1.8
