"""Tests for Kogge-Stone / carry-select / carry-skip adders and the GeAr
sub-adder style option (§4.4: the model is sub-adder agnostic)."""

import numpy as np
import pytest

from repro.adders import CarrySelectAdder, CarrySkipAdder, KoggeStoneAdder, RippleCarryAdder
from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.sim import simulate_bus
from repro.rtl.sta import UnitDelayModel, critical_path_delay
from repro.rtl.verilog import to_verilog
from repro.rtl.verilog_parser import parse_verilog
from repro.spec.catalog import gear_spec
from repro.timing.fpga import characterize
from tests.conftest import random_pairs


class TestExactness:
    @pytest.mark.parametrize("make", [
        lambda: KoggeStoneAdder(16),
        lambda: CarrySelectAdder(16, 4),
        lambda: CarrySkipAdder(16, 4),
        lambda: CarrySelectAdder(13, 4),  # non-multiple width
        lambda: CarrySkipAdder(10, 3),
        lambda: KoggeStoneAdder(7),       # non-power-of-two width
    ])
    def test_netlist_exact(self, make):
        adder = make()
        nl = adder.build_netlist()
        a, b = random_pairs(adder.width, 500, seed=adder.width)
        np.testing.assert_array_equal(
            simulate_bus(nl, {"A": a, "B": b}, "S"), a + b
        )

    def test_exhaustive_small_kogge_stone(self):
        nl = KoggeStoneAdder(5).build_netlist()
        vals = np.arange(32, dtype=np.int64)
        a = np.repeat(vals, 32)
        b = np.tile(vals, 32)
        np.testing.assert_array_equal(
            simulate_bus(nl, {"A": a, "B": b}, "S"), a + b
        )


class TestStructure:
    def test_kogge_stone_log_depth(self):
        # Logic depth grows ~logarithmically, unlike RCA's linear chain.
        depth16 = critical_path_delay(
            KoggeStoneAdder(16).build_netlist(), UnitDelayModel(), buses=["S"])
        depth64 = critical_path_delay(
            KoggeStoneAdder(64).build_netlist(), UnitDelayModel(), buses=["S"])
        rca64 = critical_path_delay(
            RippleCarryAdder(64).build_netlist(), UnitDelayModel(), buses=["S"])
        assert depth64 <= depth16 + 4
        assert depth64 < rca64 / 3

    def test_fpga_prefers_carry_chain(self):
        # On the FPGA model, the prefix network loses to the carry chain —
        # the same §4.2 effect that penalises GDA.
        ksa = characterize(KoggeStoneAdder(16))
        rca = characterize(RippleCarryAdder(16))
        assert ksa.delay_ns > rca.delay_ns
        assert ksa.luts > rca.luts

    def test_carry_select_beats_rca_unit_depth(self):
        csla = critical_path_delay(
            CarrySelectAdder(32, 4).build_netlist(), UnitDelayModel(), buses=["S"])
        rca = critical_path_delay(
            RippleCarryAdder(32).build_netlist(), UnitDelayModel(), buses=["S"])
        assert csla < rca

    def test_verilog_roundtrip(self):
        for adder in (KoggeStoneAdder(8), CarrySelectAdder(8, 3),
                      CarrySkipAdder(8, 3)):
            nl = adder.build_netlist()
            parsed = parse_verilog(to_verilog(nl))
            a, b = random_pairs(8, 200, seed=1)
            np.testing.assert_array_equal(
                simulate_bus(parsed, {"A": a, "B": b}, "S"), a + b
            )


class TestGearSubAdderStyles:
    @pytest.mark.parametrize("style", ["rca", "cla"])
    def test_style_is_functionally_identical(self, style):
        adder = GeArAdder(GeArConfig(16, 4, 4))
        nl = gear_spec(16, 4, 4, arch=style).to_netlist()
        a, b = random_pairs(16, 600, seed=2)
        np.testing.assert_array_equal(
            simulate_bus(nl, {"A": a, "B": b}, "S"),
            np.asarray(adder.add(a, b)),
        )

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            gear_spec(16, 4, 4, arch="magic").to_netlist()

    def test_cla_subadder_shallower_but_fpga_slower(self):
        rca_nl = gear_spec(16, 4, 4, arch="rca").to_netlist()
        cla_nl = gear_spec(16, 4, 4, arch="cla").to_netlist()
        unit = UnitDelayModel()
        assert critical_path_delay(cla_nl, unit, buses=["S"]) < \
            critical_path_delay(rca_nl, unit, buses=["S"])
        from repro.timing.fpga import FPGA_DELAY_MODEL

        assert critical_path_delay(cla_nl, FPGA_DELAY_MODEL, buses=["S"]) > \
            critical_path_delay(rca_nl, FPGA_DELAY_MODEL, buses=["S"])
