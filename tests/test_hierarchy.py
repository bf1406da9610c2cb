"""Unit tests for hierarchical Verilog emission and elaboration."""

import numpy as np
import pytest

from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.equivalence import check_equivalence
from repro.rtl.hierarchy import elaborate_hierarchical, emit_gear_hierarchical
from repro.rtl.sim import simulate_bus
from repro.rtl.verilog_parser import VerilogSyntaxError
from repro.spec.catalog import gear_spec
from tests.conftest import random_pairs


class TestEmission:
    def test_module_structure(self):
        src = emit_gear_hierarchical(GeArConfig(12, 4, 4))
        assert src.count("endmodule") == 2  # one sub-adder + top
        assert "gear_h_12_4_4_sub8 u0" in src
        assert "gear_h_12_4_4_sub8 u1" in src
        assert ".A(A[7:0])" in src
        assert ".A(A[11:4])" in src

    def test_one_submodule_per_distinct_length(self):
        # Partial configs have a same-length anchored last window.
        src = emit_gear_hierarchical(GeArConfig(20, 3, 7, allow_partial=True))
        assert src.count("endmodule") == 2
        assert src.count("u4 (") == 1  # five instances u0..u4

    def test_err_flags_emitted(self):
        src = emit_gear_hierarchical(GeArConfig(12, 2, 6))
        assert "output [1:0] ERR" in src
        assert "assign ERR[1]" in src

    def test_custom_name(self):
        src = emit_gear_hierarchical(GeArConfig(8, 2, 2), name="mytop")
        assert "module mytop (" in src


class TestElaboration:
    @pytest.mark.parametrize("n,r,p", [(8, 2, 2), (12, 4, 4), (12, 2, 6),
                                       (16, 4, 8)])
    def test_matches_behavioural(self, n, r, p):
        netlist = elaborate_hierarchical(
            emit_gear_hierarchical(GeArConfig(n, r, p))
        )
        adder = GeArAdder(GeArConfig(n, r, p))
        a, b = random_pairs(n, 2000, seed=n)
        np.testing.assert_array_equal(
            simulate_bus(netlist, {"A": a, "B": b}, "S"),
            np.asarray(adder.add(a, b)),
        )

    def test_equivalent_to_flat_netlist_exhaustively(self):
        cfg = GeArConfig(10, 2, 4)
        flat = gear_spec(10, 2, 4).to_netlist()
        hier = elaborate_hierarchical(emit_gear_hierarchical(cfg))
        report = check_equivalence(hier, flat)
        assert report.equivalent and report.exhaustive

    def test_partial_config(self):
        cfg = GeArConfig(20, 3, 7, allow_partial=True)
        netlist = elaborate_hierarchical(emit_gear_hierarchical(cfg))
        adder = GeArAdder(cfg)
        a, b = random_pairs(20, 2000, seed=9)
        np.testing.assert_array_equal(
            simulate_bus(netlist, {"A": a, "B": b}, "S"),
            np.asarray(adder.add(a, b)),
        )

    def test_err_bus_matches_flat(self):
        cfg = GeArConfig(12, 2, 6)
        hier = elaborate_hierarchical(emit_gear_hierarchical(cfg))
        flat = gear_spec(12, 2, 6).to_netlist()
        a, b = random_pairs(12, 3000, seed=4)
        np.testing.assert_array_equal(
            simulate_bus(hier, {"A": a, "B": b}, "ERR"),
            simulate_bus(flat, {"A": a, "B": b}, "ERR"),
        )

    def test_top_selection(self):
        src = emit_gear_hierarchical(GeArConfig(8, 2, 2), name="thetop")
        netlist = elaborate_hierarchical(src, top="thetop")
        assert netlist.name == "thetop"
        with pytest.raises(VerilogSyntaxError):
            elaborate_hierarchical(src, top="missing")

    def test_no_modules_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            elaborate_hierarchical("wire x;")

    def test_timing_close_to_flat(self):
        from repro.timing.fpga import characterize_netlist

        cfg = GeArConfig(16, 4, 4)
        hier = characterize_netlist(
            elaborate_hierarchical(emit_gear_hierarchical(cfg)), name="hier"
        )
        flat = characterize_netlist(gear_spec(16, 4, 4).to_netlist(), name="flat")
        assert hier.delay_ns == pytest.approx(flat.delay_ns, abs=0.1)
        assert abs(hier.luts - flat.luts) <= 4
