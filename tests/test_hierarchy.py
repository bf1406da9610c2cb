"""Unit tests for hierarchical Verilog emission and elaboration."""

import numpy as np
import pytest

from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.equivalence import check_equivalence
from repro.rtl.hierarchy import elaborate_hierarchical, emit_hierarchical
from repro.rtl.sim import simulate_bus
from repro.rtl.verilog_parser import VerilogSyntaxError
from repro.spec.catalog import catalog_spec, gear_spec
from repro.spec.ir import AdderSpec, WindowSpec
from tests.conftest import random_pairs

#: Fused windows of every architecture, two of them the same (arch, length).
MIXED = AdderSpec("mix", 10, (
    WindowSpec(0, 4, 0, 4, arch="cla"),
    WindowSpec(2, 6, 5, 6, arch="rca"),
    WindowSpec(4, 8, 7, 8, arch="ksa"),
    WindowSpec(5, 9, 9, 9, arch="ksa"),
))


class TestEmission:
    def test_module_structure(self):
        src = emit_hierarchical(gear_spec(12, 4, 4))
        assert src.count("endmodule") == 2  # one sub-adder + top
        assert "module gear_12_4_4 (" in src
        assert "gear_12_4_4_sub8 u0" in src
        assert "gear_12_4_4_sub8 u1" in src
        assert ".A(A[7:0])" in src
        assert ".A(A[11:4])" in src

    def test_one_submodule_per_distinct_length(self):
        # Partial configs have a same-length anchored last window.
        src = emit_hierarchical(gear_spec(20, 3, 7, allow_partial=True))
        assert src.count("endmodule") == 2
        assert src.count("u4 (") == 1  # five instances u0..u4

    def test_one_submodule_per_distinct_arch_and_length(self):
        src = emit_hierarchical(MIXED)
        assert src.count("endmodule") == 4  # cla5, rca5, ksa5 + top
        assert "mix_sub5_cla u0" in src
        assert "mix_sub5 u1" in src
        assert "mix_sub5_ksa u2" in src
        assert "mix_sub5_ksa u3" in src
        assert "ERR" not in src  # the spec declares no error detection

    def test_err_flags_emitted(self):
        src = emit_hierarchical(gear_spec(12, 2, 6))
        assert "output [1:0] ERR" in src
        assert "assign ERR[1]" in src

    def test_custom_name(self):
        src = emit_hierarchical(gear_spec(8, 2, 2), name="mytop")
        assert "module mytop (" in src
        assert "mytop_sub4 u0" in src

    @pytest.mark.parametrize("key", ["hoeraa", "cesa_rect", "etaii_l4",
                                     "loa_half", "loa_static", "gda_b2c2",
                                     "hetero"])
    def test_unsupported_layouts_raise(self, key):
        # Static, truncated, rectified and gen_* layouts have parts a
        # window instance cannot express.
        with pytest.raises(ValueError, match="hierarchical"):
            emit_hierarchical(catalog_spec(key, 8))


def _spec_cases():
    for width in (6, 8, 10):
        yield pytest.param(catalog_spec("aca1_l4", width), id=f"aca1_l4@{width}")
        yield pytest.param(catalog_spec("aca2_l4", width), id=f"aca2_l4@{width}")
        yield pytest.param(gear_spec(width, 2, 2, arch="cla"),
                           id=f"gear_cla_r2p2@{width}")
    yield pytest.param(gear_spec(9, 2, 3, arch="ksa"), id="gear_ksa_r2p3@9")
    yield pytest.param(gear_spec(10, 3, 3, allow_partial=True, arch="cla"),
                       id="gear_cla_r3p3_partial@10")
    yield pytest.param(MIXED, id="mixed@10")
    yield pytest.param(catalog_spec("cla", 8), id="cla@8")
    yield pytest.param(catalog_spec("ksa", 8), id="ksa@8")


class TestSpecEquivalence:
    @pytest.mark.parametrize("spec", _spec_cases())
    def test_exhaustively_equivalent_to_spec_netlist(self, spec):
        hier = elaborate_hierarchical(emit_hierarchical(spec))
        report = check_equivalence(hier, spec.to_netlist())
        assert report.equivalent and report.exhaustive


class TestElaboration:
    @pytest.mark.parametrize("n,r,p", [(8, 2, 2), (12, 4, 4), (12, 2, 6),
                                       (16, 4, 8)])
    def test_matches_behavioural(self, n, r, p):
        netlist = elaborate_hierarchical(emit_hierarchical(gear_spec(n, r, p)))
        adder = GeArAdder(GeArConfig(n, r, p))
        a, b = random_pairs(n, 2000, seed=n)
        np.testing.assert_array_equal(
            simulate_bus(netlist, {"A": a, "B": b}, "S"),
            np.asarray(adder.add(a, b)),
        )

    def test_equivalent_to_flat_netlist_exhaustively(self):
        spec = gear_spec(10, 2, 4)
        hier = elaborate_hierarchical(emit_hierarchical(spec))
        report = check_equivalence(hier, spec.to_netlist())
        assert report.equivalent and report.exhaustive

    def test_partial_config(self):
        cfg = GeArConfig(20, 3, 7, allow_partial=True)
        netlist = elaborate_hierarchical(
            emit_hierarchical(gear_spec(20, 3, 7, allow_partial=True)))
        adder = GeArAdder(cfg)
        a, b = random_pairs(20, 2000, seed=9)
        np.testing.assert_array_equal(
            simulate_bus(netlist, {"A": a, "B": b}, "S"),
            np.asarray(adder.add(a, b)),
        )

    def test_err_bus_matches_flat(self):
        spec = gear_spec(12, 2, 6)
        hier = elaborate_hierarchical(emit_hierarchical(spec))
        flat = spec.to_netlist()
        a, b = random_pairs(12, 3000, seed=4)
        np.testing.assert_array_equal(
            simulate_bus(hier, {"A": a, "B": b}, "ERR"),
            simulate_bus(flat, {"A": a, "B": b}, "ERR"),
        )

    def test_top_selection(self):
        src = emit_hierarchical(gear_spec(8, 2, 2), name="thetop")
        netlist = elaborate_hierarchical(src, top="thetop")
        assert netlist.name == "thetop"
        with pytest.raises(VerilogSyntaxError):
            elaborate_hierarchical(src, top="missing")

    def test_no_modules_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            elaborate_hierarchical("wire x;")

    def test_timing_close_to_flat(self):
        from repro.timing.fpga import characterize_netlist

        spec = gear_spec(16, 4, 4)
        hier = characterize_netlist(
            elaborate_hierarchical(emit_hierarchical(spec)), name="hier"
        )
        flat = characterize_netlist(spec.to_netlist(), name="flat")
        assert hier.delay_ns == pytest.approx(flat.delay_ns, abs=0.1)
        assert abs(hier.luts - flat.luts) <= 4
