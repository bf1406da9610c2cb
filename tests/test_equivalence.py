"""Unit tests for the netlist equivalence checker."""

import pytest

from repro.rtl.equivalence import check_equivalence
from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.rtl.opt import optimize
from repro.rtl.verilog import to_verilog
from repro.rtl.verilog_parser import parse_verilog
from repro.spec.catalog import exact_spec, gear_spec


class TestExhaustiveRegime:
    def test_rca_equals_cla_proof(self):
        report = check_equivalence(exact_spec(8).to_netlist(),
                                   exact_spec(8, "cla").to_netlist())
        assert report.equivalent
        assert report.exhaustive
        assert report.vectors_checked == 1 << 16

    def test_rca_equals_kogge_stone(self):
        report = check_equivalence(exact_spec(10).to_netlist(),
                                   exact_spec(10, "ksa").to_netlist())
        assert report.equivalent and report.exhaustive

    def test_gear_roundtrip_proof(self):
        nl = gear_spec(10, 2, 4).to_netlist()
        parsed = parse_verilog(to_verilog(nl))
        report = check_equivalence(nl, parsed)
        assert report.equivalent and report.exhaustive

    def test_optimize_preserves_function(self):
        nl = gear_spec(9, 1, 3, allow_partial=True).to_netlist()
        report = check_equivalence(nl, optimize(nl))
        assert report.equivalent

    def test_detects_mismatch_with_counterexample(self):
        good = exact_spec(6).to_netlist()
        bad = Netlist("bad")
        a = bad.add_input_bus("A", 6)
        b = bad.add_input_bus("B", 6)
        from repro.rtl.builders import _ripple_chain

        sums, cout = _ripple_chain(bad, a, b)
        sums[3] = bad.not_(sums[3])  # corrupt one sum bit
        bad.set_output_bus("S", sums + [cout])
        report = check_equivalence(good, bad)
        assert not report.equivalent
        assert report.mismatched_bus == "S"
        assert report.counterexample is not None
        # The counterexample must actually demonstrate the difference.
        from repro.rtl.sim import simulate_bus

        cex = report.counterexample
        assert int(simulate_bus(good, cex, "S")) != int(simulate_bus(bad, cex, "S"))


class TestRandomRegime:
    def test_wide_adders_random_pass(self):
        report = check_equivalence(exact_spec(16).to_netlist(),
                                   exact_spec(16, "cla").to_netlist(),
                                   random_vectors=5000)
        assert report.equivalent
        assert not report.exhaustive
        assert report.vectors_checked >= 5000

    def test_wide_mismatch_found(self):
        good = exact_spec(16).to_netlist()
        bad = Netlist("bad16")
        a = bad.add_input_bus("A", 16)
        b = bad.add_input_bus("B", 16)
        from repro.rtl.builders import _ripple_chain

        sums, cout = _ripple_chain(bad, a, b)
        sums[15] = bad.not_(sums[15])
        bad.set_output_bus("S", sums + [cout])
        report = check_equivalence(good, bad, random_vectors=5000)
        assert not report.equivalent

    def test_corner_catches_stuck_lsb(self):
        # A bug visible only at all-zero inputs is caught by the corner set
        # even before random vectors.
        good = exact_spec(16).to_netlist()
        bad = Netlist("stuck")
        a = bad.add_input_bus("A", 16)
        b = bad.add_input_bus("B", 16)
        from repro.rtl.builders import _ripple_chain

        sums, cout = _ripple_chain(bad, a, b)
        sums[0] = bad.or_(sums[0], bad.const(1))  # S[0] stuck at 1
        bad.set_output_bus("S", sums + [cout])
        report = check_equivalence(good, bad, random_vectors=10)
        assert not report.equivalent


class TestInterfaceValidation:
    def test_different_inputs_rejected(self):
        with pytest.raises(ValueError):
            check_equivalence(exact_spec(8).to_netlist(),
                              exact_spec(9).to_netlist())

    def test_no_shared_outputs_rejected(self):
        nl = Netlist("odd")
        a = nl.add_input_bus("A", 2)
        b = nl.add_input_bus("B", 2)
        nl.set_output_bus("Q", [nl.and_(a[0], b[0])])
        with pytest.raises(ValueError):
            check_equivalence(exact_spec(2).to_netlist(), nl)

    def test_only_shared_buses_compared(self):
        # GeAr has an extra ERR bus; comparing against plain RCA-sum-only
        # netlist uses bus S only... here: gear vs gear-without-ERR.
        with_err = gear_spec(8, 2, 2, error_detect=True).to_netlist()
        without = gear_spec(8, 2, 2, error_detect=False).to_netlist()
        report = check_equivalence(with_err, without)
        assert report.equivalent
