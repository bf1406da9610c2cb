"""Unit tests for repro.rtl.area (LUT estimation) and repro.rtl.opt."""

import numpy as np
import pytest

from repro.rtl.area import estimate_luts
from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.rtl.opt import optimize, strash, sweep
from repro.rtl.sim import simulate_bus
from repro.spec.catalog import aca1_spec, exact_spec, gear_spec


class TestEstimateLuts:
    def test_single_gate_is_one_lut(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 2)
        out = nl.and_(a[0], a[1])
        nl.set_output_bus("S", [out])
        assert estimate_luts(nl) == 1

    def test_mergeable_chain_fits_one_lut(self):
        # Three chained 2-input gates over 4 leaves fit one 6-LUT.
        nl = Netlist("t")
        a = nl.add_input_bus("A", 4)
        x = nl.and_(a[0], a[1])
        y = nl.or_(x, a[2])
        z = nl.xor(y, a[3])
        nl.set_output_bus("S", [z])
        assert estimate_luts(nl, k=6) == 1

    def test_wide_support_needs_more_luts(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 12)
        x = nl.and_(*a[:6])
        y = nl.and_(*a[6:])
        z = nl.or_(x, y)
        nl.set_output_bus("S", [z])
        # 12 leaves cannot fit one 6-LUT.
        assert estimate_luts(nl, k=6) >= 2

    def test_k4_needs_more_than_k6(self):
        nl = gear_spec(12, 4, 4).to_netlist()
        assert estimate_luts(nl, k=4) >= estimate_luts(nl, k=6)

    def test_carry_absorption(self):
        nl = exact_spec(8).to_netlist()
        absorbed = estimate_luts(nl, absorb_carry=True)
        explicit = estimate_luts(nl, absorb_carry=False)
        assert absorbed < explicit

    def test_rca_one_lut_per_bit(self):
        # Matches the paper's Table I: 16-bit RCA = 16 LUTs.
        assert estimate_luts(optimize(exact_spec(16).to_netlist())) == 16

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            estimate_luts(exact_spec(4).to_netlist(), k=1)


class TestStrash:
    def test_duplicate_gates_collapse(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 2)
        x1 = nl.xor(a[0], a[1])
        x2 = nl.xor(a[1], a[0])  # commutative duplicate
        out = nl.and_(x1, x2)
        nl.set_output_bus("S", [out])
        hashed = strash(nl)
        ops = [g.op for g in hashed.logic_gates()]
        assert ops.count(Op.XOR) == 1

    def test_behaviour_preserved(self):
        nl = gear_spec(10, 2, 4).to_netlist()
        hashed = strash(nl)
        rng = np.random.default_rng(0)
        a = rng.integers(0, 1 << 10, size=200, dtype=np.int64)
        b = rng.integers(0, 1 << 10, size=200, dtype=np.int64)
        np.testing.assert_array_equal(
            simulate_bus(nl, {"A": a, "B": b}, "S"),
            simulate_bus(hashed, {"A": a, "B": b}, "S"),
        )

    def test_aca1_shares_overlapping_terms(self):
        nl = aca1_spec(16, 4).to_netlist()
        before = len(nl.logic_gates())
        after = len(strash(nl).logic_gates())
        assert after < before  # overlapping windows recompute p/g terms

    def test_group_tags_survive(self):
        nl = exact_spec(4).to_netlist()
        hashed = strash(nl)
        assert any(g.group == "carry" for g in hashed.logic_gates())


class TestSweep:
    def test_dead_logic_removed(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 2)
        live = nl.and_(a[0], a[1])
        nl.or_(a[0], a[1])  # dead
        nl.set_output_bus("S", [live])
        swept = sweep(nl)
        assert len(swept.logic_gates()) == 1

    def test_optimize_preserves_behaviour(self):
        nl = gear_spec(12, 4, 4).to_netlist()
        opt = optimize(nl)
        rng = np.random.default_rng(1)
        a = rng.integers(0, 1 << 12, size=300, dtype=np.int64)
        b = rng.integers(0, 1 << 12, size=300, dtype=np.int64)
        np.testing.assert_array_equal(
            simulate_bus(nl, {"A": a, "B": b}, "S"),
            simulate_bus(opt, {"A": a, "B": b}, "S"),
        )
        np.testing.assert_array_equal(
            simulate_bus(nl, {"A": a, "B": b}, "ERR"),
            simulate_bus(opt, {"A": a, "B": b}, "ERR"),
        )

    def test_optimize_never_grows(self):
        for spec in (exact_spec(8), gear_spec(16, 4, 4)):
            nl = spec.to_netlist()
            assert len(optimize(nl).logic_gates()) <= len(nl.logic_gates())
