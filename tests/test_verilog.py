"""Unit tests for Verilog emission and parsing (round-trip equivalence)."""

import numpy as np
import pytest

from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate_bus
from repro.rtl.sta import FpgaDelayModel, critical_path_delay
from repro.rtl.verilog import to_verilog
from repro.rtl.verilog_parser import VerilogSyntaxError, parse_verilog
from repro.spec.catalog import exact_spec, gda_spec, gear_spec, loa_spec
from tests.conftest import random_pairs


def _roundtrip_equivalent(netlist, width, buses=("S",), count=300, seed=9):
    parsed = parse_verilog(to_verilog(netlist))
    a, b = random_pairs(width, count, seed=seed)
    for bus in buses:
        np.testing.assert_array_equal(
            simulate_bus(netlist, {"A": a, "B": b}, bus),
            simulate_bus(parsed, {"A": a, "B": b}, bus),
        )
    return parsed


class TestEmission:
    def test_module_structure(self):
        src = to_verilog(exact_spec(4).to_netlist())
        assert src.startswith("module rca")
        assert "endmodule" in src
        assert "input  [3:0] A" in src
        assert "output [4:0] S" in src

    def test_contains_assigns(self):
        src = to_verilog(exact_spec(2).to_netlist())
        assert src.count("assign") >= 4

    def test_group_tags_emitted(self):
        src = to_verilog(exact_spec(4).to_netlist())
        assert "// group:carry" in src

    def test_mux_and_constants(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 2)
        m = nl.mux(a[0], nl.const(0), nl.const(1))
        nl.set_output_bus("S", [m])
        src = to_verilog(nl)
        assert "?" in src and "1'b0" in src and "1'b1" in src


class TestRoundTrip:
    @pytest.mark.parametrize("builder,width", [
        (lambda: exact_spec(8).to_netlist(), 8),
        (lambda: exact_spec(6, "cla").to_netlist(), 6),
        (lambda: gear_spec(12, 4, 4).to_netlist(), 12),
        (lambda: gda_spec(8, 2, 4, enforce_multiple=False).to_netlist(), 8),
        (lambda: loa_spec(8, 3).to_netlist(), 8),
    ])
    def test_functional_equivalence(self, builder, width):
        _roundtrip_equivalent(builder(), width)

    def test_err_bus_roundtrips(self):
        _roundtrip_equivalent(gear_spec(12, 2, 6).to_netlist(), 12, buses=("S", "ERR"))

    def test_group_tags_roundtrip(self):
        parsed = parse_verilog(to_verilog(exact_spec(8).to_netlist()))
        assert any(g.group == "carry" for g in parsed.logic_gates())

    def test_timing_preserved_by_roundtrip(self):
        nl = gear_spec(16, 4, 4).to_netlist()
        parsed = parse_verilog(to_verilog(nl))
        model = FpgaDelayModel()
        assert critical_path_delay(parsed, model, buses=["S"]) == pytest.approx(
            critical_path_delay(nl, model, buses=["S"])
        )

    def test_double_roundtrip_stable(self):
        src1 = to_verilog(gear_spec(10, 2, 4).to_netlist())
        src2 = to_verilog(parse_verilog(src1))
        assert parse_verilog(src2).stats() == parse_verilog(src1).stats()


class TestParserExpressions:
    def _parse_expr_module(self, expr, width=4):
        src = (
            f"module t (\n  input  [{width - 1}:0] A,\n  output [0:0] S\n);\n"
            f"  wire w;\n  assign w = {expr};\n  assign S[0] = w;\nendmodule\n"
        )
        return parse_verilog(src)

    def test_precedence_and_over_xor(self):
        # a ^ b & c must parse as a ^ (b & c)
        nl = self._parse_expr_module("A[0] ^ A[1] & A[2]")
        for word in range(8):
            got = int(simulate_bus(nl, {"A": word}, "S"))
            a0, a1, a2 = word & 1, (word >> 1) & 1, (word >> 2) & 1
            assert got == a0 ^ (a1 & a2)

    def test_precedence_xor_over_or(self):
        nl = self._parse_expr_module("A[0] | A[1] ^ A[2]")
        for word in range(8):
            got = int(simulate_bus(nl, {"A": word}, "S"))
            a0, a1, a2 = word & 1, (word >> 1) & 1, (word >> 2) & 1
            assert got == a0 | (a1 ^ a2)

    def test_parentheses_override(self):
        nl = self._parse_expr_module("(A[0] | A[1]) & A[2]")
        for word in range(8):
            got = int(simulate_bus(nl, {"A": word}, "S"))
            a0, a1, a2 = word & 1, (word >> 1) & 1, (word >> 2) & 1
            assert got == (a0 | a1) & a2

    def test_ternary(self):
        nl = self._parse_expr_module("A[0] ? A[1] : A[2]")
        for word in range(8):
            got = int(simulate_bus(nl, {"A": word}, "S"))
            a0, a1, a2 = word & 1, (word >> 1) & 1, (word >> 2) & 1
            assert got == (a1 if a0 else a2)

    def test_double_negation(self):
        nl = self._parse_expr_module("~~A[0]")
        assert int(simulate_bus(nl, {"A": 1}, "S")) == 1
        assert int(simulate_bus(nl, {"A": 0}, "S")) == 0


class TestParserErrors:
    def test_reference_before_assignment(self):
        src = (
            "module t (\n  input  [0:0] A,\n  output [0:0] S\n);\n"
            "  wire w;\n  assign S[0] = w;\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_unassigned_output_bit(self):
        src = (
            "module t (\n  input  [0:0] A,\n  output [1:0] S\n);\n"
            "  assign S[0] = A[0];\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError, match="never assigned"):
            parse_verilog(src)

    def test_double_assignment(self):
        src = (
            "module t (\n  input  [0:0] A,\n  output [0:0] S\n);\n"
            "  assign S[0] = A[0];\n  assign S[0] = A[0];\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError, match="twice"):
            parse_verilog(src)

    def test_out_of_range_input_bit(self):
        src = (
            "module t (\n  input  [0:0] A,\n  output [0:0] S\n);\n"
            "  assign S[0] = A[3];\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_garbage_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_verilog("module t (@);")

    def test_trailing_tokens_rejected(self):
        src = (
            "module t (\n  input  [0:0] A,\n  output [0:0] S\n);\n"
            "  assign S[0] = A[0];\nendmodule\nmodule"
        )
        with pytest.raises(VerilogSyntaxError, match="trailing"):
            parse_verilog(src)

    def test_nonzero_range_base_rejected(self):
        src = "module t (\n  input  [4:1] A,\n  output [0:0] S\n);\nendmodule\n"
        with pytest.raises(VerilogSyntaxError, match="H:0"):
            parse_verilog(src)


class TestSourceLocations:
    def test_syntax_error_carries_line_and_column(self):
        src = (
            "module t (\n  input  [0:0] A,\n  output [0:0] S\n);\n"
            "  assign S[0] = w;\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError, match=r"line 5, col 17") as exc:
            parse_verilog(src)
        assert exc.value.line == 5
        assert exc.value.column == 17

    def test_unexpected_character_located(self):
        with pytest.raises(VerilogSyntaxError, match="line 1, col 11"):
            parse_verilog("module t (@);")

    def test_every_net_gets_a_location(self):
        nl = exact_spec(4).to_netlist()
        parsed = parse_verilog(to_verilog(nl))
        assert set(parsed.source_locations) == set(parsed.gates)

    def test_locations_point_at_statements(self):
        src = (
            "module t (input [1:0] A, input [1:0] B, output [1:0] S);\n"
            "  assign S[0] = A[0] ^ B[0];\n"
            "  assign S[1] = A[1] ^ B[1];\n"
            "endmodule\n"
        )
        nl = parse_verilog(src)
        lines = {nl.source_locations[net][0] for net in nl.output_nets()}
        assert lines == {2, 3}
        assert nl.source_locations["A[0]"][0] == 1
