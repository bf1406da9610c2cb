"""Unit tests for the Verilog testbench generator."""

import re

import pytest

from repro.rtl.testbench import generate_testbench
from repro.spec.catalog import exact_spec, gear_spec


class TestGenerateTestbench:
    def test_structure(self):
        tb = generate_testbench(exact_spec(8, name="rca").to_netlist(),
                                vectors=10)
        assert tb.startswith("`timescale")
        assert "module rca_tb;" in tb
        assert "rca dut (.A(a), .B(b), .S(s_dut));" in tb
        assert "endmodule" in tb
        assert "$finish;" in tb
        assert 'PASS' in tb and 'FAIL' in tb

    def test_vector_count(self):
        tb = generate_testbench(exact_spec(8).to_netlist(), vectors=25)
        checks = re.findall(r"^\s*check\(", tb, flags=re.M)
        # corners × 3 b-patterns + 25 random
        assert len(checks) >= 25 + 8

    def test_expected_values_are_true_sums(self):
        tb = generate_testbench(exact_spec(4).to_netlist(), vectors=5, seed=9)
        for match in re.finditer(
            r"check\(4'h([0-9a-f]+), 4'h([0-9a-f]+), 5'h([0-9a-f]+)\);", tb
        ):
            a, b, s = (int(g, 16) for g in match.groups())
            assert s == a + b

    def test_err_bus_included_for_gear(self):
        tb = generate_testbench(gear_spec(12, 4, 4).to_netlist(), vectors=5)
        assert "err_dut" in tb
        assert ".ERR(err_dut)" in tb

    def test_gear_expected_matches_model(self):
        from repro.core.gear import GeArAdder, GeArConfig

        adder = GeArAdder(GeArConfig(8, 2, 2))
        tb = generate_testbench(adder.build_netlist(), vectors=10, seed=3)
        pattern = r"check\(8'h([0-9a-f]+), 8'h([0-9a-f]+), (\d+)'h([0-9a-f]+), 9'h([0-9a-f]+)\);"
        found = 0
        for match in re.finditer(pattern, tb):
            a = int(match.group(1), 16)
            b = int(match.group(2), 16)
            s = int(match.group(5), 16)
            assert s == adder.add(a, b)
            found += 1
        assert found >= 10

    def test_custom_name(self):
        tb = generate_testbench(exact_spec(4).to_netlist(), vectors=2,
                                tb_name="mytb")
        assert "module mytb;" in tb

    def test_requires_ab_buses(self):
        from repro.rtl.builders import build_gear_corrected

        with pytest.raises(ValueError):
            generate_testbench(build_gear_corrected(8, 2, 2))

    def test_vector_count_validated(self):
        with pytest.raises((ValueError, TypeError)):
            generate_testbench(exact_spec(4).to_netlist(), vectors=0)
