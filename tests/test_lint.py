"""Tests for the netlist lint framework (repro.rtl.lint / lint_rules).

Each built-in rule gets at least one positive test (a seeded defect the
rule must flag) and one negative test (a clean netlist it must not flag).
Defects are seeded by mutating ``Netlist.gates`` directly — the public
constructors enforce the very invariants lint exists to check.
"""

import dataclasses
import json

import pytest

from repro.rtl.gates import Gate, Op
from repro.rtl.lint import (
    Diagnostic,
    LintReport,
    Severity,
    builder_matrix,
    get_rule,
    lint_netlist,
    lint_verilog,
    registered_rules,
)
from repro.rtl.netlist import Netlist
from repro.rtl.opt import optimize, strash, sweep
from repro.rtl.verilog import to_verilog
from repro.spec.catalog import exact_spec


def rule_ids(report: LintReport) -> set:
    return {d.rule for d in report.diagnostics}


def adder(width: int = 4) -> Netlist:
    return exact_spec(width).to_netlist()


# --------------------------------------------------------------------- #
# Framework
# --------------------------------------------------------------------- #


class TestFramework:
    def test_severity_ordering_and_labels(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.ERROR.label == "error"
        assert Severity.from_label("warning") is Severity.WARNING
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.from_label("fatal")

    def test_registry_contains_documented_rules(self):
        ids = {r.id for r in registered_rules()}
        assert ids == {
            "combinational-loop",
            "undriven-net",
            "multiply-driven-net",
            "input-op-misuse",
            "dead-logic",
            "constant-fold",
            "duplicate-gate",
            "output-bus-shape",
            "net-name",
            "fanout-outlier",
            "group-label",
        }

    def test_get_rule_unknown(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            get_rule("no-such-rule")

    def test_suppress_validates_rule_ids(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_netlist(adder(), suppress=["typo-rule"])

    def test_suppress_and_rules_selection(self):
        nl = adder()
        nl.add_gate(Op.AND, ("A[0]", "B[0]"))  # dead gate
        assert "dead-logic" in rule_ids(lint_netlist(nl))
        assert "dead-logic" not in rule_ids(
            lint_netlist(nl, suppress=["dead-logic"])
        )
        only = lint_netlist(nl, rules=["dead-logic"])
        assert only.rules_run == ("dead-logic",)

    def test_netlist_lint_method(self):
        report = adder().lint()
        assert isinstance(report, LintReport)
        assert report.ok()

    def test_report_ok_thresholds(self):
        nl = adder()
        nl.add_gate(Op.AND, ("A[0]", "B[0]"))  # dead gate -> warning
        report = lint_netlist(nl)
        assert report.worst() is Severity.WARNING
        assert report.ok(fail_on=Severity.ERROR)
        assert not report.ok(fail_on=Severity.WARNING)
        assert not report.ok(fail_on=Severity.INFO)

    def test_diagnostic_to_dict_and_format(self):
        diag = Diagnostic(
            rule="dead-logic",
            severity=Severity.WARNING,
            message="gate is dead",
            net="n_7",
            location=(12, 3),
            data={"op": "and"},
        )
        d = diag.to_dict()
        assert d["rule"] == "dead-logic"
        assert d["severity"] == "warning"
        assert (d["line"], d["column"]) == (12, 3)
        assert d["data"] == {"op": "and"}
        text = diag.format()
        assert "warning[dead-logic]" in text
        assert "[n_7]" in text
        assert "line 12, col 3" in text

    def test_report_json_round_trips(self):
        nl = adder()
        nl.add_gate(Op.AND, ("A[0]", "B[0]"))
        report = lint_netlist(nl)
        payload = json.loads(report.to_json())
        assert payload["netlist"] == nl.name
        assert payload["counts"]["warning"] >= 1
        assert any(d["rule"] == "dead-logic" for d in payload["diagnostics"])

    def test_report_text_rendering(self):
        nl = adder()
        text = lint_netlist(nl).format_text()
        assert text.startswith(f"{nl.name}: clean")


# --------------------------------------------------------------------- #
# Rules: graph integrity
# --------------------------------------------------------------------- #


class TestCombinationalLoop:
    def test_detects_injected_cycle(self):
        nl = adder()
        nl.gates["loop_x"] = Gate("loop_x", Op.AND, ("loop_y", "A[0]"))
        nl.gates["loop_y"] = Gate("loop_y", Op.OR, ("loop_x", "B[0]"))
        diags = lint_netlist(nl).by_rule("combinational-loop")
        assert len(diags) == 1
        assert set(diags[0].data["nets"]) == {"loop_x", "loop_y"}
        assert diags[0].severity is Severity.ERROR

    def test_detects_self_loop(self):
        nl = adder()
        nl.gates["self"] = Gate("self", Op.NOT, ("self",))
        diags = lint_netlist(nl).by_rule("combinational-loop")
        assert any("self" in d.data["nets"] for d in diags)

    def test_clean_on_dag(self):
        assert not lint_netlist(adder()).by_rule("combinational-loop")


class TestUndrivenNet:
    def test_detects_undriven_gate_input(self):
        nl = adder()
        nl.gates["u"] = Gate("u", Op.AND, ("ghost", "A[0]"))
        diags = lint_netlist(nl).by_rule("undriven-net")
        assert any(d.net == "ghost" for d in diags)

    def test_detects_undriven_output_bit(self):
        nl = adder()
        nl.output_buses["S"][0] = "phantom"
        diags = lint_netlist(nl).by_rule("undriven-net")
        assert any(d.net == "phantom" and d.data["bus"] == "S" for d in diags)

    def test_clean_when_all_driven(self):
        assert not lint_netlist(adder()).by_rule("undriven-net")


class TestMultiplyDrivenNet:
    def test_detects_gate_on_input_bit(self):
        nl = adder()
        nl.gates["A[0]"] = Gate("A[0]", Op.AND, ("B[0]", "B[1]"))
        diags = lint_netlist(nl).by_rule("multiply-driven-net")
        assert [d.net for d in diags] == ["A[0]"]
        assert diags[0].severity is Severity.ERROR

    def test_clean_on_builder_output(self):
        assert not lint_netlist(adder()).by_rule("multiply-driven-net")


class TestInputOpMisuse:
    def test_detects_stray_input_gate(self):
        nl = adder()
        nl.gates["stray"] = Gate("stray", Op.INPUT, ())
        diags = lint_netlist(nl).by_rule("input-op-misuse")
        assert any(d.net == "stray" for d in diags)

    def test_detects_missing_declared_bit(self):
        nl = adder()
        del nl.gates["A[3]"]
        diags = lint_netlist(nl).by_rule("input-op-misuse")
        assert any(d.net == "A[3]" and d.data["bus"] == "A" for d in diags)

    def test_clean_on_builder_output(self):
        assert not lint_netlist(adder()).by_rule("input-op-misuse")


# --------------------------------------------------------------------- #
# Rules: redundant structure
# --------------------------------------------------------------------- #


class TestDeadLogic:
    def test_detects_unobservable_gate(self):
        nl = adder()
        dead = nl.add_gate(Op.XOR, ("A[1]", "B[1]"))
        diags = lint_netlist(nl).by_rule("dead-logic")
        assert [d.net for d in diags] == [dead]
        assert diags[0].severity is Severity.WARNING

    def test_agrees_with_sweep(self):
        nl = adder()
        nl.add_gate(Op.XOR, ("A[1]", "B[1]"))
        assert not lint_netlist(sweep(nl)).by_rule("dead-logic")

    def test_skipped_when_no_outputs(self):
        nl = Netlist("noout")
        nl.add_input_bus("A", 2)
        nl.add_gate(Op.NOT, ("A[0]",))
        report = lint_netlist(nl)
        # Everything is trivially dead with no outputs; that situation is
        # output-bus-shape's single finding, not one per gate.
        assert not report.by_rule("dead-logic")
        assert report.by_rule("output-bus-shape")

    def test_clean_on_builder_output(self):
        assert not lint_netlist(adder()).by_rule("dead-logic")


class TestConstantFold:
    def test_detects_all_constant_gate(self):
        nl = adder()
        c0, c1 = nl.const(0), nl.const(1)
        net = nl.add_gate(Op.AND, (c0, c1))
        diags = lint_netlist(nl).by_rule("constant-fold")
        assert [d.net for d in diags] == [net]
        assert diags[0].data["folds_to"] == 0

    def test_fold_values(self):
        nl = adder()
        c1 = nl.const(1)
        n_or = nl.add_gate(Op.OR, (nl.const(0), c1))
        n_xor = nl.add_gate(Op.XOR, (c1, c1))
        n_not = nl.add_gate(Op.NOT, (c1,))
        n_mux = nl.add_gate(Op.MUX, (c1, nl.const(0), c1))
        folds = {d.net: d.data["folds_to"]
                 for d in lint_netlist(nl).by_rule("constant-fold")}
        assert folds[n_or] == 1
        assert folds[n_xor] == 0
        assert folds[n_not] == 0
        assert folds[n_mux] == 1

    def test_clean_when_any_input_varies(self):
        nl = adder()
        nl.add_gate(Op.AND, (nl.const(1), "A[0]"))
        assert not lint_netlist(nl).by_rule("constant-fold")


class TestDuplicateGate:
    def test_detects_commuted_duplicate(self):
        nl = adder()
        first = nl.add_gate(Op.AND, ("A[0]", "B[0]"))
        second = nl.add_gate(Op.AND, ("B[0]", "A[0]"))  # commuted operands
        diags = lint_netlist(nl).by_rule("duplicate-gate")
        assert any(
            d.net == second and d.data["canonical"] == first for d in diags
        )
        assert all(d.severity is Severity.INFO for d in diags)

    def test_group_distinguishes_gates(self):
        nl = adder()
        nl.add_gate(Op.AND, ("A[0]", "B[0]"), group="x")
        nl.add_gate(Op.AND, ("A[0]", "B[0]"), group="y")
        assert not lint_netlist(nl).by_rule("duplicate-gate")

    def test_strash_removes_findings(self):
        # CLA has genuine pre-strash sharing candidates.
        nl = exact_spec(8, "cla").to_netlist()
        assert lint_netlist(nl).by_rule("duplicate-gate")
        assert not lint_netlist(strash(nl)).by_rule("duplicate-gate")


# --------------------------------------------------------------------- #
# Rules: interface shape
# --------------------------------------------------------------------- #


class TestOutputBusShape:
    def test_detects_no_outputs(self):
        nl = Netlist("noout")
        nl.add_input_bus("A", 2)
        diags = lint_netlist(nl).by_rule("output-bus-shape")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR

    def test_detects_empty_bus(self):
        nl = adder()
        nl.output_buses["Z"] = []
        diags = lint_netlist(nl).by_rule("output-bus-shape")
        assert any(d.data.get("bus") == "Z" for d in diags)

    def test_detects_input_output_collision(self):
        nl = adder()
        nl.output_buses["A"] = [nl.output_buses["S"][0]]
        diags = lint_netlist(nl).by_rule("output-bus-shape")
        assert any("both as input and output" in d.message for d in diags)

    def test_detects_wrong_sum_width(self):
        nl = adder(8)
        nl.output_buses["S"] = nl.output_buses["S"][:4]
        diags = lint_netlist(nl).by_rule("output-bus-shape")
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING
        assert diags[0].data["width"] == 4
        assert diags[0].data["operand_width"] == 8

    def test_clean_on_builder_output(self):
        assert not lint_netlist(adder()).by_rule("output-bus-shape")


class TestNetName:
    def test_detects_keyword_net(self):
        nl = adder()
        nl.add_gate(Op.AND, ("A[0]", "B[0]"), output="assign")
        diags = lint_netlist(nl).by_rule("net-name")
        assert any("keyword" in d.message and d.net == "assign" for d in diags)

    def test_detects_unemittable_net(self):
        nl = adder()
        nl.add_gate(Op.AND, ("A[0]", "B[0]"), output="bad-name")
        diags = lint_netlist(nl).by_rule("net-name")
        assert any(d.net == "bad-name" for d in diags)

    def test_detects_keyword_module_name(self):
        # "module" passes the identifier regex, so the constructor accepts
        # it — only lint knows it collides with a Verilog keyword.
        nl = Netlist("module")
        nl.set_output_bus("S", [nl.const(0)])
        diags = lint_netlist(nl).by_rule("net-name")
        assert any("module name" in d.message for d in diags)

    def test_bus_bit_names_are_exempt(self):
        assert not lint_netlist(adder()).by_rule("net-name")


class TestFanoutOutlier:
    def test_detects_high_fanout(self):
        nl = adder()
        hub = nl.add_gate(Op.AND, ("A[0]", "B[0]"))
        sinks = [nl.add_gate(Op.NOT, (hub,)) for _ in range(17)]
        nl.output_buses["S"] = sinks  # keep them observable
        diags = lint_netlist(nl).by_rule("fanout-outlier")
        assert [d.net for d in diags] == [hub]
        assert diags[0].data["fanout"] == 17
        assert diags[0].severity is Severity.INFO

    def test_clean_at_limit(self):
        nl = adder()
        hub = nl.add_gate(Op.AND, ("A[0]", "B[0]"))
        for _ in range(16):
            nl.add_gate(Op.NOT, (hub,))
        assert not lint_netlist(nl).by_rule("fanout-outlier")


class TestGroupLabel:
    def test_detects_group_on_source_gate(self):
        nl = adder()
        gate = nl.gates["A[0]"]
        nl.gates["A[0]"] = dataclasses.replace(gate, group="carry")
        diags = lint_netlist(nl).by_rule("group-label")
        assert any(d.net == "A[0]" and d.data["group"] == "carry"
                   for d in diags)

    def test_detects_whitespace_group(self):
        nl = adder()
        nl.add_gate(Op.AND, ("A[0]", "B[0]"), group="two words")
        diags = lint_netlist(nl).by_rule("group-label")
        assert any("whitespace" in d.message for d in diags)

    def test_clean_on_sane_groups(self):
        nl = adder()
        nl.add_gate(Op.AND, ("A[0]", "B[0]"), group="carry")
        assert not lint_netlist(nl).by_rule("group-label")


# --------------------------------------------------------------------- #
# Builder matrix and Verilog front end
# --------------------------------------------------------------------- #


class TestBuilderMatrix:
    def test_every_builder_is_warning_clean(self):
        for label, netlist in builder_matrix():
            report = lint_netlist(netlist)
            assert report.ok(fail_on=Severity.WARNING), (
                f"{label}:\n{report.format_text()}"
            )

    def test_optimized_builders_are_fully_clean(self):
        for label, netlist in builder_matrix():
            report = lint_netlist(optimize(netlist),
                                  suppress=["fanout-outlier"])
            assert report.ok(fail_on=Severity.INFO), (
                f"{label}:\n{report.format_text()}"
            )


class TestLintVerilog:
    def test_round_trip_is_clean(self):
        report = lint_verilog(to_verilog(optimize(exact_spec(8).to_netlist())))
        assert report.ok(fail_on=Severity.INFO)

    def test_parsed_defect_has_source_location(self):
        source = "\n".join([
            "module m (input [3:0] A, input [3:0] B, output [3:0] S);",
            "  wire d;",
            "  assign d = A[0] & B[0];",
            "  assign S[0] = A[0] ^ B[0];",
            "  assign S[1] = A[1];",
            "  assign S[2] = A[2];",
            "  assign S[3] = A[3];",
            "endmodule",
            "",
        ])
        diags = lint_verilog(source).by_rule("dead-logic")
        assert len(diags) == 1
        assert diags[0].location == (3, 3)
        assert "line 3" in diags[0].format()
