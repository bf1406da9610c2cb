"""Self-checking Verilog testbench generation.

The paper validated its RTL on an FPGA; downstream users of our emitted
Verilog will want to re-verify it in their own simulator.  This module
generates a plain-Verilog-2001 testbench for any emitted adder module:
directed corner vectors plus seeded random vectors, golden outputs
computed by the *behavioural* Python model, ``$display`` on mismatch and a
final pass/fail summary.  The file is self-contained (no DPI, no files to
load) so ``iverilog tb.v adder.v && ./a.out`` suffices.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate_buses
from repro.utils.bitvec import mask
from repro.utils.validation import check_pos_int


def _corner_vectors(width: int) -> List[int]:
    top = mask(width)
    patterns = {0, 1, top, top - 1, top >> 1, (top >> 1) + 1}
    alt0 = sum(1 << i for i in range(0, width, 2))
    patterns.update({alt0, top ^ alt0})
    return sorted(patterns)


def generate_testbench(
    netlist: Netlist,
    vectors: int = 200,
    seed: int = 2015,
    tb_name: Optional[str] = None,
) -> str:
    """Render a self-checking testbench for a two-operand adder netlist.

    Args:
        netlist: module with input buses ``A``/``B`` and output bus ``S``
            (extra output buses are checked too).
        vectors: number of random vectors beyond the corner cases.
        seed: RNG seed for the random vectors (baked into the file).
        tb_name: module name of the testbench (default ``<dut>_tb``).

    Returns:
        Verilog source text.
    """
    check_pos_int("vectors", vectors)
    if set(netlist.input_buses) != {"A", "B"}:
        raise ValueError("testbench generation expects exactly buses A and B")
    width_a = netlist.input_buses["A"]
    width_b = netlist.input_buses["B"]

    rng = np.random.default_rng(seed)
    corners = _corner_vectors(min(width_a, width_b))
    a_vals: List[int] = []
    b_vals: List[int] = []
    for c in corners:
        for d in (0, 1, mask(width_b)):
            a_vals.append(c & mask(width_a))
            b_vals.append(d & mask(width_b))
    a_vals.extend(int(x) for x in rng.integers(0, 1 << width_a, size=vectors))
    b_vals.extend(int(x) for x in rng.integers(0, 1 << width_b, size=vectors))

    a_arr = np.array(a_vals, dtype=np.int64)
    b_arr = np.array(b_vals, dtype=np.int64)
    outputs = simulate_buses(netlist, {"A": a_arr, "B": b_arr})
    expected: List[Tuple[str, int, np.ndarray]] = [
        (bus, len(nets), outputs[bus])
        for bus, nets in sorted(netlist.output_buses.items())
    ]

    name = tb_name or f"{netlist.name}_tb"
    total = len(a_vals)
    lines: List[str] = [
        "`timescale 1ns/1ps",
        f"module {name};",
        f"  reg  [{width_a - 1}:0] a;",
        f"  reg  [{width_b - 1}:0] b;",
    ]
    for bus, width, _ in expected:
        lines.append(f"  wire [{width - 1}:0] {bus.lower()}_dut;")
    ports = [".A(a)", ".B(b)"] + [f".{bus}({bus.lower()}_dut)" for bus, _, _ in expected]
    lines.append(f"  {netlist.name} dut ({', '.join(ports)});")
    lines.append("  integer errors;")
    lines.append("  task check;")
    lines.append(f"    input [{width_a - 1}:0] av;")
    lines.append(f"    input [{width_b - 1}:0] bv;")
    for bus, width, _ in expected:
        lines.append(f"    input [{width - 1}:0] exp_{bus.lower()};")
    lines.append("    begin")
    lines.append("      a = av; b = bv; #1;")
    for bus, _, _ in expected:
        low = bus.lower()
        lines.append(f"      if ({low}_dut !== exp_{low}) begin")
        lines.append(
            f"        $display(\"MISMATCH {bus}: a=%h b=%h got=%h exp=%h\", "
            f"av, bv, {low}_dut, exp_{low});"
        )
        lines.append("        errors = errors + 1;")
        lines.append("      end")
    lines.append("    end")
    lines.append("  endtask")
    lines.append("  initial begin")
    lines.append("    errors = 0;")
    for i in range(total):
        args = [f"{width_a}'h{a_vals[i]:x}", f"{width_b}'h{b_vals[i]:x}"]
        for bus, width, values in expected:
            args.append(f"{width}'h{int(values[i]):x}")
        lines.append(f"    check({', '.join(args)});")
    lines.append(
        f"    if (errors == 0) $display(\"PASS: {total} vectors\");"
    )
    lines.append("    else $display(\"FAIL: %0d mismatches\", errors);")
    lines.append("    $finish;")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
