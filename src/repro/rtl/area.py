"""FPGA LUT-count estimation via greedy fanout-free cone packing.

The paper reports area as "LUTs used" after Xilinx ISE synthesis (Table I /
Table II).  We approximate technology mapping with a standard greedy
heuristic: walk the netlist in reverse topological order and merge each gate
into its unique fanout gate whenever the merged cone still fits a K-input
LUT (K = 6 for Virtex-6).  This systematically reproduces the *relative*
area ordering between adder structures — more sub-adders and wider carry
prediction mean more unmergeable cones and therefore more LUTs.

Gates tagged ``group="carry"`` model logic absorbed by the dedicated carry
chain (MUXCY/XORCY); following Xilinx conventions each carry-chain bit
occupies the LUT it is paired with, so such gates count toward the LUT that
feeds them rather than adding new LUTs.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist


def estimate_luts(netlist: Netlist, k: int = 6, absorb_carry: bool = True) -> int:
    """Estimate the number of K-input LUTs needed to map ``netlist``.

    Args:
        netlist: circuit to map.
        k: LUT input count (6 for Virtex-6, 4 for older families).
        absorb_carry: if True, gates tagged ``group="carry"`` are absorbed
            into their driver LUTs (dedicated carry-chain resources).

    Returns:
        Estimated LUT count (>= 0).
    """
    if k < 2:
        raise ValueError(f"LUT input count must be >= 2, got {k}")

    fanout = netlist.fanout_counts()
    # Nets that feed primary outputs must remain visible: mark them as having
    # an extra (external) fanout so their cones are not merged away.
    for net in netlist.output_nets():
        fanout[net] += 1

    # support[net]: set of cone leaf nets (primary inputs / cone boundaries)
    # if the gate driving `net` has been merged into its fanout, it has no
    # entry in `roots`.
    roots: Dict[str, Set[str]] = {}
    order = netlist.topological_order()
    for gate in order:
        if gate.is_source:
            continue
        if absorb_carry and gate.group == "carry":
            continue
        roots[gate.output] = set(gate.inputs)

    # Greedy merge in forward topological order: a gate with exactly one
    # fanout whose combined support fits in k inputs is folded into the
    # consumer.  We iterate until a fixed point; each pass is linear.
    changed = True
    while changed:
        changed = False
        for gate in order:
            net = gate.output
            if net not in roots:
                continue
            if fanout.get(net, 0) != 1:
                continue
            # Find the unique consumer root that references `net`.
            consumer = None
            for other in order:
                if other.output in roots and net in roots[other.output]:
                    consumer = other.output
                    break
            if consumer is None:
                continue
            merged = (roots[consumer] - {net}) | roots[net]
            if len(merged) <= k:
                roots[consumer] = merged
                del roots[net]
                changed = True
    return len(roots)
