"""Netlist graph with named buses and structural helper methods.

A :class:`Netlist` is a DAG of :class:`~repro.rtl.gates.Gate` objects, each
driving one named net.  Buses are a naming convention: the net for bit ``i``
of bus ``A`` is ``A[i]``.  Builders construct adders gate by gate; the
simulator, STA, area estimator and Verilog emitter all consume this class.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.rtl.gates import Gate, Op
from repro.utils.validation import check_pos_int

#: ASCII identifier as accepted by Verilog (and by the emitter): a leading
#: letter or underscore followed by letters, digits, underscores.  Note that
#: ``str.isalnum`` is *not* a substitute — it accepts leading digits and
#: non-ASCII letters, both of which emit invalid Verilog module names.
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def bus_net(bus: str, index: int) -> str:
    """Net name for bit ``index`` of bus ``bus``."""
    return f"{bus}[{index}]"


class Netlist:
    """A combinational netlist with named input/output buses."""

    def __init__(self, name: str) -> None:
        if not IDENTIFIER_RE.match(name):
            raise ValueError(f"netlist name must be an identifier, got {name!r}")
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self.input_buses: Dict[str, int] = {}
        self.output_buses: Dict[str, List[str]] = {}
        #: Optional (line, column) of the source construct that created each
        #: net; populated by :mod:`repro.rtl.verilog_parser` so that lint
        #: diagnostics on parsed files can point back into the .v text.
        self.source_locations: Dict[str, Tuple[int, int]] = {}
        self._uid = 0
        #: Memoised structure queries (topological order / levels), reset by
        #: :meth:`add_gate` so construction-time mutation stays safe.
        self._topo_cache: Optional[List[Gate]] = None
        self._level_cache: Optional[List[List[Gate]]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def fresh_net(self, prefix: str = "n") -> str:
        """Return a new unique internal net name."""
        self._uid += 1
        return f"{prefix}_{self._uid}"

    def add_gate(self, op: Op, inputs: Sequence[str], output: Optional[str] = None,
                 group: str = "") -> str:
        """Add a gate; returns the name of the driven net.

        All input nets must already be driven, so construction order is
        topological by design and cycles cannot arise.
        """
        for net in inputs:
            if net not in self.gates:
                raise KeyError(f"input net {net!r} is not driven by any gate")
        if output is None:
            output = self.fresh_net()
        if output in self.gates:
            raise ValueError(f"net {output!r} already driven")
        gate = Gate(output=output, op=op, inputs=tuple(inputs), group=group)
        self.gates[output] = gate
        self._topo_cache = None
        self._level_cache = None
        return output

    def add_input_bus(self, bus: str, width: int) -> List[str]:
        """Declare a primary input bus; returns its net names, LSB first."""
        check_pos_int("width", width)
        if bus in self.input_buses:
            raise ValueError(f"input bus {bus!r} already declared")
        self.input_buses[bus] = width
        nets = []
        for i in range(width):
            net = bus_net(bus, i)
            self.add_gate(Op.INPUT, (), output=net)
            nets.append(net)
        return nets

    def set_output_bus(self, bus: str, nets: Sequence[str]) -> None:
        """Declare a primary output bus driven by existing nets, LSB first."""
        if bus in self.output_buses:
            raise ValueError(f"output bus {bus!r} already declared")
        if not nets:
            raise ValueError("output bus must contain at least one net")
        for net in nets:
            if net not in self.gates:
                raise KeyError(f"output net {net!r} is not driven by any gate")
        self.output_buses[bus] = list(nets)

    def const(self, value: int) -> str:
        """Return a net tied to constant 0 or 1 (shared per netlist)."""
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value}")
        net = f"const{value}"
        if net not in self.gates:
            self.add_gate(Op.CONST1 if value else Op.CONST0, (), output=net)
        return net

    # Convenience wrappers -------------------------------------------------

    def not_(self, a: str) -> str:
        return self.add_gate(Op.NOT, (a,))

    def and_(self, *nets: str, group: str = "") -> str:
        return self.add_gate(Op.AND, nets, group=group)

    def or_(self, *nets: str, group: str = "") -> str:
        return self.add_gate(Op.OR, nets, group=group)

    def xor(self, *nets: str, group: str = "") -> str:
        return self.add_gate(Op.XOR, nets, group=group)

    def mux(self, sel: str, d0: str, d1: str, group: str = "") -> str:
        """2:1 multiplexer: output = d1 when sel else d0."""
        return self.add_gate(Op.MUX, (sel, d0, d1), group=group)

    def half_adder(self, a: str, b: str, group: str = "") -> Tuple[str, str]:
        """Return (sum, carry) nets of a half adder."""
        return self.xor(a, b, group=group), self.and_(a, b, group=group)

    def full_adder(self, a: str, b: str, cin: str, group: str = "") -> Tuple[str, str]:
        """Return (sum, carry) nets of a full adder built from two HAs."""
        s1, c1 = self.half_adder(a, b, group=group)
        s2, c2 = self.half_adder(s1, cin, group=group)
        return s2, self.or_(c1, c2, group=group)

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    def topological_order(self) -> List[Gate]:
        """Gates in evaluation order (sources first).

        Construction already guarantees acyclicity, but the order of
        ``self.gates`` is insertion order, which *is* topological; this
        method re-derives it with Kahn's algorithm as a structural sanity
        check (it raises if an invariant was somehow violated).

        The derivation is memoised per mutation state (``add_gate`` resets
        it), so per-call consumers like the simulator pay for Kahn's
        algorithm once per netlist, not once per stimulus batch.  Callers
        must treat the returned list as read-only.
        """
        if self._topo_cache is None:
            obs.count("rtl.netlist.topo_computed")
            indegree: Dict[str, int] = {net: len(g.inputs)
                                        for net, g in self.gates.items()}
            fanout: Dict[str, List[str]] = {net: [] for net in self.gates}
            for net, gate in self.gates.items():
                for src in gate.inputs:
                    fanout[src].append(net)
            ready = deque(net for net, deg in indegree.items() if deg == 0)
            order: List[Gate] = []
            while ready:
                net = ready.popleft()
                order.append(self.gates[net])
                for sink in fanout[net]:
                    indegree[sink] -= 1
                    if indegree[sink] == 0:
                        ready.append(sink)
            if len(order) != len(self.gates):
                raise RuntimeError("netlist contains a cycle or undriven net")
            self._topo_cache = order
        return self._topo_cache

    def topological_levels(self) -> List[List[Gate]]:
        """Gates grouped by logic depth (level 0 = inputs and constants).

        Gates within one level are mutually independent, so each level is
        safe to evaluate as one block in any order — the structure the
        bit-sliced kernel compiler (:mod:`repro.rtl.compile`) groups into
        its level program.  Memoised alongside :meth:`topological_order`; treat the
        result as read-only.
        """
        if self._level_cache is None:
            depth: Dict[str, int] = {}
            levels: List[List[Gate]] = []
            for gate in self.topological_order():
                level = (0 if not gate.inputs
                         else 1 + max(depth[net] for net in gate.inputs))
                depth[gate.output] = level
                while len(levels) <= level:
                    levels.append([])
                levels[level].append(gate)
            self._level_cache = levels
        return self._level_cache

    def fanout_counts(self) -> Dict[str, int]:
        """Number of gate inputs each net feeds (output-port uses excluded)."""
        counts = {net: 0 for net in self.gates}
        for gate in self.gates.values():
            for src in gate.inputs:
                counts[src] += 1
        return counts

    def output_nets(self) -> List[str]:
        """All nets referenced by output buses (may contain duplicates)."""
        nets: List[str] = []
        for bus_nets in self.output_buses.values():
            nets.extend(bus_nets)
        return nets

    def logic_gates(self) -> List[Gate]:
        """Gates that implement logic (excludes inputs and constants)."""
        return [g for g in self.gates.values() if not g.is_source]

    def stats(self) -> Dict[str, int]:
        """Simple size statistics used by reports and tests."""
        by_op: Dict[str, int] = {}
        for gate in self.logic_gates():
            by_op[gate.op.value] = by_op.get(gate.op.value, 0) + 1
        return {
            "gates": len(self.logic_gates()),
            "nets": len(self.gates),
            "inputs": sum(self.input_buses.values()),
            "outputs": sum(len(v) for v in self.output_buses.values()),
            **{f"op_{k}": v for k, v in sorted(by_op.items())},
        }

    def lint(self, **kwargs) -> "object":
        """Run the static-analysis rules over this netlist.

        Convenience wrapper around :func:`repro.rtl.lint.lint_netlist`;
        accepts the same keyword arguments and returns a
        :class:`~repro.rtl.lint.LintReport`.
        """
        from repro.rtl.lint import lint_netlist

        return lint_netlist(self, **kwargs)

    def input_nets(self, bus: str) -> List[str]:
        """Net names of a declared input bus, LSB first."""
        width = self.input_buses[bus]
        return [bus_net(bus, i) for i in range(width)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, gates={len(self.logic_gates())}, "
            f"inputs={sorted(self.input_buses)}, outputs={sorted(self.output_buses)})"
        )
