"""Hierarchical Verilog: modular RTL of a spec's windows, and its elaborator.

The authors' released RTL is modular — one sub-adder entity instantiated k
times.  :func:`emit_hierarchical` reproduces that shape for any plain
window layout of an :class:`~repro.spec.ir.AdderSpec`: a gate-level
``<top>_sub<L>`` module per distinct window architecture and length plus a
top module that instantiates one per window, wires the operand slices,
selects the resultant bits and computes the §3.3 detection flags.

:func:`elaborate_hierarchical` parses that exact format back (module
splitting, instance stitching with part-select connections, vector
instance-output wires) into a flat :class:`~repro.rtl.netlist.Netlist`, so
the hierarchical artefact enjoys the same equivalence-check treatment as
the flat one.  The grammar is deliberately narrow — exactly what the
emitter produces — and every deviation raises
:class:`~repro.rtl.verilog_parser.VerilogSyntaxError`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.rtl.verilog import to_verilog
from repro.rtl.verilog_parser import VerilogSyntaxError, parse_verilog
from repro.spec.catalog import exact_spec
from repro.spec.ir import AdderSpec

_INSTANCE_RE = re.compile(
    r"^\s*(?P<module>[A-Za-z_]\w*)\s+(?P<inst>[A-Za-z_]\w*)\s*\("
    r"(?P<conns>[^;]*)\)\s*;\s*$"
)
_CONN_RE = re.compile(
    r"\.(?P<port>[A-Za-z_]\w*)\(\s*(?P<ref>[A-Za-z_]\w*(?:\[\d+(?::\d+)?\])?)\s*\)"
)
_VWIRE_RE = re.compile(
    r"^\s*wire\s+\[(?P<high>\d+):0\]\s+(?P<name>[A-Za-z_]\w*)\s*;\s*$"
)
_ASSIGN_RE = re.compile(r"^\s*assign\s+(?P<lhs>\S+)\s*=\s*(?P<rhs>.+);.*$")
_REF_RE = re.compile(r"^(?P<base>[A-Za-z_]\w*)(?:\[(?P<hi>\d+)(?::(?P<lo>\d+))?\])?$")


def emit_hierarchical(spec: AdderSpec, name: Optional[str] = None) -> str:
    """Render a spec's window layout as modular Verilog (sub-adders + top).

    Each distinct ``(arch, length)`` window becomes one gate-level
    sub-adder module, the exact adder of that architecture; the top module
    (named ``name``, default the spec's name) instantiates one per window,
    selects each window's resultant bits and, when the spec declares
    ``error_detect``, derives the §3.3 ``ERR`` flags from the
    prediction-bit propagates and the previous instance's carry out.

    Raises:
        ValueError: the spec has a fixed low part (truncation or a static
            window), a rectify stage, or a window with a separate carry
            generator (``gen_*`` prediction) — parts a window instance
            cannot express.
    """
    if (spec.low_bits or spec.rectify is not None
            or any(w.pred != "fused" for w in spec.windows)):
        raise ValueError(
            f"{spec.name}: hierarchical Verilog covers fused window layouts; "
            "a fixed low part, a rectify stage or a gen_* carry generator "
            "is not supported")
    top_name = name or spec.name
    windows = spec.windows
    sub_sources: List[str] = []
    sub_names: Dict[Tuple[str, int], str] = {}
    for length, arch in sorted({(w.length, w.arch) for w in windows}):
        suffix = "" if arch == "rca" else f"_{arch}"
        sub = exact_spec(length, arch,
                         name=f"{top_name}_sub{length}{suffix}").to_netlist()
        sub_names[arch, length] = sub.name
        sub_sources.append(to_verilog(sub))

    n = spec.width
    flags = len(windows) - 1 if spec.error_detect else 0
    lines: List[str] = [
        f"module {top_name} (",
        f"  input  [{n - 1}:0] A,",
        f"  input  [{n - 1}:0] B,",
        f"  output [{n}:0] S" + ("," if flags else ""),
    ]
    if flags:
        lines.append(f"  output [{flags - 1}:0] ERR")
    lines.append(");")

    # Instances with their output vectors.
    for i, w in enumerate(windows):
        lines.append(f"  wire [{w.length}:0] win{i};")
        lines.append(
            f"  {sub_names[w.arch, w.length]} u{i} (.A(A[{w.high}:{w.low}]), "
            f".B(B[{w.high}:{w.low}]), .S(win{i}));"
        )

    # Resultant-bit selection.
    for i, w in enumerate(windows):
        for bit in range(w.result_low, w.result_high + 1):
            lines.append(f"  assign S[{bit}] = win{i}[{bit - w.low}];")
    last = len(windows) - 1
    lines.append(f"  assign S[{n}] = win{last}[{windows[last].length}];")

    # Detection flags: cp_i (AND of prediction propagates) & co_{i-1}.
    for i, w in enumerate(windows[1:flags + 1], start=1):
        props = [f"(A[{w.low + j}] ^ B[{w.low + j}])"
                 for j in range(w.prediction_bits)]
        cp = " & ".join(props)
        prev = windows[i - 1]
        lines.append(
            f"  assign ERR[{i - 1}] = ({cp}) & win{i - 1}[{prev.length}];"
        )

    lines.append("endmodule")
    return "\n".join(sub_sources) + "\n" + "\n".join(lines) + "\n"


def _split_modules(source: str) -> Dict[str, str]:
    """Module name -> full module text."""
    modules: Dict[str, str] = {}
    for match in re.finditer(r"module\s+([A-Za-z_]\w*)\b.*?endmodule",
                             source, flags=re.S):
        modules[match.group(1)] = match.group(0)
    if not modules:
        raise VerilogSyntaxError("no modules found")
    return modules


def _expand_ref(ref: str, widths: Dict[str, int]) -> List[str]:
    """A connection reference -> list of bit references, MSB first."""
    m = _REF_RE.match(ref)
    if m is None:
        raise VerilogSyntaxError(f"unsupported connection reference {ref!r}")
    base, hi, lo = m.group("base"), m.group("hi"), m.group("lo")
    if hi is None:
        width = widths.get(base)
        if width is None:
            raise VerilogSyntaxError(f"unknown vector {base!r} in connection")
        return [f"{base}[{i}]" for i in range(width - 1, -1, -1)]
    if lo is None:
        return [f"{base}[{hi}]"]
    return [f"{base}[{i}]" for i in range(int(hi), int(lo) - 1, -1)]


def elaborate_hierarchical(source: str, top: Optional[str] = None) -> Netlist:
    """Flatten the emitted hierarchical format into one netlist.

    Args:
        source: Verilog text containing leaf modules plus one top module.
        top: name of the top module (default: the last module in the file).
    """
    modules = _split_modules(source)
    order = list(modules)
    top_name = top or order[-1]
    if top_name not in modules:
        raise VerilogSyntaxError(f"top module {top_name!r} not found")

    # Leaf modules (no instances of other known modules) parse flat.
    leaves: Dict[str, Netlist] = {}
    for name, text in modules.items():
        if name == top_name:
            continue
        leaves[name] = parse_verilog(text)

    body = modules[top_name].splitlines()
    result = Netlist(top_name)

    # Header: input/output declarations.
    input_widths: Dict[str, int] = {}
    output_widths: Dict[str, int] = {}
    for line in body:
        m = re.match(r"\s*(input|output)\s+\[(\d+):0\]\s+([A-Za-z_]\w*)", line)
        if m:
            direction, high, bus = m.group(1), int(m.group(2)), m.group(3)
            if direction == "input":
                input_widths[bus] = high + 1
                result.add_input_bus(bus, high + 1)
            else:
                output_widths[bus] = high + 1

    # vector wires for instance outputs: name -> width
    vector_widths: Dict[str, int] = {}
    # mapping from "vecname[i]" to a concrete net in `result`
    alias: Dict[str, str] = {}
    outputs: Dict[str, Dict[int, str]] = {b: {} for b in output_widths}

    def resolve(ref: str) -> str:
        if ref in alias:
            return alias[ref]
        m = _REF_RE.match(ref)
        if m and m.group("base") in input_widths and m.group("hi") is not None:
            return ref  # primary input bit, already a net
        raise VerilogSyntaxError(f"unresolvable reference {ref!r}")

    for line in body:
        if _VWIRE_RE.match(line):
            m = _VWIRE_RE.match(line)
            assert m is not None
            vector_widths[m.group("name")] = int(m.group("high")) + 1
            continue
        inst = _INSTANCE_RE.match(line)
        if inst and inst.group("module") in leaves:
            leaf = leaves[inst.group("module")]
            prefix = inst.group("inst")
            conns = dict(
                (c.group("port"), c.group("ref"))
                for c in _CONN_RE.finditer(inst.group("conns"))
            )
            # Map leaf input bits to outer nets.
            port_map: Dict[str, str] = {}
            widths = {**input_widths, **vector_widths}
            for bus, width in leaf.input_buses.items():
                if bus not in conns:
                    raise VerilogSyntaxError(
                        f"instance {prefix} leaves port {bus} unconnected"
                    )
                bits = _expand_ref(conns[bus], widths)
                if len(bits) != width:
                    raise VerilogSyntaxError(
                        f"width mismatch on {prefix}.{bus}"
                    )
                for i, ref in enumerate(reversed(bits)):  # LSB first
                    port_map[f"{bus}[{i}]"] = resolve(ref)
            # Replay leaf gates with prefixed names.
            rename: Dict[str, str] = dict(port_map)
            for gate in leaf.topological_order():
                if gate.op is Op.INPUT:
                    continue
                new_name = f"{prefix}__{gate.output}".replace("[", "_").replace("]", "")
                inputs = tuple(rename[n] for n in gate.inputs)
                result.add_gate(gate.op, inputs, output=new_name,
                                group=gate.group)
                rename[gate.output] = new_name
            # Bind leaf outputs to the instance's vector wire.
            for bus, nets in leaf.output_buses.items():
                if bus not in conns:
                    continue
                target = conns[bus]
                if target not in vector_widths:
                    raise VerilogSyntaxError(
                        f"instance output {prefix}.{bus} must drive a "
                        f"declared vector wire, got {target!r}"
                    )
                if vector_widths[target] != len(nets):
                    raise VerilogSyntaxError(f"width mismatch on wire {target}")
                for i, net in enumerate(nets):
                    alias[f"{target}[{i}]"] = rename[net]
            continue
        assign = _ASSIGN_RE.match(line)
        if assign:
            lhs = assign.group("lhs")
            rhs = assign.group("rhs").strip()
            m = _REF_RE.match(lhs)
            if m is None or m.group("hi") is None or m.group("lo") is not None:
                raise VerilogSyntaxError(f"unsupported assign target {lhs!r}")
            bus, index = m.group("base"), int(m.group("hi"))
            if bus not in output_widths:
                raise VerilogSyntaxError(f"assign to non-output {bus!r}")
            outputs[bus][index] = _parse_top_expr(result, rhs, resolve)
            continue

    for bus, width in output_widths.items():
        missing = [i for i in range(width) if i not in outputs[bus]]
        if missing:
            raise VerilogSyntaxError(f"output {bus} bits unassigned: {missing}")
        result.set_output_bus(bus, [outputs[bus][i] for i in range(width)])
    return result


def _parse_top_expr(netlist: Netlist, text: str, resolve) -> str:
    """Parse the top module's flag expressions: refs, ^ inside parens, &.

    Grammar (exactly what the emitter produces)::

        expr := term ("&" term)*
        term := ref | "(" ref "^" ref ")" | "(" expr ")"
    """
    tokens = re.findall(r"[A-Za-z_]\w*\[\d+\]|[()^&]", text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise VerilogSyntaxError(f"unexpected end of expression: {text!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise VerilogSyntaxError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def term() -> str:
        if peek() == "(":
            take("(")
            left = expr()
            if peek() == "^":
                take("^")
                right = expr()
                take(")")
                return netlist.xor(left, right)
            take(")")
            return left
        return resolve(take())

    def expr() -> str:
        operands = [term()]
        while peek() == "&":
            take("&")
            operands.append(term())
        if len(operands) == 1:
            return operands[0]
        return netlist.and_(*operands)

    net = expr()
    if pos != len(tokens):
        raise VerilogSyntaxError(f"trailing tokens in expression {text!r}")
    return net
