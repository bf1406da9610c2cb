"""Vectorised functional simulation of netlists.

One gate loop (:func:`_evaluate`) walks the netlist in topological order
over *lanes*, where a lane array holds one net's value for a whole batch
of stimulus vectors.  Two lane encodings share it:

* :func:`simulate` keeps one NumPy boolean array per net (one byte per
  vector) and returns every net;
* :func:`simulate_buses` packs eight vectors per byte (``np.packbits``
  planes) and returns only the requested output buses, as integer words.
  Every bus a caller needs comes from one evaluation.

Stimulus values are ints or int arrays, broadcast together.  This is how
emitted RTL is checked bit-exactly against the behavioural adder models.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist

Stimulus = Mapping[str, Union[int, np.ndarray]]

#: Bits in an int64 result word; higher output-bus bits read as zero.
_WORD_BITS = 64


def _reduce(op: Op, values) -> np.ndarray:
    acc = values[0]
    for v in values[1:]:
        if op in (Op.AND, Op.NAND):
            acc = acc & v
        elif op in (Op.OR, Op.NOR):
            acc = acc | v
        else:  # XOR / XNOR
            acc = acc ^ v
    if op in (Op.NAND, Op.NOR, Op.XNOR):
        acc = ~acc
    return acc


def _evaluate(netlist: Netlist, values: Dict[str, np.ndarray],
              zero: np.ndarray, one: np.ndarray) -> int:
    """Drive every logic net from the input lanes already in ``values``.

    Lanes are boolean arrays or packed ``uint8`` planes: both evaluate
    with the same bitwise operators, and only the constants differ.
    Returns the number of logic gates evaluated.
    """
    logic_gates = 0
    for gate in netlist.topological_order():
        if gate.op is Op.INPUT:
            if gate.output not in values:
                raise KeyError(f"input net {gate.output!r} has no stimulus")
            continue
        logic_gates += 1
        if gate.op is Op.CONST0:
            values[gate.output] = zero
        elif gate.op is Op.CONST1:
            values[gate.output] = one
        elif gate.op is Op.BUF:
            values[gate.output] = values[gate.inputs[0]]
        elif gate.op is Op.NOT:
            values[gate.output] = ~values[gate.inputs[0]]
        elif gate.op is Op.MUX:
            sel, d0, d1 = (values[n] for n in gate.inputs)
            values[gate.output] = d0 ^ (sel & (d0 ^ d1))
        else:
            values[gate.output] = _reduce(gate.op, [values[n] for n in gate.inputs])
    return logic_gates


def _input_words(netlist: Netlist, stimulus: Stimulus):
    """Validate ``stimulus``; yield ``(bus, width, word)`` per input bus."""
    for bus, width in netlist.input_buses.items():
        word = np.asarray(stimulus[bus], dtype=np.int64)
        if word.size and (word.min() < 0 or word.max() >> width != 0):
            raise ValueError(f"stimulus for bus {bus!r} does not fit in {width} bits")
        yield bus, width, word


def _check_stimulus_buses(netlist: Netlist, stimulus: Stimulus) -> Tuple[int, ...]:
    """Reject missing or unknown buses; return the broadcast vector shape."""
    missing = set(netlist.input_buses) - set(stimulus)
    if missing:
        raise KeyError(f"stimulus missing input buses: {sorted(missing)}")
    extra = set(stimulus) - set(netlist.input_buses)
    if extra:
        raise KeyError(f"stimulus names unknown buses: {sorted(extra)}")
    return np.broadcast(*(np.asarray(v) for v in stimulus.values())).shape


def _count_run(logic_gates: int, vectors: int) -> None:
    if obs.enabled():
        obs.count("rtl.sim.runs")
        obs.count("rtl.sim.gate_evals", logic_gates * vectors)


def simulate(netlist: Netlist, stimulus: Stimulus) -> Dict[str, np.ndarray]:
    """Evaluate every net of ``netlist`` for the given input-bus stimulus.

    Args:
        netlist: the circuit to simulate.
        stimulus: maps each input bus name to an int or int array whose bits
            drive the bus (bit ``i`` of the value drives net ``bus[i]``).

    Returns:
        Mapping from net name to boolean array of values.
    """
    shape = _check_stimulus_buses(netlist, stimulus)
    with obs.span("rtl.sim.simulate"):
        values: Dict[str, np.ndarray] = {}
        for bus, width, word in _input_words(netlist, stimulus):
            for i in range(width):
                values[f"{bus}[{i}]"] = np.broadcast_to(((word >> i) & 1).astype(bool), shape)
        logic_gates = _evaluate(netlist, values,
                                np.broadcast_to(np.asarray(False), shape),
                                np.broadcast_to(np.asarray(True), shape))
        _count_run(logic_gates, math.prod(shape))
    return values


def _pack_planes(word: np.ndarray, width: int, shape: Tuple[int, ...],
                 zero: np.ndarray, one: np.ndarray) -> List[np.ndarray]:
    """One packed lane plane per bit of ``word`` (bit ``i`` → plane ``i``)."""
    if word.size == 1:
        value = int(word.reshape(()))
        return [one if (value >> i) & 1 else zero for i in range(width)]
    count = math.prod(shape)
    flat = np.ascontiguousarray(np.broadcast_to(word, shape).reshape(count), dtype="<i8")
    octets = flat.view(np.uint8).reshape(count, _WORD_BITS // 8)
    planes = []
    for i in range(min(width, _WORD_BITS)):
        if i % 8 == 0:
            column = np.ascontiguousarray(octets[:, i // 8])
        # packbits reads any nonzero byte as a set lane.
        planes.append(np.packbits(column & np.uint8(1 << (i % 8))))
    return planes + [zero] * (width - len(planes))


def _unpack_bus(planes: List[np.ndarray], shape: Tuple[int, ...]) -> np.ndarray:
    """Gather an output bus's planes back into int64 words (LSB first)."""
    count = math.prod(shape)
    octets = np.zeros((count, _WORD_BITS // 8), dtype=np.uint8)
    for k in range(0, min(len(planes), _WORD_BITS), 8):
        octet = np.unpackbits(planes[k], count=count)
        for i, plane in enumerate(planes[k + 1:k + 8], 1):
            octet |= np.unpackbits(plane, count=count) << np.uint8(i)
        octets[:, k // 8] = octet
    return octets.view("<i8").astype(np.int64, copy=False).reshape(shape)


def simulate_buses(netlist: Netlist, stimulus: Stimulus,
                   buses: Optional[Iterable[str]] = None) -> Dict[str, np.ndarray]:
    """Evaluate ``netlist`` once and pack each requested output bus.

    Args:
        netlist: the circuit to simulate.
        stimulus: as for :func:`simulate`.
        buses: output bus names to return (default: every output bus, in
            sorted order).

    Returns:
        Mapping from bus name to int64 words of the broadcast stimulus
        shape; bit ``i`` of a word is net ``bus[i]`` (LSB first).
    """
    names = sorted(netlist.output_buses) if buses is None else list(buses)
    for bus in names:
        if bus not in netlist.output_buses:
            raise KeyError(f"unknown output bus {bus!r}; have {sorted(netlist.output_buses)}")
    shape = _check_stimulus_buses(netlist, stimulus)
    with obs.span("rtl.sim.simulate"):
        nbytes = -(-math.prod(shape) // 8)
        zero = np.broadcast_to(np.uint8(0), (nbytes,))
        one = np.broadcast_to(np.uint8(0xFF), (nbytes,))
        values: Dict[str, np.ndarray] = {}
        for bus, width, word in _input_words(netlist, stimulus):
            for i, plane in enumerate(_pack_planes(word, width, shape, zero, one)):
                values[f"{bus}[{i}]"] = plane
        logic_gates = _evaluate(netlist, values, zero, one)
        _count_run(logic_gates, math.prod(shape))
        return {bus: _unpack_bus([values[net] for net in netlist.output_buses[bus]], shape)
                for bus in names}


def simulate_bus(netlist: Netlist, stimulus: Stimulus, bus: str) -> np.ndarray:
    """Simulate and pack one output bus back into integer words (LSB first)."""
    return simulate_buses(netlist, stimulus, (bus,))[bus]
