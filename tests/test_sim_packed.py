"""Differential tests: packed-lane ``simulate_buses`` vs bool-lane simulation.

``reference_simulate_bus`` is a frozen copy of the interpreter's original
single-bus path: one boolean array per net, ``np.where`` for MUX, and the
bus packed with int64 shifts.  ``simulate_buses`` evaluates the same
netlists on ``np.packbits`` planes and must return the same words, with
the same shapes and dtypes, and raise the same errors.
"""

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.rtl.gates import GATE_ARITY, Op
from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate, simulate_bus, simulate_buses
from repro.spec.catalog import gear_spec
from repro.verify import operand_vectors, registry_adder
from repro.verify.oracles import check_behavioural, check_compiled, check_verilog
from repro.verify.report import LayerStatus


def _reference_reduce(op, values):
    acc = values[0]
    for v in values[1:]:
        if op in (Op.AND, Op.NAND):
            acc = acc & v
        elif op in (Op.OR, Op.NOR):
            acc = acc | v
        else:
            acc = acc ^ v
    if op in (Op.NAND, Op.NOR, Op.XNOR):
        acc = ~acc
    return acc


def reference_simulate(netlist: Netlist, stimulus) -> Dict[str, np.ndarray]:
    missing = set(netlist.input_buses) - set(stimulus)
    if missing:
        raise KeyError(f"stimulus missing input buses: {sorted(missing)}")
    extra = set(stimulus) - set(netlist.input_buses)
    if extra:
        raise KeyError(f"stimulus names unknown buses: {sorted(extra)}")
    shape = np.broadcast(*(np.asarray(v) for v in stimulus.values())).shape
    values: Dict[str, np.ndarray] = {}
    for bus, width in netlist.input_buses.items():
        word = np.asarray(stimulus[bus], dtype=np.int64)
        if np.any(word < 0) or np.any(word >> width != 0):
            raise ValueError(f"stimulus for bus {bus!r} does not fit in {width} bits")
        for i in range(width):
            values[f"{bus}[{i}]"] = np.broadcast_to(((word >> i) & 1).astype(bool), shape)
    for gate in netlist.topological_order():
        if gate.op is Op.INPUT:
            if gate.output not in values:
                raise KeyError(f"input net {gate.output!r} has no stimulus")
            continue
        if gate.op is Op.CONST0:
            values[gate.output] = np.broadcast_to(np.asarray(False), shape)
        elif gate.op is Op.CONST1:
            values[gate.output] = np.broadcast_to(np.asarray(True), shape)
        elif gate.op is Op.BUF:
            values[gate.output] = values[gate.inputs[0]]
        elif gate.op is Op.NOT:
            values[gate.output] = ~values[gate.inputs[0]]
        elif gate.op is Op.MUX:
            sel, d0, d1 = (values[n] for n in gate.inputs)
            values[gate.output] = np.where(sel, d1, d0)
        else:
            values[gate.output] = _reference_reduce(
                gate.op, [values[n] for n in gate.inputs])
    return values


def reference_simulate_bus(netlist: Netlist, stimulus, bus: str) -> np.ndarray:
    if bus not in netlist.output_buses:
        raise KeyError(f"unknown output bus {bus!r}; have {sorted(netlist.output_buses)}")
    values = reference_simulate(netlist, stimulus)
    nets = netlist.output_buses[bus]
    word = np.zeros(values[nets[0]].shape, dtype=np.int64)
    for i, net in enumerate(nets):
        word |= values[net].astype(np.int64) << i
    return word


LOGIC_OPS = [op for op in Op if op is not Op.INPUT]
VECTOR_COUNTS = [1, 7, 8, 9, 65]


@st.composite
def netlists(draw):
    nl = Netlist("rand")
    nets = []
    for bus in draw(st.sampled_from([("A",), ("A", "B")])):
        nets += nl.add_input_bus(bus, draw(st.integers(1, 5)))
    for op in draw(st.lists(st.sampled_from(LOGIC_OPS), min_size=1, max_size=24)):
        arity = GATE_ARITY[op]
        if arity is None:
            arity = draw(st.integers(2, 4))
        inputs = [draw(st.sampled_from(nets)) for _ in range(arity)]
        nets.append(nl.add_gate(op, inputs))
    for name in ("S", "ERR", "Q")[:draw(st.integers(1, 3))]:
        nl.set_output_bus(name, draw(st.lists(st.sampled_from(nets),
                                              min_size=1, max_size=10)))
    return nl


def _operand(draw, width, shape):
    if shape is None:
        return draw(st.integers(0, (1 << width) - 1))
    flat = draw(st.lists(st.integers(0, (1 << width) - 1),
                         min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.array(flat, dtype=np.int64).reshape(shape)


@st.composite
def stimuli(draw, nl):
    """Scalar, flat, or mutually broadcast stimulus over ``VECTOR_COUNTS``."""
    count = draw(st.sampled_from(VECTOR_COUNTS))
    layout = draw(st.sampled_from(["scalar", "flat", "broadcast"]))
    stimulus = {}
    for index, (bus, width) in enumerate(sorted(nl.input_buses.items())):
        if layout == "scalar" or (layout == "flat" and draw(st.booleans())):
            shape = None
        elif layout == "flat":
            shape = (count,)
        else:
            shape = (count, 1) if index == 0 else (1, 3)
        stimulus[bus] = _operand(draw, width, shape)
    return stimulus


def _assert_same_words(nl, stimulus, buses):
    got = simulate_buses(nl, stimulus, buses)
    assert list(got) == list(buses)
    for bus in buses:
        want = reference_simulate_bus(nl, stimulus, bus)
        assert got[bus].dtype == want.dtype
        assert got[bus].shape == want.shape
        np.testing.assert_array_equal(got[bus], want)
        single = simulate_bus(nl, stimulus, bus)
        assert single.shape == want.shape
        np.testing.assert_array_equal(single, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packed_buses_match_bool_lanes(data):
    nl = data.draw(netlists())
    stimulus = data.draw(stimuli(nl))
    _assert_same_words(nl, stimulus, sorted(nl.output_buses))
    # A requested subset comes back in the requested order.
    buses = data.draw(st.permutations(sorted(nl.output_buses)))
    _assert_same_words(nl, stimulus, buses[:max(1, len(buses) - 1)])


@pytest.mark.parametrize("count", VECTOR_COUNTS)
def test_every_op_at_every_padding_count(count):
    nl = Netlist("ops")
    a = nl.add_input_bus("A", 3)
    outs = [nl.add_gate(op, a[:GATE_ARITY[op] if GATE_ARITY[op] is not None else 3])
            for op in LOGIC_OPS]
    nl.set_output_bus("S", outs)
    words = np.arange(count, dtype=np.int64) % 8
    _assert_same_words(nl, {"A": words}, ["S"])
    _assert_same_words(nl, {"A": 5}, ["S"])


def test_wide_buses_keep_the_int64_word_semantics():
    # Input bits past 63 read as zero; output bits past 63 are dropped and
    # bit 63 lands in the int64 sign bit, as the shift-packed words do.
    nl = Netlist("wide")
    a = nl.add_input_bus("A", 70)
    nl.set_output_bus("S", a + [nl.not_(a[0])] * 3)
    nl.set_output_bus("Q", [nl.not_(a[0])] * 64)
    stimulus = {"A": np.array([0, 1, (1 << 62) + 5], dtype=np.int64)}
    _assert_same_words(nl, stimulus, ["S", "Q"])


def test_registry_netlist_all_buses_one_run():
    nl = gear_spec(8, 2, 2).to_netlist()
    rng = np.random.default_rng(3)
    stimulus = {bus: rng.integers(0, 1 << w, size=1000, dtype=np.int64)
                for bus, w in nl.input_buses.items()}
    with obs.collecting() as col:
        got = simulate_buses(nl, stimulus)
    counters = col.snapshot().counters
    assert counters["rtl.sim.runs"] == 1
    logic = sum(g.op is not Op.INPUT for g in nl.gates.values())
    assert counters["rtl.sim.gate_evals"] == logic * 1000
    assert sorted(got) == sorted(nl.output_buses) and len(got) >= 2
    _assert_same_words(nl, stimulus, sorted(nl.output_buses))
    bools = simulate(nl, stimulus)
    for net, lane in reference_simulate(nl, stimulus).items():
        assert bools[net].dtype == np.bool_
        np.testing.assert_array_equal(bools[net], lane)


def _error(fn, *args):
    try:
        fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


@pytest.mark.parametrize("stimulus, bus", [
    ({}, "S"),
    ({"A": 1}, "S"),
    ({"A": 1, "B": 1, "C": 0}, "S"),
    ({"A": 4, "B": 0}, "S"),
    ({"A": -1, "B": 0}, "S"),
    ({"A": np.array([1, 9]), "B": 0}, "S"),
    ({"A": 1, "B": np.array([0, -2])}, "S"),
    ({"A": np.zeros(2, dtype=np.int64), "B": np.zeros(3, dtype=np.int64)}, "S"),
    ({"A": 1, "B": 1}, "Q"),
])
def test_errors_match_the_bool_lane_messages(stimulus, bus):
    nl = Netlist("err")
    a = nl.add_input_bus("A", 2)
    b = nl.add_input_bus("B", 2)
    nl.set_output_bus("S", [nl.xor(a[0], b[0]), nl.mux(a[1], b[0], b[1])])
    want = _error(reference_simulate_bus, nl, stimulus, bus)
    assert _error(simulate_bus, nl, stimulus, bus) == want
    assert _error(simulate_buses, nl, stimulus, [bus]) == want


def test_undriven_input_net_error_matches():
    nl = Netlist("orphan")
    a = nl.add_input_bus("A", 1)
    stray = nl.add_gate(Op.INPUT, (), output="stray")
    nl.set_output_bus("S", [nl.and_(a[0], stray)])
    want = _error(reference_simulate_bus, nl, {"A": 1}, "S")
    assert _error(simulate_buses, nl, {"A": 1}) == want


@pytest.mark.parametrize("check, runs", [
    (check_behavioural, 1),
    (check_compiled, 1),
    (lambda model, vectors: check_verilog(model), 2),
])
def test_oracles_simulate_each_netlist_once(check, runs):
    model = registry_adder("gear_r2p2", 8)
    assert set(model.build_netlist().output_buses) == {"S", "ERR"}
    with obs.collecting() as col:
        result = check(model, operand_vectors(8))
    assert result.status is LayerStatus.PASS
    assert col.snapshot().counters["rtl.sim.runs"] == runs
