"""Compiled bit-sliced kernels vs the gate interpreter: bit-equality.

The compiled simulator (:mod:`repro.rtl.compile`) must be *exactly*
equivalent to :func:`repro.rtl.sim.simulate_bus` — same sums, same error
flags, bit for bit.  Three layers of proof:

* exhaustive — every SPEC_CATALOG family at N=8, all 65536 operand
  pairs, every output bus,
* property-based — hypothesis-driven random operand batches across
  families at N ∈ {12, 16, 24, 32},
* hand-built — one netlist holding every gate op, slice and index-array
  operand columns, constants and forced nets, checked net by net against
  :func:`repro.rtl.sim.simulate`,
* end-to-end — the engine's ``compiled`` backend reproduces the sampling
  backend's ErrorStats exactly, and the packed-domain entry point
  (:meth:`CompiledKernel.run_packed`) agrees with :meth:`~CompiledKernel.run`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EvalRequest, evaluate
from repro.rtl.compile import (
    compile_netlist,
    compiled_kernel,
    pack_operands,
    unpack_lanes,
)
from repro.rtl.faults import Fault, inject_fault
from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate, simulate_bus
from repro.spec.catalog import SPEC_CATALOG
from repro.verify import VerifyOptions, verify_registry

EXHAUSTIVE_WIDTH = 8

#: Widths of the hypothesis sweep — straddling one packed word's lane
#: boundary is impossible (operands, not width, fill lanes), so these
#: exercise deep carry chains instead.
PROPERTY_WIDTHS = (12, 16, 24, 32)


def _all_pairs(width):
    space = np.arange(1 << width, dtype=np.int64)
    a, b = np.meshgrid(space, space, indexing="ij")
    return a.ravel(), b.ravel()


# ---------------------------------------------------------------------------
# exhaustive equivalence at N=8
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(SPEC_CATALOG))
def test_exhaustive_bit_equality_n8(family):
    spec = SPEC_CATALOG[family](EXHAUSTIVE_WIDTH)
    netlist = spec.to_netlist()
    kernel = compile_netlist(netlist)
    a, b = _all_pairs(EXHAUSTIVE_WIDTH)
    stimulus = {"A": a, "B": b}
    outputs = kernel.run(stimulus)
    assert set(outputs) == set(netlist.output_buses)
    for bus in netlist.output_buses:
        np.testing.assert_array_equal(
            outputs[bus], simulate_bus(netlist, stimulus, bus),
            err_msg=f"{family}: compiled bus {bus} diverges from interpreter")


def test_scalar_stimulus_preserves_shape():
    spec = SPEC_CATALOG["gear_r2p2"](EXHAUSTIVE_WIDTH)
    netlist = spec.to_netlist()
    kernel = compile_netlist(netlist)
    out = kernel.run({"A": 3, "B": 5})["S"]
    assert out.shape == ()
    assert int(out) == int(simulate_bus(netlist, {"A": 3, "B": 5}, "S"))


def test_broadcast_shapes_match_interpreter():
    spec = SPEC_CATALOG["rca"](EXHAUSTIVE_WIDTH)
    netlist = spec.to_netlist()
    kernel = compile_netlist(netlist)
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    stimulus = {"A": a, "B": 7}
    out = kernel.run(stimulus)["S"]
    assert out.shape == (2, 3)
    np.testing.assert_array_equal(out, simulate_bus(netlist, stimulus, "S"))


# ---------------------------------------------------------------------------
# hypothesis property sweep at wider N
# ---------------------------------------------------------------------------

@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_batches_bit_equal(data):
    family = data.draw(st.sampled_from(sorted(SPEC_CATALOG)))
    width = data.draw(st.sampled_from(PROPERTY_WIDTHS))
    spec = SPEC_CATALOG[family](width)
    netlist = spec.to_netlist()
    kernel = compiled_kernel(spec)  # cache shares work across examples
    limit = (1 << width) - 1
    count = data.draw(st.integers(1, 80))
    a = np.array(data.draw(st.lists(st.integers(0, limit),
                                    min_size=count, max_size=count)),
                 dtype=np.int64)
    b = np.array(data.draw(st.lists(st.integers(0, limit),
                                    min_size=count, max_size=count)),
                 dtype=np.int64)
    stimulus = {"A": a, "B": b}
    outputs = kernel.run(stimulus)
    for bus in netlist.output_buses:
        np.testing.assert_array_equal(
            outputs[bus], simulate_bus(netlist, stimulus, bus))


# ---------------------------------------------------------------------------
# pack/unpack and the packed-domain entry point
# ---------------------------------------------------------------------------

@given(
    width=st.integers(1, 63),
    values=st.lists(st.integers(0, (1 << 63) - 1), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_roundtrip(width, values):
    flat = np.array([v & ((1 << width) - 1) for v in values], dtype=np.int64)
    rows = pack_operands(flat, width)
    assert rows.shape == (width, -(-flat.size // 64))
    np.testing.assert_array_equal(unpack_lanes(list(rows), flat.size), flat)


def test_pack_operands_rejects_overwide_values():
    with pytest.raises(ValueError):
        pack_operands(np.array([4], dtype=np.int64), 2)
    with pytest.raises(ValueError):
        pack_operands(np.array([1], dtype=np.int64), 65)


def test_run_packed_consistent_with_run():
    spec = SPEC_CATALOG["etaiim_l4c2"](EXHAUSTIVE_WIDTH)
    netlist = spec.to_netlist()
    kernel = compile_netlist(netlist)
    rng = np.random.default_rng(11)
    stimulus = {
        bus: rng.integers(0, 1 << width, size=300, dtype=np.int64)
        for bus, width in netlist.input_buses.items()
    }
    plain = kernel.run(stimulus)
    packed = {bus: pack_operands(stimulus[bus], width)
              for bus, width in netlist.input_buses.items()}
    lanes = kernel.run_packed(packed)
    for bus in netlist.output_buses:
        np.testing.assert_array_equal(
            unpack_lanes(list(lanes[bus]), 300), plain[bus])


def test_run_validates_bus_names_and_ranges():
    kernel = compile_netlist(SPEC_CATALOG["rca"](4).to_netlist())
    with pytest.raises(KeyError):
        kernel.run({"A": 1})
    with pytest.raises(KeyError):
        kernel.run({"A": 1, "B": 2, "C": 3})
    with pytest.raises(ValueError):
        kernel.run({"A": 16, "B": 0})


# ---------------------------------------------------------------------------
# a hand-built netlist: every op, operand layout, constant and force point
# ---------------------------------------------------------------------------

def _every_op_netlist():
    """Every :class:`Op`, with output bus ``Y`` exposing every net.

    Level 1 holds a MUX group whose select and data columns are the
    contiguous input runs ``A``/``B``/``C`` (slices into the slot array),
    3-input XNORs, 3- and 4-input NAND/NOR and constant operands.  Level 2
    re-reads ``A`` after those MUXes and feeds a second MUX group from the
    first one's contiguous outputs.  Level 3 has constant MUX selects and
    data; scattered operands anywhere become index arrays.
    """
    nl = Netlist("every_op")
    a, b, c = (nl.add_input_bus(bus, 4) for bus in "ABC")
    zero, one = nl.const(0), nl.const(1)
    mux = [nl.add_gate(Op.MUX, (a[i], b[i], c[i])) for i in range(4)]
    xnor3 = [nl.add_gate(Op.XNOR, (a[i], b[i], c[i])) for i in range(4)]
    level1 = [
        nl.add_gate(Op.NAND, (a[0], b[1], c[2])),
        nl.add_gate(Op.NOR, (a[3], b[2], c[1], a[0])),
        nl.add_gate(Op.AND, (a[0], one)),
        nl.add_gate(Op.OR, (b[0], zero)),
        nl.add_gate(Op.XOR, (c[0], one)),
        nl.add_gate(Op.NOT, (a[1],)),
        nl.add_gate(Op.BUF, (b[3],)),
    ]
    level2 = [nl.add_gate(Op.MUX, (mux[i], xnor3[i], a[i]))
              for i in range(4)]
    level2 += [
        nl.add_gate(Op.XNOR, (mux[3], xnor3[0], level1[0])),
        nl.add_gate(Op.NOR, (level1[5], mux[1], c[3])),
        nl.add_gate(Op.NAND, (level1[1], level1[2], level1[3], level1[4])),
        nl.add_gate(Op.AND, (a[1], mux[2])),
        nl.add_gate(Op.XOR, (level1[3], level1[6])),
    ]
    level3 = [nl.add_gate(Op.MUX, (one, level2[0], b[2])),
              nl.add_gate(Op.MUX, (zero, level2[1], one)),
              nl.add_gate(Op.XNOR, (level2[2], a[3], c[0]))]
    nl.set_output_bus("Y", a + b + c + [zero, one] + mux + xnor3 + level1
                      + level2 + level3)
    return nl


def _every_op_stimulus():
    """All 4096 (A, B, C) triples: 64 lane words, 12 input bits."""
    grid = np.arange(1 << 12, dtype=np.int64)
    return {"A": grid & 15, "B": (grid >> 4) & 15, "C": grid >> 8}


def _assert_nets_match(netlist, y, stimulus, label):
    """Bit ``i`` of bus ``Y`` equals the interpreter's value of net ``i``."""
    values = simulate(netlist, stimulus)
    for i, net in enumerate(netlist.output_buses["Y"]):
        np.testing.assert_array_equal(
            (y >> i) & 1, values[net].astype(np.int64),
            err_msg=f"{label}: net {net} diverges from the interpreter")


#: Stuck-at forces: inputs and constants (level 0), then every logic
#: level (``n_1``/``n_9`` at 1, ``n_18`` at 2, ``n_25`` at 3).
HAND_FORCES = [
    {"A[1]": 1}, {"C[0]": 0}, {"const1": 0}, {"const0": 1},
    {"n_1": 1}, {"n_9": 0}, {"n_18": 1}, {"n_25": 0},
    {"A[0]": 0, "n_3": 1},
]


def test_every_op_netlist_matches_interpreter():
    netlist = _every_op_netlist()
    levels = netlist.topological_levels()
    assert {g.op for level in levels for g in level} == set(Op)
    kernel = compile_netlist(netlist)
    assert kernel.levels == len(levels) - 1 == 3
    # Both operand layouts occur: a MUX group addressed by slices alone,
    # and at least one gathered (index-array) column.
    steps = [step for level in kernel._program for step in level]
    assert any(op is Op.MUX and all(type(c) is slice for c in columns)
               for op, _, _, columns in steps)
    assert any(type(c) is not slice for *_, columns in steps for c in columns)
    assert kernel.gate_count == len(netlist.logic_gates())
    stimulus = _every_op_stimulus()
    _assert_nets_match(netlist, kernel.run(stimulus)["Y"], stimulus, "clean")


@pytest.mark.parametrize("force", HAND_FORCES, ids=str)
def test_every_op_forces_match_inject_fault(force):
    netlist = _every_op_netlist()
    kernel = compile_netlist(netlist)
    faulty = netlist
    for net, stuck_at in force.items():
        faulty = inject_fault(faulty, Fault(net, stuck_at))
    stimulus = _every_op_stimulus()
    np.testing.assert_array_equal(kernel.run(stimulus, force=force)["Y"],
                                  simulate_bus(faulty, stimulus, "Y"))


def test_every_op_batch_rows_and_single_row_shape():
    netlist = _every_op_netlist()
    kernel = compile_netlist(netlist)
    stimulus = _every_op_stimulus()
    packed = {bus: pack_operands(stimulus[bus], 4) for bus in "ABC"}
    width = len(netlist.output_buses["Y"])
    batched = kernel.run_packed_batch(packed, HAND_FORCES + [{}])["Y"]
    assert batched.shape == (width, len(HAND_FORCES) + 1, 64)
    for row, force in enumerate(HAND_FORCES + [{}]):
        np.testing.assert_array_equal(
            batched[:, row], kernel.run_packed(packed, force=force)["Y"])
    single = kernel.run_packed_batch(packed, [{"A[1]": 1}])["Y"]
    assert single.shape == (width, 1, 64)
    np.testing.assert_array_equal(
        single[:, 0], kernel.run_packed(packed, force={"A[1]": 1})["Y"])
    # Forcing left no trace: a clean replay still matches the interpreter.
    y = unpack_lanes(list(kernel.run_packed(packed)["Y"]), 1 << 12)
    _assert_nets_match(netlist, y, stimulus, "after forcing")


# ---------------------------------------------------------------------------
# engine backend and conformance-oracle parity
# ---------------------------------------------------------------------------

def test_compiled_backend_matches_sampling_exhaustive():
    model = SPEC_CATALOG["gear_r2p2"](EXHAUSTIVE_WIDTH).to_model()
    sampled = evaluate(EvalRequest.exhaustive(model))
    compiled = evaluate(EvalRequest.exhaustive(model, backend="compiled"))
    assert compiled.stats == sampled.stats


def test_compiled_backend_matches_sampling_monte_carlo():
    model = SPEC_CATALOG["gda_b2c2"](12).to_model()
    sampled = evaluate(EvalRequest.monte_carlo(model, 4096, seed=13))
    compiled = evaluate(EvalRequest.monte_carlo(model, 4096, seed=13,
                                                backend="compiled"))
    assert compiled.stats == sampled.stats


def test_verify_compiled_layer_passes_exhaustively():
    reports = verify_registry(
        ["rca", "gear_r2p2"],
        options=VerifyOptions(width=EXHAUSTIVE_WIDTH, layers=("compiled",)))
    assert len(reports) == 2
    for report in reports:
        result = report.layer("compiled")
        assert result.status.label == "pass"
        assert result.exhaustive
        assert result.vectors == 1 << (2 * EXHAUSTIVE_WIDTH)
