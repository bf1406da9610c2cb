"""Compiled bit-sliced netlist kernels: word-level gate simulation.

The interpreter in :mod:`repro.rtl.sim` walks the gate graph once per
stimulus batch, holding one boolean array per net — one *byte* per
simulated vector per net.  This module compiles a netlist down to a
level program of NumPy ufunc calls over packed ``uint64`` words instead:

* **Packing** — operand pair ``j`` occupies *bit lane* ``j % 64`` of word
  ``j // 64``; net values are ``uint64`` arrays of ``ceil(V / 64)`` words,
  so one machine word carries 64 simulations and one NumPy bitwise op
  evaluates a gate for the whole batch at 1/8th the memory traffic of the
  boolean interpreter.
* **Level programs** — each logic level's gates
  (:meth:`~repro.rtl.netlist.Netlist.topological_levels`) are grouped by
  ``(op, arity)`` into contiguous rows of one ``uint64`` slot array; a
  group runs as one to three in-place ufunc calls whose operand columns
  are slices or index arrays — no generated code, no per-gate dispatch.
* **Caching** — :func:`compiled_kernel` memoises kernels under a
  ``compiled/v{COMPILE_VERSION}`` key derived from the spec/adder
  fingerprint (``spec/v1`` for catalog families), so byte-identical specs
  share one compiled kernel and any spec mutation — a new fingerprint —
  forces recompilation.
* **Fault forcing** — :meth:`CompiledKernel.run` accepts ``force={net:
  0|1}``: after the net's level executes, its slot is overwritten with an
  all-zeros/all-ones word.  This is exactly the stuck-at semantics of
  :func:`repro.rtl.faults.inject_fault` (the defective gate's cone stays
  intact; every consumer reads the constant).
  :meth:`CompiledKernel.run_packed_batch` gives the slot array a row
  axis and forces a different net set in each row, so a whole batch of
  faults costs a single kernel replay.

The kernel backs the ``compiled`` evaluation backend
(:mod:`repro.engine.backends`), the sixth conformance oracle (``gear
verify --layer compiled``) and the default simulator of
:func:`repro.rtl.faults.fault_simulation`.  See ``docs/compile.md`` for
the layout diagrams and measured throughput.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.rtl.sim import Stimulus

__all__ = [
    "COMPILE_VERSION",
    "WORD_BITS",
    "CompiledAdder",
    "CompiledKernel",
    "clear_kernel_cache",
    "compile_netlist",
    "compiled_kernel",
    "kernel_cache_size",
    "kernel_key",
    "lane_mask",
    "pack_operands",
    "unpack_lanes",
]

#: Version of the kernel evaluation/packing contract; part of every cache key
#: so a formulation change can never serve stale kernels.
COMPILE_VERSION = 1

#: Simulations carried per machine word (bit lanes of a ``uint64``).
WORD_BITS = 64


# --------------------------------------------------------------------------- #
# Lane packing: a vectorised 64x64 bit-matrix transpose
# --------------------------------------------------------------------------- #
#
# Packing V operands into lanes is a bit-matrix transpose: operand j's 64
# bits are one row, and lane word i of block b must hold bit i of operands
# 64b..64b+63.  The butterfly network below (Hacker's Delight 7-3,
# ``transpose64``) does each 64x64 block in 6 exchange stages, vectorised
# over all blocks at once — ~20 word-wide passes over the data instead of
# one pass per bit, and it is its own inverse, so unpacking reuses it.
# The matrix lives bit-major — shape ``(64, nwords)`` with row ``r``
# holding one word per block — so every stage slice is contiguous along
# the block axis and each NumPy op runs long unit-stride inner loops.

def _butterfly_stages():
    stages = []
    j, m = 32, np.uint64(0x00000000FFFFFFFF)
    while j:
        stages.append((j, np.uint64(j), m))
        j >>= 1
        if j:
            m = m ^ (m << np.uint64(j))
    return tuple(stages)


_STAGES = _butterfly_stages()


def _bit_transpose(mat: np.ndarray) -> np.ndarray:
    """Transpose every 64x64 bit block of a ``(64, nwords)`` uint64 array.

    Block ``b`` is column ``b``: entering with ``mat[r, b]`` = the 64-bit
    value of element ``64b + r``, it leaves with ``mat[i, b]`` = the lane
    word of bit ``i`` — and vice versa, since a transpose is an
    involution.  This is the Hacker's Delight butterfly adapted to
    LSB-first row indexing: stage ``j`` exchanges the high ``j``-bit
    field of rows with bit ``j`` clear against the low field of their
    ``+j`` partners.  Scratch buffers keep every stage allocation-free.

    Requires a C-contiguous array; operates in place and returns it.
    """
    half = mat.size // 2
    t_buf = np.empty(half, dtype=np.uint64)
    u_buf = np.empty(half, dtype=np.uint64)
    for j, shift, mask in _STAGES:
        view = mat.reshape(WORD_BITS // (2 * j), 2, j, -1)
        a = view[:, 0]
        b = view[:, 1]
        t = t_buf.reshape(a.shape)
        u = u_buf.reshape(a.shape)
        np.right_shift(a, shift, out=t)
        np.bitwise_xor(t, b, out=t)
        np.bitwise_and(t, mask, out=t)
        np.left_shift(t, shift, out=u)
        a.__ixor__(u)
        b.__ixor__(t)
    return mat


def _pack_words(words: np.ndarray) -> np.ndarray:
    """Bit-slice a flat ``uint64`` value array into the full lane matrix.

    Returns the ``(64, ceil(V / 64))`` matrix whose row ``i`` holds bit
    ``i`` of every value, value ``j`` in bit lane ``j % 64`` of word
    ``j // 64``; lanes past the last value are zero.
    """
    count = words.size
    nwords = max(1, -(-count // WORD_BITS))
    buf = np.zeros(nwords * WORD_BITS, dtype=np.uint64)
    buf[:count] = words
    return _bit_transpose(np.ascontiguousarray(buf.reshape(nwords,
                                                           WORD_BITS).T))


def _unpack_words(mat: np.ndarray, count: int) -> np.ndarray:
    """Invert :func:`_pack_words`: lane matrix back to flat uint64 values."""
    return _bit_transpose(mat).T.ravel()[:count]


def lane_mask(count: int, nwords: int) -> np.ndarray:
    """Word mask selecting the first ``count`` bit lanes.

    Packed arrays round up to whole words; lanes past ``count`` hold
    zero-stimulus padding whose gate outputs are meaningless (and which a
    forced fault *can* flip), so packed-domain comparisons must AND with
    this mask before declaring a difference.
    """
    mask = np.full(nwords, ~np.uint64(0), dtype=np.uint64)
    full, rem = divmod(count, WORD_BITS)
    if full < nwords:
        mask[full] = np.uint64((1 << rem) - 1)
        mask[full + 1:] = 0
    return mask


def pack_operands(values: np.ndarray, width: int) -> np.ndarray:
    """Bit-slice integer operands into packed lane words.

    Returns a ``(width, ceil(V / 64))`` ``uint64`` array: row ``i`` holds
    bit ``i`` of every operand, with operand ``j`` in bit lane ``j % 64``
    of word ``j // 64``.  Lanes past the last operand are zero.
    """
    if width > WORD_BITS:
        raise ValueError(f"bus width {width} exceeds {WORD_BITS} bits")
    flat = np.asarray(values, dtype=np.int64).ravel()
    if flat.size and (np.any(flat < 0) or np.any(flat >> width != 0)):
        raise ValueError(f"operands do not fit in {width} bits")
    return _pack_words(flat.view(np.uint64))[:width]


def unpack_lanes(rows: List[np.ndarray], count: int) -> np.ndarray:
    """Inverse of :func:`pack_operands` for one output bus.

    ``rows`` are packed lane words, LSB-first; the result is an ``int64``
    array of ``count`` bus values (bit ``i`` taken from ``rows[i]``).
    """
    if len(rows) > WORD_BITS:
        raise ValueError(f"bus width {len(rows)} exceeds {WORD_BITS} bits")
    nwords = rows[0].shape[0] if len(rows) else 1
    mat = np.zeros((WORD_BITS, nwords), dtype=np.uint64)
    for i, row in enumerate(rows):
        mat[i] = row
    return _unpack_words(mat, count).view(np.int64)


# --------------------------------------------------------------------------- #
# Level programs
# --------------------------------------------------------------------------- #

#: An all-ones lane word: a net stuck at 1 in every lane.
_ONES = (1 << WORD_BITS) - 1

#: Per op, the ufunc folding its operands (None: copy the one operand)
#: and whether the result is then inverted.  :func:`_run_step` evaluates
#: MUX itself.
_FOLDS = {
    Op.BUF: (None, False), Op.NOT: (None, True),
    Op.AND: (np.bitwise_and, False), Op.NAND: (np.bitwise_and, True),
    Op.OR: (np.bitwise_or, False), Op.NOR: (np.bitwise_or, True),
    Op.XOR: (np.bitwise_xor, False), Op.XNOR: (np.bitwise_xor, True),
}


def _column(slots: Sequence[int]) -> object:
    """Address ``slots``: a slice when they form one ascending run with a
    constant stride (a view of the slot array), an index array otherwise
    (gathered before its group runs)."""
    stride = slots[1] - slots[0] if len(slots) > 1 else 1
    if stride > 0 and all(b - a == stride for a, b in zip(slots, slots[1:])):
        return slice(slots[0], slots[-1] + 1, stride)
    return np.array(slots, dtype=np.intp)


def _run_step(v: np.ndarray, gather: np.ndarray, op: Op, lo: int, hi: int,
              columns: Tuple[object, ...]) -> None:
    """Evaluate one gate group into ``v[lo:hi]`` in place.

    Index-array columns are first copied into consecutive rows of
    ``gather``.  Slice operands are views into ``v``, so nothing here may
    write to an operand.
    """
    out = v[lo:hi]
    operands, row = [], 0
    for column in columns:
        if type(column) is slice:
            operands.append(v[column])
        else:  # mode="clip" writes straight into gather; "raise" buffers
            operands.append(np.take(v, column, axis=0, mode="clip",
                                    out=gather[row:row + len(column)]))
            row += len(column)
    if op is Op.MUX:  # d0 ^ (sel & (d0 ^ d1)), built up in the output
        sel, d0, d1 = operands
        np.bitwise_xor(d0, d1, out=out)
        np.bitwise_and(out, sel, out=out)
        np.bitwise_xor(out, d0, out=out)
        return
    fold, invert = _FOLDS[op]
    if fold is None:
        np.copyto(out, operands[0])
    else:
        fold(operands[0], operands[1], out=out)
        for operand in operands[2:]:
            fold(out, operand, out=out)
    if invert:
        np.invert(out, out=out)


def _bus_offsets(widths: Dict[str, int]) -> Optional[Dict[str, int]]:
    """Bit offsets packing several buses into one 64-bit word, if they fit."""
    if sum(widths.values()) > WORD_BITS:
        return None
    offsets, position = {}, 0
    for bus, width in widths.items():
        offsets[bus] = position
        position += width
    return offsets


class CompiledKernel:
    """A netlist compiled to a level program over one ``uint64`` slot array.

    Instances are built by :func:`compile_netlist` (the constructor is
    the compiler); simulation entry points are :meth:`run` (all output
    buses) and :meth:`run_bus`.
    """

    def __init__(self, netlist: Netlist, key: str = "") -> None:
        self.name = netlist.name
        self.key = key
        self.input_buses = dict(netlist.input_buses)
        levels = netlist.topological_levels()
        # Level 0: each input bus as one slot run, then the constants.
        slot_of: Dict[str, int] = {}
        self._input_slots: Dict[str, slice] = {}
        for bus in self.input_buses:
            lo = len(slot_of)
            for net in netlist.input_nets(bus):
                slot_of[net] = len(slot_of)
            self._input_slots[bus] = slice(lo, len(slot_of))
        self._const_slots: List[Tuple[int, int]] = []
        for gate in levels[0] if levels else ():
            if gate.op is not Op.INPUT:
                self._const_slots.append(
                    (len(slot_of), _ONES if gate.op is Op.CONST1 else 0))
                slot_of[gate.output] = len(slot_of)
        self._force_points = {net: (0, slot) for net, slot in slot_of.items()}

        # Levels 1+: one step ``(op, lo, hi, operand columns)`` per
        # ``(op, arity)`` group, writing slots ``lo..hi-1``.
        program: List[Tuple[Tuple, ...]] = []
        self.gate_count = self._n_gather = 0
        for level, gates in enumerate(levels[1:], start=1):
            groups: Dict[Tuple[Op, int], List] = {}
            for gate in gates:
                operands = tuple(slot_of[net] for net in gate.inputs)
                groups.setdefault((gate.op, len(operands)), []).append(
                    (operands, gate.output))
            steps = []
            for (op, _), members in groups.items():
                # Ordering a group by its operand slots makes its columns
                # ascending, so regular structures address them as slices.
                members.sort()
                lo = len(slot_of)
                for _, net in members:
                    self._force_points[net] = (level, len(slot_of))
                    slot_of[net] = len(slot_of)
                columns = tuple(_column(column) for column in
                                zip(*(operands for operands, _ in members)))
                self._n_gather = max(self._n_gather, sum(
                    len(c) for c in columns if type(c) is not slice))
                steps.append((op, lo, len(slot_of), columns))
                self.gate_count += len(members)
            program.append(tuple(steps))
        self._program = tuple(program)
        self._n_slots = len(slot_of)
        self.output_buses = {bus: tuple(slot_of[net] for net in nets)
                             for bus, nets in netlist.output_buses.items()}
        # Bus → bit offset inside the shared 64-bit transpose matrix.  When
        # all input (output) buses fit in one word, packing (unpacking)
        # them costs a single butterfly instead of one per bus.
        self._in_offsets = _bus_offsets(self.input_buses)
        self._out_offsets = _bus_offsets(
            {bus: len(slots) for bus, slots in self.output_buses.items()})

    @property
    def levels(self) -> int:
        """Number of logic levels (level program entries)."""
        return len(self._program)

    def run(self, stimulus: Stimulus,
            force: Optional[Mapping[str, int]] = None
            ) -> Dict[str, np.ndarray]:
        """Evaluate every output bus for the given input-bus stimulus.

        Mirrors :func:`repro.rtl.sim.simulate_bus` semantics bus-wise:
        stimulus values are ints or int arrays (broadcast together), the
        result maps each output bus to packed integer words of the
        broadcast shape.  ``force`` ties nets to stuck-at constants after
        their level evaluates (see the module docstring).
        """
        missing = set(self.input_buses) - set(stimulus)
        if missing:
            raise KeyError(f"stimulus missing input buses: {sorted(missing)}")
        extra = set(stimulus) - set(self.input_buses)
        if extra:
            raise KeyError(f"stimulus names unknown buses: {sorted(extra)}")

        with obs.span("rtl.compile.run"):
            arrays = {bus: np.asarray(stimulus[bus], dtype=np.int64)
                      for bus in self.input_buses}
            shape = np.broadcast_shapes(*(a.shape for a in arrays.values()))
            count = math.prod(shape)
            nwords = max(1, -(-count // WORD_BITS))

            flats: Dict[str, np.ndarray] = {}
            for bus, width in self.input_buses.items():
                word = np.broadcast_to(arrays[bus], shape).ravel()
                if word.size and (np.any(word < 0)
                                  or np.any(word >> width != 0)):
                    raise ValueError(
                        f"stimulus for bus {bus!r} does not fit in "
                        f"{width} bits")
                flats[bus] = word.view(np.uint64)

            packed: Dict[str, np.ndarray] = {}
            if self._in_offsets is not None and len(flats) > 1:
                combined = np.zeros(count, dtype=np.uint64)
                for bus, offset in self._in_offsets.items():
                    combined |= flats[bus] << np.uint64(offset)
                mat = _pack_words(combined)
                for bus, offset in self._in_offsets.items():
                    packed[bus] = mat[offset:offset + self.input_buses[bus]]
            else:
                for bus, width in self.input_buses.items():
                    packed[bus] = _pack_words(flats[bus])[:width]

            lanes = self._evaluate(packed, count, [force or {}])

            if self._out_offsets is not None:
                mat = np.zeros((WORD_BITS, nwords), dtype=np.uint64)
                for bus, offset in self._out_offsets.items():
                    mat[offset:offset + len(lanes[bus])] = lanes[bus][:, 0]
                values = _unpack_words(mat, count)
                outputs = {}
                for bus, offset in self._out_offsets.items():
                    width = len(self.output_buses[bus])
                    mask = np.uint64((1 << width) - 1)
                    outputs[bus] = ((values >> np.uint64(offset)) & mask
                                    ).view(np.int64).reshape(shape)
            else:
                outputs = {
                    bus: unpack_lanes(list(rows[:, 0]), count).reshape(shape)
                    for bus, rows in lanes.items()
                }
        return outputs

    def run_packed(self, packed: Mapping[str, np.ndarray],
                   force: Optional[Mapping[str, int]] = None
                   ) -> Dict[str, np.ndarray]:
        """Evaluate entirely in the packed-lane domain.

        ``packed`` maps each input bus to its ``(width, nwords)`` lane
        matrix (see :func:`pack_operands`); the result maps each output
        bus to a freshly stacked ``(width, nwords)`` lane matrix.  This
        skips both transposes, which is what lets fault campaigns and
        repeated sweeps pay for packing once and reuse it across every
        kernel invocation.
        """
        inputs, nwords = self._packed_inputs(packed)
        lanes = self._evaluate(inputs, nwords * WORD_BITS, [force or {}])
        return {bus: rows[:, 0] for bus, rows in lanes.items()}

    def run_packed_batch(self, packed: Mapping[str, np.ndarray],
                         force_rows: Sequence[Mapping[str, int]]
                         ) -> Dict[str, np.ndarray]:
        """One packed replay forcing a different net set in every row.

        Row ``r`` evaluates ``packed`` with ``force_rows[r]`` tied to its
        stuck-at constants — the result of ``run_packed(packed,
        force=force_rows[r])`` — but the whole batch runs the kernel
        once.  Each output bus comes back as a ``(width, rows, nwords)``
        lane array.  Memory grows with ``slots * rows * nwords``, so
        callers bound the batch.
        """
        inputs, nwords = self._packed_inputs(packed)
        return self._evaluate(inputs, nwords * WORD_BITS, force_rows)

    def _packed_inputs(self, packed: Mapping[str, np.ndarray]
                       ) -> Tuple[Dict[str, np.ndarray], int]:
        """Validated ``(width, nwords)`` input lane matrices and ``nwords``."""
        missing = set(self.input_buses) - set(packed)
        if missing:
            raise KeyError(f"packed stimulus missing input buses: "
                           f"{sorted(missing)}")
        rows: Dict[str, np.ndarray] = {}
        nwords = None
        for bus, width in self.input_buses.items():
            mat = np.asarray(packed[bus], dtype=np.uint64)
            if mat.ndim != 2 or mat.shape[0] != width:
                raise ValueError(
                    f"packed bus {bus!r} must have shape ({width}, nwords), "
                    f"got {mat.shape}")
            if nwords is None:
                nwords = mat.shape[1]
            elif mat.shape[1] != nwords:
                raise ValueError("packed input buses disagree on word count")
            rows[bus] = mat
        return rows, nwords or 1

    def _evaluate(self, packed: Mapping[str, np.ndarray], count: int,
                  force_rows: Sequence[Mapping[str, int]]
                  ) -> Dict[str, np.ndarray]:
        """Run every level over a ``(slots, rows, nwords)`` slot array.

        Row ``r`` carries the stuck-at nets of ``force_rows[r]``: after a
        forced net's level runs, ``v[slot, r]`` becomes all-zeros or
        all-ones, one fancy-indexed assignment per level.  Returns each
        output bus as a fresh ``(width, rows, nwords)`` lane array.
        """
        plan: Dict[int, Tuple[List[int], List[int], List[List[int]]]] = {}
        for row, force in enumerate(force_rows):
            for net, stuck_at in force.items():
                if net not in self._force_points:
                    raise KeyError(f"no net {net!r} in compiled netlist")
                if stuck_at not in (0, 1):
                    raise ValueError(
                        f"stuck_at must be 0 or 1, got {stuck_at}")
                level, slot = self._force_points[net]
                slots, lanes, words = plan.setdefault(level, ([], [], []))
                slots.append(slot)
                lanes.append(row)
                words.append([_ONES if stuck_at else 0])
        nwords = max(1, -(-count // WORD_BITS))
        rows = len(force_rows)
        v = np.empty((self._n_slots, rows, nwords), dtype=np.uint64)
        gather = np.empty((self._n_gather, rows, nwords), dtype=np.uint64)
        for bus, mat in packed.items():
            v[self._input_slots[bus]] = mat[:, None]
        for slot, value in self._const_slots:
            v[slot] = value
        for level, steps in enumerate(((),) + self._program):
            for op, lo, hi, columns in steps:
                _run_step(v, gather, op, lo, hi, columns)
            if level in plan:
                slots, lanes, words = plan[level]
                v[slots, lanes] = words

        if obs.enabled():
            obs.count("rtl.compile.runs")
            obs.count("rtl.compile.gate_evals",
                      self.gate_count * rows * count)
            obs.count("rtl.compile.word_ops",
                      self.gate_count * rows * nwords)
        return {bus: np.take(v, slots, axis=0)
                for bus, slots in self.output_buses.items()}

    def run_bus(self, stimulus: Stimulus, bus: str,
                force: Optional[Mapping[str, int]] = None) -> np.ndarray:
        """Evaluate and return one output bus as packed integer words."""
        if bus not in self.output_buses:
            raise KeyError(f"unknown output bus {bus!r}; "
                           f"have {sorted(self.output_buses)}")
        return self.run(stimulus, force=force)[bus]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompiledKernel({self.name!r}, gates={self.gate_count}, "
                f"levels={self.levels}, slots={self._n_slots})")


def compile_netlist(netlist: Netlist, key: str = "") -> CompiledKernel:
    """Compile one netlist to a fresh :class:`CompiledKernel` (uncached).

    Most callers want :func:`compiled_kernel`, which adds the
    fingerprint-keyed cache; this is the pure compilation step.
    """
    with obs.span("rtl.compile.build"):
        kernel = CompiledKernel(netlist, key)
        obs.count("rtl.compile.compiled")
        obs.count("rtl.compile.compiled_gates", kernel.gate_count)
    return kernel


# --------------------------------------------------------------------------- #
# The fingerprint-keyed kernel cache
# --------------------------------------------------------------------------- #

#: Process-wide compiled kernels by :func:`kernel_key`.  Worker processes
#: of the engine pool fill their own copy on first use, so kernels are
#: compiled once per (fingerprint, process), never per shard.
_KERNEL_CACHE: Dict[str, CompiledKernel] = {}


def kernel_key(source: object) -> str:
    """Cache key of a spec or adder model: the fingerprint, version-tagged.

    Specs and spec-derived models share ``spec/v1`` fingerprints, so a
    catalog family compiles exactly once however it reaches the cache;
    bespoke models key on their own fingerprint.
    """
    fingerprint = getattr(source, "fingerprint", None)
    if callable(fingerprint):
        fingerprint = fingerprint()
    if not isinstance(fingerprint, str) or not fingerprint:
        raise TypeError(
            f"{type(source).__name__} has no fingerprint to key a compiled "
            "kernel on; use compile_netlist() for raw netlists")
    return f"compiled/v{COMPILE_VERSION}:{fingerprint}"


def compiled_kernel(source: object) -> CompiledKernel:
    """The cached compiled kernel of an :class:`~repro.spec.ir.AdderSpec`
    or netlist-bearing :class:`~repro.adders.base.AdderModel`.

    Keyed by :func:`kernel_key`: byte-identical specs (equal fingerprints)
    share one kernel object; any mutation — a
    ``dataclasses.replace`` producing a new fingerprint — misses the cache
    and recompiles.  Raises :class:`ValueError` when the source has no
    gate-level netlist.
    """
    key = kernel_key(source)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        obs.count("rtl.compile.cache_hits")
        return kernel
    obs.count("rtl.compile.cache_misses")
    build = getattr(source, "to_netlist", None) or getattr(
        source, "build_netlist", None)
    netlist = build() if callable(build) else None
    if netlist is None:
        raise ValueError(
            f"adder {getattr(source, 'name', type(source).__name__)!r} has "
            "no gate-level netlist to compile")
    kernel = compile_netlist(netlist, key=key)
    _KERNEL_CACHE[key] = kernel
    return kernel


def clear_kernel_cache() -> None:
    """Drop every cached kernel (test isolation hook)."""
    _KERNEL_CACHE.clear()


def kernel_cache_size() -> int:
    """Number of kernels currently cached in this process."""
    return len(_KERNEL_CACHE)


# --------------------------------------------------------------------------- #
# The engine-facing adder view
# --------------------------------------------------------------------------- #

class CompiledAdder:
    """An adder model whose ``add()`` runs the compiled netlist kernel.

    This is what the engine's ``compiled`` backend substitutes for the
    behavioural model inside a sampling request: same name and width, the
    analytic error bounds delegated to the wrapped model, but every sum
    computed by bit-sliced gate-level simulation.  The instance is
    picklable (it carries only the wrapped model); each engine pool
    worker compiles or reuses the kernel from its own process cache.
    """

    def __init__(self, model: object) -> None:
        compiled_kernel(model)  # ValueError when there is no netlist
        self.model = model
        self.width = model.width
        self.name = model.name
        # Expose the analytic error bound only when the wrapped model has
        # one: the engine probes with getattr and calls whatever it finds.
        bound = getattr(model, "max_error_distance", None)
        if callable(bound):
            self.max_error_distance = bound

    @property
    def out_width(self) -> int:
        return self.model.out_width

    def add(self, a, b):
        """Sum bus ``S`` of the compiled netlist for the operand batch."""
        return compiled_kernel(self.model).run({"A": a, "B": b})["S"]

    def error_distance(self, a, b):
        diff = self.add(a, b) - (np.asarray(a, dtype=np.int64)
                                 + np.asarray(b, dtype=np.int64))
        return np.abs(diff)

    def fingerprint(self) -> str:
        """The kernel cache key — disjoint from the behavioural model's
        fingerprint, so compiled shard partials can never collide with
        sampled ones in the engine cache."""
        return kernel_key(self.model)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledAdder({self.model!r})"
