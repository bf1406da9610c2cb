"""Compiled bit-sliced netlist kernels: word-level gate simulation.

The interpreter in :mod:`repro.rtl.sim` walks the gate graph once per
stimulus batch, holding one boolean array per net — one *byte* per
simulated vector per net.  This module compiles a netlist down to flat
NumPy code over packed ``uint64`` words instead:

* **Packing** — operand pair ``j`` occupies *bit lane* ``j % 64`` of word
  ``j // 64``; net values are ``uint64`` arrays of ``ceil(V / 64)`` words,
  so one machine word carries 64 simulations and one NumPy bitwise op
  evaluates a gate for the whole batch at 1/8th the memory traffic of the
  boolean interpreter.
* **Codegen** — gates are grouped by logic depth
  (:meth:`~repro.rtl.netlist.Netlist.topological_levels`) and each level
  is emitted as one straight-line Python function (``_level_1(v): v[8] =
  v[2] & v[5]; ...``) over a flat slot array — no dict lookups, no
  per-gate dispatch, no graph walk at simulation time.
* **Caching** — :func:`compiled_kernel` memoises kernels under a
  ``compiled/v{COMPILE_VERSION}`` key derived from the spec/adder
  fingerprint (``spec/v1`` for catalog families), so byte-identical specs
  share one compiled function and any spec mutation — a new fingerprint —
  forces recompilation.
* **Fault forcing** — :meth:`CompiledKernel.run` accepts ``force={net:
  0|1}``: after the net's level executes, its slot is overwritten with an
  all-zeros/all-ones word.  This is exactly the stuck-at semantics of
  :func:`repro.rtl.faults.inject_fault` (the defective gate's cone stays
  intact; every consumer reads the constant).
  :meth:`CompiledKernel.run_packed_batch` forces a different net set in
  each *row* of a ``(rows, nwords)`` lane array, so a whole batch of
  faults costs a single kernel replay.

The kernel is wired into the rest of the stack as

* the ``compiled`` evaluation backend
  (:mod:`repro.engine.backends`; ``EvalRequest(backend="compiled")``),
* the sixth conformance oracle (``gear verify --layer compiled``:
  compiled vs interpreted simulation, exact bit-equality),
* the default, fault-parallel simulator of
  :func:`repro.rtl.faults.fault_simulation` (``simulator="compiled"``).

See ``docs/compile.md`` for the layout diagrams and measured throughput.
"""

from __future__ import annotations

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

#: Version of the kernel codegen/packing contract; part of every cache key
#: so a formulation change can never serve stale kernels.
COMPILE_VERSION = 1

#: Simulations carried per machine word (bit lanes of a ``uint64``).
WORD_BITS = 64

#: Little-endian uint64 — the one byte order the lane packing is defined
#: in, so packed words mean the same thing on every host.
_LE_WORD = np.dtype("<u8")


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
# Codegen
# --------------------------------------------------------------------------- #

def _gate_expression(op: Op, operands: List[str]) -> str:
    """The packed-word NumPy expression evaluating one gate."""
    if op is Op.BUF:
        return operands[0]
    if op is Op.NOT:
        return f"~{operands[0]}"
    if op is Op.MUX:
        sel, d0, d1 = operands
        return f"({sel} & {d1}) | (~{sel} & {d0})"
    joiner = {Op.AND: " & ", Op.NAND: " & ",
              Op.OR: " | ", Op.NOR: " | ",
              Op.XOR: " ^ ", Op.XNOR: " ^ "}[op]
    body = joiner.join(operands)
    if op in (Op.NAND, Op.NOR, Op.XNOR):
        return f"~({body})"
    return body


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
    """A netlist compiled to per-level straight-line bit-sliced functions.

    Instances are built by :func:`compile_netlist`; simulation entry
    points are :meth:`run` (all output buses) and :meth:`run_bus`.  The
    generated module source is kept on :attr:`source` for inspection.
    """

    def __init__(self, name: str, key: str,
                 input_buses: Dict[str, int],
                 input_slots: Dict[str, Tuple[int, ...]],
                 output_buses: Dict[str, Tuple[int, ...]],
                 const_slots: Tuple[Tuple[int, int], ...],
                 force_points: Dict[str, Tuple[int, int]],
                 levels: Tuple[object, ...],
                 n_slots: int, gate_count: int, source: str) -> None:
        self.name = name
        self.key = key
        self.input_buses = dict(input_buses)
        self._input_slots = input_slots
        self.output_buses = {bus: tuple(slots)
                             for bus, slots in output_buses.items()}
        self._const_slots = const_slots
        self._force_points = force_points
        self._levels = levels
        self._n_slots = n_slots
        self.gate_count = gate_count
        self.source = source
        # Bus → bit offset inside the shared 64-bit transpose matrix.  When
        # all input (output) buses fit in one word, packing (unpacking)
        # them costs a single butterfly instead of one per bus.
        self._in_offsets = _bus_offsets(
            {bus: width for bus, width in self.input_buses.items()})
        self._out_offsets = _bus_offsets(
            {bus: len(slots) for bus, slots in self.output_buses.items()})

    @property
    def levels(self) -> int:
        """Number of logic levels (compiled functions)."""
        return len(self._levels)

    def _force_plan(self, rows: Sequence[Mapping[str, int]]
                    ) -> Dict[int, List[Tuple[int, np.ndarray, np.ndarray]]]:
        """Per level, the ``(slot, keep, set)`` overwrites forcing ``rows``.

        Row ``r`` of the lane arrays carries the stuck-at nets of
        ``rows[r]``: after a forced net's level runs, its slot becomes
        ``(v[slot] & keep) | set`` with ``keep``/``set`` one word per row
        (all-zeros/all-ones where that row forces the net, identity
        elsewhere).  The columns are ``(rows, 1)`` so a ``(nwords,)`` slot
        broadcasts to ``(rows, nwords)`` — and so does everything
        downstream of it.  A single row has no row axis: its ``(1,)``
        columns leave slot shapes as they are.
        """
        shape = (len(rows), 1) if len(rows) > 1 else (1,)
        columns: Dict[int, Tuple[int, np.ndarray, np.ndarray]] = {}
        for row, force in enumerate(rows):
            for net, stuck_at in force.items():
                if net not in self._force_points:
                    raise KeyError(f"no net {net!r} in compiled netlist")
                if stuck_at not in (0, 1):
                    raise ValueError(
                        f"stuck_at must be 0 or 1, got {stuck_at}")
                level, slot = self._force_points[net]
                if slot not in columns:
                    columns[slot] = (level,
                                     np.full(shape, ~np.uint64(0),
                                             dtype=np.uint64),
                                     np.zeros(shape, dtype=np.uint64))
                _, keep, value = columns[slot]
                keep[row] = 0
                value[row] = ~np.uint64(0) if stuck_at else 0
        plan: Dict[int, List[Tuple[int, np.ndarray, np.ndarray]]] = {}
        for slot, (level, keep, value) in columns.items():
            plan.setdefault(level, []).append((slot, keep, value))
        return plan

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
            count = 1
            for dim in shape:
                count *= dim

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

            v = self._evaluate(packed, count, [force] if force else ())

            if self._out_offsets is not None:
                nwords = max(1, -(-count // WORD_BITS))
                mat = np.zeros((WORD_BITS, nwords), dtype=np.uint64)
                for bus, offset in self._out_offsets.items():
                    for i, slot in enumerate(self.output_buses[bus]):
                        mat[offset + i] = v[slot]
                values = _unpack_words(mat, count)
                outputs = {}
                for bus, offset in self._out_offsets.items():
                    width = len(self.output_buses[bus])
                    mask = np.uint64((1 << width) - 1)
                    outputs[bus] = ((values >> np.uint64(offset)) & mask
                                    ).view(np.int64).reshape(shape)
            else:
                outputs = {
                    bus: unpack_lanes([v[slot] for slot in slots],
                                      count).reshape(shape)
                    for bus, slots in self.output_buses.items()
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
        v = self._evaluate(inputs, nwords * WORD_BITS,
                           [force] if force else ())
        return {bus: np.stack([v[slot] for slot in slots])
                for bus, slots in self.output_buses.items()}

    def run_packed_batch(self, packed: Mapping[str, np.ndarray],
                         force_rows: Sequence[Mapping[str, int]]
                         ) -> Dict[str, np.ndarray]:
        """One packed replay forcing a different net set in every row.

        Row ``r`` evaluates ``packed`` with ``force_rows[r]`` tied to its
        stuck-at constants — the result of ``run_packed(packed,
        force=force_rows[r])`` — but the whole batch runs the kernel
        once.  Each output bus comes back as a ``(width, rows, nwords)``
        lane array.  Memory grows with ``rows * nwords`` per forced-cone
        slot, so callers bound the batch.
        """
        inputs, nwords = self._packed_inputs(packed)
        v = self._evaluate(inputs, nwords * WORD_BITS, force_rows)
        shape = (len(force_rows), nwords)
        return {bus: np.stack([np.broadcast_to(v[slot], shape)
                               for slot in slots])
                for bus, slots in self.output_buses.items()}

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
                  ) -> List[Optional[np.ndarray]]:
        """Fill the slot array from packed inputs and run every level.

        ``force_rows`` holds one stuck-at mapping per lane row (see
        :meth:`_force_plan`); empty means one unforced row.
        """
        nwords = max(1, -(-count // WORD_BITS))
        v: List[Optional[np.ndarray]] = [None] * self._n_slots
        zeros = np.zeros(nwords, dtype=np.uint64)
        ones = ~zeros
        for slot, value in self._const_slots:
            v[slot] = ones if value else zeros
        for bus, mat in packed.items():
            for i, slot in enumerate(self._input_slots[bus]):
                v[slot] = mat[i]

        plan = self._force_plan(force_rows) if force_rows else {}
        for slot, keep, value in plan.get(0, ()):
            v[slot] = (v[slot] & keep) | value
        for level, fn in enumerate(self._levels, start=1):
            fn(v)
            for slot, keep, value in plan.get(level, ()):
                v[slot] = (v[slot] & keep) | value

        if obs.enabled():
            rows = max(1, len(force_rows))
            obs.count("rtl.compile.runs")
            obs.count("rtl.compile.gate_evals",
                      self.gate_count * rows * count)
            obs.count("rtl.compile.word_ops",
                      self.gate_count * rows * nwords)
        return v

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
        slot_of: Dict[str, int] = {}
        force_points: Dict[str, Tuple[int, int]] = {}
        const_slots: List[Tuple[int, int]] = []
        lines: List[str] = []
        gate_count = 0
        levels = netlist.topological_levels()
        for level, gates in enumerate(levels):
            if level > 0:
                lines.append(f"def _level_{level}(v):")
            for gate in gates:
                slot = slot_of[gate.output] = len(slot_of)
                force_points[gate.output] = (level, slot)
                if gate.op is Op.INPUT:
                    continue
                if gate.op in (Op.CONST0, Op.CONST1):
                    const_slots.append((slot, 1 if gate.op is Op.CONST1
                                        else 0))
                    continue
                gate_count += 1
                operands = [f"v[{slot_of[net]}]" for net in gate.inputs]
                lines.append(
                    f"    v[{slot}] = {_gate_expression(gate.op, operands)}")

        source = "\n".join(lines) + "\n" if lines else ""
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<bitslice:{netlist.name}>", "exec"), namespace)
        level_fns = tuple(namespace[f"_level_{i}"]
                          for i in range(1, len(levels)))

        input_slots = {
            bus: tuple(slot_of[net] for net in netlist.input_nets(bus))
            for bus in netlist.input_buses
        }
        output_buses = {
            bus: tuple(slot_of[net] for net in nets)
            for bus, nets in netlist.output_buses.items()
        }
        obs.count("rtl.compile.compiled")
        obs.count("rtl.compile.compiled_gates", gate_count)
        return CompiledKernel(
            name=netlist.name, key=key,
            input_buses=dict(netlist.input_buses),
            input_slots=input_slots,
            output_buses=output_buses,
            const_slots=tuple(const_slots),
            force_points=force_points,
            levels=level_fns,
            n_slots=len(slot_of),
            gate_count=gate_count,
            source=source,
        )


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
    share one compiled function object; any mutation — a
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
