"""Stuck-at fault injection and detector-coverage analysis.

§3.3 puts error-detection hardware (the cp·co AND gates) on every
speculative sub-adder.  Beyond catching *speculation* misses, such
detectors see some *hardware* faults too; this module quantifies that with
classic stuck-at fault simulation:

* :func:`enumerate_faults` — the stuck-at-0/1 fault list over a netlist's
  gate outputs,
* :func:`inject_fault` — a netlist copy with one net tied to a constant,
* :func:`fault_simulation` — for every fault, does any output differ on a
  vector set (detectability), and does the ``ERR`` bus flag it
  (§3.3 observability)?

This doubles as a manufacturing-test utility for the emitted RTL: the
undetectable faults of an adder netlist are exactly its redundant logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate
from repro.utils.validation import check_pos_int

#: Widest input bus the seeded stimulus draw supports: each bus samples
#: ``rng.integers(0, 1 << width)`` into int64, whose bound ends at 2**63.
MAX_INPUT_BITS = 63

#: Lane words per batched slot array in the compiled sweep.  Each fault
#: is one ``nwords``-word row, so a replay carries ``_BATCH_WORDS //
#: nwords`` faults (at least one); this keeps a batch's slot arrays at
#: about 4 KiB each whatever the vector count.
_BATCH_WORDS = 512


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a gate output net."""

    net: str
    stuck_at: int

    def __post_init__(self) -> None:
        if self.stuck_at not in (0, 1):
            raise ValueError(f"stuck_at must be 0 or 1, got {self.stuck_at}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.net}/SA{self.stuck_at}"


def enumerate_faults(netlist: Netlist, include_inputs: bool = True) -> List[Fault]:
    """All stuck-at-0/1 faults on logic-gate outputs (and optionally inputs)."""
    faults: List[Fault] = []
    for gate in netlist.gates.values():
        if gate.op in (Op.CONST0, Op.CONST1):
            continue
        if gate.op is Op.INPUT and not include_inputs:
            continue
        faults.append(Fault(gate.output, 0))
        faults.append(Fault(gate.output, 1))
    return faults


def inject_fault(netlist: Netlist, fault: Fault) -> Netlist:
    """A copy of ``netlist`` with the fault's net replaced by a constant.

    The faulty gate itself is kept (its output simply goes nowhere), which
    mirrors how a physical stuck-at defect leaves upstream logic intact.
    """
    if fault.net not in netlist.gates:
        raise KeyError(f"no net {fault.net!r} in netlist")
    faulty = Netlist(netlist.name)
    for bus, width in netlist.input_buses.items():
        faulty.add_input_bus(bus, width)

    # The substitute net every downstream reference of fault.net sees.
    sa_net = f"__sa_{fault.stuck_at}"
    if sa_net not in faulty.gates:
        faulty.add_gate(Op.CONST1 if fault.stuck_at else Op.CONST0, (),
                        output=sa_net)

    def mapped(net: str) -> str:
        return sa_net if net == fault.net else net

    for gate in netlist.topological_order():
        if gate.op is Op.INPUT:
            continue
        if gate.output == fault.net:
            # Keep the defective gate's upstream cone; its output is
            # renamed so the constant takes over its consumers.
            faulty.add_gate(gate.op, tuple(mapped(n) for n in gate.inputs),
                            output=f"{fault.net}__prefault", group=gate.group)
            continue
        faulty.add_gate(gate.op, tuple(mapped(n) for n in gate.inputs),
                        output=gate.output, group=gate.group)

    for bus, nets in netlist.output_buses.items():
        faulty.set_output_bus(bus, [mapped(net) for net in nets])
    return faulty


@dataclass
class FaultReport:
    """Aggregate fault-simulation outcome."""

    total: int
    detected_any_output: int
    flagged_by_err: int
    undetected: List[Fault]

    @property
    def coverage(self) -> float:
        """Fraction of faults visible at any output."""
        return self.detected_any_output / self.total if self.total else 0.0

    @property
    def err_observability(self) -> float:
        """Fraction of detected faults that also raise an ERR flag."""
        if self.detected_any_output == 0:
            return 0.0
        return self.flagged_by_err / self.detected_any_output


def _outputs(netlist: Netlist, values) -> Dict[str, np.ndarray]:
    packed = {}
    for bus, nets in netlist.output_buses.items():
        word = np.zeros(values[nets[0]].shape, dtype=np.int64)
        for i, net in enumerate(nets):
            word |= values[net].astype(np.int64) << i
        packed[bus] = word
    return packed


def fault_simulation(
    netlist: Netlist,
    vectors: int = 256,
    seed: int = 7,
    faults: Optional[Sequence[Fault]] = None,
    simulator: str = "compiled",
) -> FaultReport:
    """Simulate every fault against seeded random vectors.

    A fault counts as *detected* when any output bus differs from the
    golden netlist on some vector, and as *ERR-flagged* when the ``ERR``
    bus (if present) differs — i.e. the §3.3 detector reacts to the defect.

    ``simulator`` selects the evaluation machinery: ``"compiled"`` (the
    default) packs the vectors once, compiles one bit-sliced kernel
    (:mod:`repro.rtl.compile`) and replays it once per batch of faults,
    each fault forcing its own lane row, comparing outputs in the packed
    domain; ``"interpreted"`` rebuilds and re-simulates a faulty netlist
    per fault via :func:`inject_fault` and is the reference the compiled
    sweep is tested against.  Both produce the same report for the same
    arguments (``tests/test_compile_faults.py`` pins that parity).

    Input buses wider than :data:`MAX_INPUT_BITS` are rejected with a
    :class:`ValueError`.
    """
    check_pos_int("vectors", vectors)
    if simulator not in ("interpreted", "compiled"):
        raise ValueError(
            f"simulator must be 'interpreted' or 'compiled', got {simulator!r}")
    too_wide = {bus: width for bus, width in netlist.input_buses.items()
                if width > MAX_INPUT_BITS}
    if too_wide:
        raise ValueError(
            f"fault simulation draws input buses of at most "
            f"{MAX_INPUT_BITS} bits; too wide: {too_wide}")
    with obs.span("rtl.faults.simulate"):
        rng = np.random.default_rng(seed)
        stimulus = {
            bus: rng.integers(0, 1 << width, size=vectors, dtype=np.int64)
            for bus, width in netlist.input_buses.items()
        }
        fault_list = (list(faults) if faults is not None
                      else enumerate_faults(netlist))
        obs.count("rtl.faults.faults", len(fault_list))

        if simulator == "compiled":
            fault_hits = _compiled_fault_sweep(netlist, stimulus, vectors,
                                               fault_list)
        else:
            fault_hits = _interpreted_fault_sweep(netlist, stimulus,
                                                  fault_list)

    detected = 0
    flagged = 0
    undetected: List[Fault] = []
    for fault, (differs, err_differs) in zip(fault_list, fault_hits):
        if differs:
            detected += 1
            if err_differs:
                flagged += 1
        else:
            undetected.append(fault)
    return FaultReport(
        total=len(fault_list),
        detected_any_output=detected,
        flagged_by_err=flagged,
        undetected=undetected,
    )


def _interpreted_fault_sweep(
    netlist: Netlist, stimulus: Dict[str, np.ndarray],
    fault_list: Sequence[Fault],
) -> List[Tuple[bool, bool]]:
    """(differs, ERR differs) per fault via per-fault netlist rewriting."""
    golden = _outputs(netlist, simulate(netlist, stimulus))
    hits: List[Tuple[bool, bool]] = []
    for fault in fault_list:
        faulty = inject_fault(netlist, fault)
        outputs = _outputs(faulty, simulate(faulty, stimulus))
        differs = any(
            np.any(outputs[bus] != golden[bus]) for bus in golden
        )
        err_differs = bool(
            differs and "ERR" in golden
            and np.any(outputs["ERR"] != golden["ERR"]))
        hits.append((differs, err_differs))
    return hits


def _compiled_fault_sweep(
    netlist: Netlist, stimulus: Dict[str, np.ndarray], vectors: int,
    fault_list: Sequence[Fault],
) -> List[Tuple[bool, bool]]:
    """(differs, ERR differs) per fault via fault-parallel kernel replays.

    The whole campaign shares a single compiled kernel and a single packed
    copy of the vectors.  Faults go through in batches: fault ``r`` of a
    batch forces its net in lane row ``r``
    (:meth:`~repro.rtl.compile.CompiledKernel.run_packed_batch`), so one
    replay simulates the batch, and a masked XOR against the golden
    ``(width, 1, nwords)`` lanes reduces each row to its verdict (padding
    lanes beyond ``vectors`` are excluded — a forced net can flip them
    even when every real vector agrees).
    """
    from repro.rtl.compile import compile_netlist, lane_mask, pack_operands

    kernel = compile_netlist(netlist)
    packed = {
        bus: pack_operands(stimulus[bus], width)
        for bus, width in netlist.input_buses.items()
    }
    golden = {bus: lanes[:, None]
              for bus, lanes in kernel.run_packed(packed).items()}
    nwords = next(iter(golden.values())).shape[2]
    mask = lane_mask(vectors, nwords)
    batch = max(1, _BATCH_WORDS // nwords)

    hits: List[Tuple[bool, bool]] = []
    for start in range(0, len(fault_list), batch):
        rows = [{fault.net: fault.stuck_at}
                for fault in fault_list[start:start + batch]]
        outputs = kernel.run_packed_batch(packed, rows)
        bus_differs = {
            bus: np.any((lanes ^ golden[bus]) & mask, axis=(0, 2))
            for bus, lanes in outputs.items()
        }
        differs = np.logical_or.reduce(list(bus_differs.values()))
        err_differs = differs & bus_differs.get("ERR", False)
        hits.extend(zip(differs.tolist(), err_differs.tolist()))
    return hits
