"""Cycle-accurate driver for the §3.3 correction netlist.

The correction circuit of Figs. 5/6 is sequential: the speculative result
is produced in cycle 1, and each cycle thereafter one erroneous sub-adder's
inputs are re-routed through the OR/LSB-force muxes.  The netlist built by
:func:`repro.rtl.builders.build_gear_corrected` exposes the correction
state as the ``CORR`` input bus; this harness plays the role of the control
register, iterating netlist evaluations until the (enable-gated) detector
flags clear.

Each cycle corrects the lowest flagged sub-adder: the paper's accounting
(k cycles worst case), matching
:class:`repro.core.correction.ErrorCorrector` cycle-for-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate
from repro.utils.bitvec import mask


@dataclass
class HarnessResult:
    """Outcome of a multi-cycle corrected addition (vectorised)."""

    value: np.ndarray
    cycles: np.ndarray
    corrections: np.ndarray


class MultiCycleCorrector:
    """Drives a ``build_gear_corrected`` netlist to exact results.

    Args:
        netlist: the correction netlist (buses A, B, EN, CORR / S, ERR).
        enabled: per-sub-adder enable bits (defaults to all enabled).
    """

    def __init__(self, netlist: Netlist,
                 enabled: Optional[Sequence[bool]] = None) -> None:
        for bus in ("A", "B", "EN", "CORR"):
            if bus not in netlist.input_buses:
                raise ValueError(f"netlist lacks required input bus {bus!r}")
        for bus in ("S", "ERR"):
            if bus not in netlist.output_buses:
                raise ValueError(f"netlist lacks required output bus {bus!r}")
        self.netlist = netlist
        self.spec = netlist.input_buses["CORR"]
        if enabled is None:
            enabled = [True] * self.spec
        if len(enabled) != self.spec:
            raise ValueError(
                f"enabled mask must have length {self.spec}, got {len(enabled)}"
            )
        self.enable_word = sum(1 << i for i, e in enumerate(enabled) if e)

    def _read(self, values, bus: str) -> np.ndarray:
        nets = self.netlist.output_buses[bus]
        word = np.zeros(values[nets[0]].shape, dtype=np.int64)
        for i, net in enumerate(nets):
            word |= values[net].astype(np.int64) << i
        return word

    def add(self, a, b) -> HarnessResult:
        """Run the correction loop; returns exact sums for enabled flags."""
        a = np.atleast_1d(np.asarray(a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(b, dtype=np.int64))
        a, b = np.broadcast_arrays(a, b)
        corr = np.zeros(a.shape, dtype=np.int64)
        cycles = np.ones(a.shape, dtype=np.int64)
        corrections = np.zeros(a.shape, dtype=np.int64)

        for _ in range(self.spec + 1):
            values = simulate(
                self.netlist,
                {"A": a, "B": b, "EN": self.enable_word, "CORR": corr},
            )
            err = self._read(values, "ERR") & ~corr & mask(self.spec)
            pending = err != 0
            if not pending.any():
                break
            corr |= err & -err  # the lowest flagged sub-adder
            corrections += pending
            cycles += pending

        values = simulate(
            self.netlist,
            {"A": a, "B": b, "EN": self.enable_word, "CORR": corr},
        )
        return HarnessResult(
            value=self._read(values, "S"),
            cycles=cycles,
            corrections=corrections,
        )
