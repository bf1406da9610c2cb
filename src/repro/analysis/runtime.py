"""Runtime accuracy management over GeAr's approximation modes.

The paper's headline feature is *configurability*: one adder datapath, many
(R, P) approximation modes.  This module simulates the system-level use of
that knob — a controller that watches the §3.3 error-detection flags (free
in hardware) and moves along a delay-sorted ladder of modes to keep the
observed error rate inside a budget while spending as little delay as
possible.

The controller is deliberately simple (hysteresis on a windowed flag-rate
estimate); the point is to exercise the library's mode-switching story end
to end and to measure the budget/latency trade-off, not to propose a
control law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.error_model import paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.spec.model import SpecAdder
from repro.timing.fpga import characterize
from repro.utils.validation import check_pos_int, check_prob


@dataclass(frozen=True)
class Mode:
    """One rung of the accuracy ladder."""

    config: GeArConfig
    adder: SpecAdder
    delay_ns: float
    error_probability: float


@dataclass
class ControllerTrace:
    """Outcome of a controlled run over an operand stream."""

    mode_per_chunk: List[int]
    flag_rate_per_chunk: List[float]
    error_rate: float
    mean_delay_ns: float
    switches: int
    modes: List[Mode] = field(repr=False, default_factory=list)


def build_mode_ladder(n: int, r: int, p_values: Sequence[int]) -> List[Mode]:
    """Delay-sorted GeAr modes for one resultant width R."""
    check_pos_int("n", n)
    modes: List[Mode] = []
    for p in p_values:
        strict = (n - r - p) % r == 0
        cfg = GeArConfig(n, r, p, allow_partial=not strict)
        adder = GeArAdder(cfg)
        modes.append(
            Mode(
                config=cfg,
                adder=adder,
                delay_ns=characterize(adder).delay_ns,
                error_probability=paper_error_probability(adder),
            )
        )
    modes.sort(key=lambda m: m.delay_ns)
    return modes


class AccuracyController:
    """Hysteresis controller over a mode ladder.

    Args:
        modes: delay-sorted ladder (fastest first), e.g. from
            :func:`build_mode_ladder`.
        error_budget: target upper bound on the per-addition error rate.
        chunk: additions evaluated between control decisions.
        margin: hysteresis factor — step down (faster) only when the
            observed rate is below ``margin * error_budget``.
    """

    def __init__(self, modes: Sequence[Mode], error_budget: float,
                 chunk: int = 1024, margin: float = 0.5) -> None:
        if not modes:
            raise ValueError("need at least one mode")
        check_prob("error_budget", error_budget)
        check_pos_int("chunk", chunk)
        if not 0.0 < margin < 1.0:
            raise ValueError(f"margin must be in (0, 1), got {margin}")
        self.modes = list(modes)
        self.error_budget = error_budget
        self.chunk = chunk
        self.margin = margin

    def run(self, a: np.ndarray, b: np.ndarray,
            start_mode: Optional[int] = None) -> ControllerTrace:
        """Process an operand stream, adapting the mode per chunk."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("operand streams must be equal-length 1-D arrays")

        index = start_mode if start_mode is not None else 0
        if not 0 <= index < len(self.modes):
            raise ValueError(f"start_mode {index} out of range")

        mode_log: List[int] = []
        rate_log: List[float] = []
        errors = 0
        delay_sum = 0.0
        switches = 0

        with obs.span("runtime.controller.run"):
            for lo in range(0, a.size, self.chunk):
                hi = min(lo + self.chunk, a.size)
                mode = self.modes[index]
                xa, xb = a[lo:hi], b[lo:hi]
                flags = mode.adder.detection_flags(xa, xb)
                flagged = np.zeros(xa.shape, dtype=bool)
                for f in flags[1:]:
                    flagged |= np.asarray(f).astype(bool)
                flag_rate = float(np.mean(flagged)) if xa.size else 0.0

                errors += int(np.count_nonzero(mode.adder.add(xa, xb) != xa + xb))
                delay_sum += mode.delay_ns * (hi - lo)
                mode_log.append(index)
                rate_log.append(flag_rate)
                obs.count("runtime.chunks")
                obs.gauge("runtime.flag_rate", flag_rate)

                # Control decision for the next chunk.
                new_index = index
                if flag_rate > self.error_budget and index + 1 < len(self.modes):
                    new_index = index + 1  # slower, more accurate
                elif flag_rate < self.margin * self.error_budget and index > 0:
                    new_index = index - 1  # faster, less accurate
                if new_index != index:
                    switches += 1
                    index = new_index
                    obs.count("runtime.switches")
                    obs.count("runtime.switch_up" if new_index > mode_log[-1]
                              else "runtime.switch_down")

        return ControllerTrace(
            mode_per_chunk=mode_log,
            flag_rate_per_chunk=rate_log,
            error_rate=errors / a.size if a.size else 0.0,
            mean_delay_ns=delay_sum / a.size if a.size else 0.0,
            switches=switches,
            modes=self.modes,
        )
