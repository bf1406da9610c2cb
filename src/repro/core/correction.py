"""Configurable error detection and correction (§3.3).

Detection: for sub-adder ``i`` the hardware ANDs the predicted carry
``cp_i`` (Eq. 4 — all P prediction bits propagating) with the previous
sub-adder's carry out ``co_{i-1}``.  When both are 1, sub-adder ``i``'s
result field missed an incoming carry.

Correction: instead of an incrementer, the paper feeds the erring
sub-adder's *prediction-bit inputs* through OR gates and forces their LSBs
to 1.  Because the prediction bits were all propagating, the OR is all
ones; the forced LSB then generates a carry that ripples through them into
the result field — exactly the missing carry.

Timing: the speculative result costs 1 cycle; each correction costs one
additional cycle, and corrections cascade lowest-sub-adder-first because
fixing sub-adder ``i`` updates ``co_i`` and may newly trip the detector of
sub-adder ``i+1`` (Fig. 6 discussion: k sub-adders need up to k cycles).

The ``enabled`` mask models the paper's error-control select signal: only
sub-adders whose bit is set are ever corrected, letting an application
trade residual error for bounded latency.

**A hazard the paper does not mention** (found by property testing):
selective correction is *not* monotone for arbitrary masks.  Correcting
sub-adder ``i`` can wrap its all-ones result field to zero, handing the
recovered carry up to sub-adder ``i+1``; if ``i+1``'s correction is
disabled, that carry is dropped and the result is further from exact than
with no correction at all (worked example in
``tests/test_correction.py::TestSelectiveCorrection::test_non_suffix_mask_can_hurt``).
Masks that enable a contiguous MSB-side block ("suffix-closed", the
natural MSB-first policy) are safe: any wrapped carry is always caught by
an enabled higher sub-adder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.adders.base import IntLike
from repro.spec.model import SpecAdder, require_windowed
from repro.utils.bitvec import mask


@dataclass
class CorrectionResult:
    """Outcome of an error-corrected addition.

    Attributes:
        value: the (partially) corrected sum, ``width + 1`` bits.
        cycles: total cycles consumed (1 + number of correction rounds).
        corrections: number of sub-adders corrected.
        initial_flags: detector outputs observed in the first cycle, one
            int (bitmask over sub-adder indices 1..k-1) per element.
    """

    value: IntLike
    cycles: IntLike
    corrections: IntLike
    initial_flags: IntLike


class ErrorCorrector:
    """Iterative §3.3 error detection/correction around a windowed adder.

    Args:
        adder: a speculative :class:`~repro.spec.model.SpecAdder` (GeAr,
            ACA, ETAII, GDA models all qualify); a spec with a fixed low
            part (truncation or a static window) raises
            :class:`ValueError`.
        enabled: per-sub-adder enable mask for indices ``1..k-1`` (length
            ``k-1``); ``None`` enables every sub-adder (fully accurate
            results, the default).
    """

    def __init__(
        self,
        adder: SpecAdder,
        enabled: Optional[Sequence[bool]] = None,
    ) -> None:
        require_windowed(adder, "ErrorCorrector")
        self.adder = adder
        k = len(adder.windows)
        if enabled is None:
            enabled = [True] * (k - 1)
        if len(enabled) != k - 1:
            raise ValueError(
                f"enabled mask must cover the {k - 1} speculative sub-adders, "
                f"got length {len(enabled)}"
            )
        self.enabled = [bool(e) for e in enabled]

    @property
    def max_cycles(self) -> int:
        """Worst-case cycles: 1 + one per enabled speculative sub-adder."""
        return 1 + sum(self.enabled)

    def add(self, a: IntLike, b: IntLike) -> CorrectionResult:
        """Add with detection/correction; vectorises over arrays."""
        scalar = not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray))
        a_arr = np.atleast_1d(np.asarray(a, dtype=np.int64))
        b_arr = np.atleast_1d(np.asarray(b, dtype=np.int64))
        a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
        a_arr = np.ascontiguousarray(a_arr)
        b_arr = np.ascontiguousarray(b_arr)
        limit = mask(self.adder.width)
        if a_arr.size and (
            a_arr.min() < 0 or a_arr.max() > limit or b_arr.min() < 0 or b_arr.max() > limit
        ):
            raise ValueError(f"operands must fit in {self.adder.width} bits")

        windows = self.adder.windows
        k = len(windows)
        n_elem = a_arr.shape
        corrected = np.zeros((k,) + n_elem, dtype=bool)  # index 0 unused
        cycles = np.ones(n_elem, dtype=np.int64)
        corrections = np.zeros(n_elem, dtype=np.int64)
        initial_flags = np.zeros(n_elem, dtype=np.int64)

        for round_index in range(k):  # at most k-1 corrections + final check
            locals_, couts = self._window_sums(a_arr, b_arr, corrected)
            flags = self._detect(a_arr, b_arr, couts)
            if round_index == 0:
                for i in range(1, k):
                    initial_flags |= flags[i] << i
            # Mask out disabled and already-corrected sub-adders.
            pending = np.zeros((k,) + n_elem, dtype=bool)
            for i in range(1, k):
                if self.enabled[i - 1]:
                    pending[i] = flags[i].astype(bool) & ~corrected[i]
            any_pending = pending.any(axis=0)
            if not any_pending.any():
                break
            # Correct the lowest pending sub-adder of each element.
            lowest = np.argmax(pending, axis=0)  # 0 where nothing pending
            for i in range(1, k):
                hit = any_pending & (lowest == i)
                corrected[i] |= hit
                corrections += hit
                cycles += hit

        locals_, couts = self._window_sums(a_arr, b_arr, corrected)
        value = np.zeros(n_elem, dtype=np.int64)
        for i, w in enumerate(windows):
            field = (locals_[i] >> w.prediction_bits) & mask(w.result_bits)
            value |= field << w.result_low
        value |= couts[-1] << self.adder.width

        if scalar:
            return CorrectionResult(
                value=int(value[0]),
                cycles=int(cycles[0]),
                corrections=int(corrections[0]),
                initial_flags=int(initial_flags[0]),
            )
        return CorrectionResult(value, cycles, corrections, initial_flags)

    # ------------------------------------------------------------------ #

    def _window_sums(self, a: np.ndarray, b: np.ndarray, corrected: np.ndarray):
        """Local sum and carry-out per window, honouring correction state."""
        locals_: List[np.ndarray] = []
        couts: List[np.ndarray] = []
        for i, w in enumerate(self.adder.windows):
            wmask = mask(w.length)
            aw = (a >> w.low) & wmask
            bw = (b >> w.low) & wmask
            if i > 0 and w.prediction_bits:
                pmask = mask(w.prediction_bits)
                forced = ((aw | bw) & pmask) | 1
                ac = np.where(corrected[i], (aw & ~pmask) | forced, aw)
                bc = np.where(corrected[i], (bw & ~pmask) | forced, bw)
            else:
                ac, bc = aw, bw
            local = ac + bc
            locals_.append(local)
            couts.append((local >> w.length) & 1)
        return locals_, couts

    def _detect(self, a: np.ndarray, b: np.ndarray, couts: List[np.ndarray]):
        """Detector outputs cp_i & co_{i-1} per window (index 0 unused)."""
        flags: List[np.ndarray] = [np.zeros(a.shape, dtype=np.int64)]
        for i, w in enumerate(self.adder.windows):
            if i == 0:
                continue
            p = w.prediction_bits
            prop = ((a >> w.low) ^ (b >> w.low)) & mask(p)
            cp = (prop == mask(p)).astype(np.int64)
            flags.append(cp & couts[i - 1])
        return flags
