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
A detector reads only the carry out of the sub-adder below it, so the
cascade is one LSB-first pass: the window walk of
:class:`~repro.spec.model.SpecAdder` with the enabled sub-adders chained
(a corrected sub-adder takes ``co_{i-1}`` as its carry in).  The number
of corrections is the sum of the enabled sub-adders' flags in that pass,
and the cycle count is one more.  :func:`repro.adders.add_with_selects`
is the same pass, with GDA's accurate muxes as the chained blocks.

The ``enabled`` mask models the paper's error-control select signal: only
sub-adders whose bit is set are ever corrected, letting an application
trade residual error for bounded latency.  A declared rectify stage
still adds back the flags of the sub-adders the mask leaves uncorrected.

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
from typing import Optional, Sequence

from repro.adders.base import IntLike, _validate_operand
from repro.spec.model import SpecAdder, require_windowed


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
        adder = self.adder
        a = _validate_operand("a", a, adder.width)
        b = _validate_operand("b", b, adder.width)
        value, flags = adder._walk(a, b, self.enabled)
        _, initial = adder._walk(a, b, total=False)
        zero = value & 0  # 0 in the shape and type of the sum
        corrections = sum((f for f, e in zip(flags[1:], self.enabled) if e),
                          zero)
        initial_flags = sum((f << i for i, f in enumerate(initial) if i),
                            zero)
        return CorrectionResult(value, 1 + corrections, corrections,
                                initial_flags)
