"""Behavioural models compiled from :class:`~repro.spec.ir.AdderSpec`.

:class:`SpecAdder` covers every plain speculative spec by riding the
shared :class:`~repro.adders.base.WindowedSpeculativeAdder` machinery —
the vectorised windowed sum, §3.3 detection flags, and the closed-form
EP/MED of :mod:`repro.core.error_model` — so a heterogeneous layout needs
zero family-specific code.  :class:`StaticSpecAdder` adds the fixed low
part (LOA's OR truncation or a version-2 static window, including
HOERAA's half-adder top bit); :class:`RectifiedSpecAdder` applies the
declared rectification stage on top of the speculative sum.  Those two
have no closed form: their EP/MED reduce the exact error PMF of
:func:`repro.engine.analytic.adder_error_pmf`.

All of them delegate ``build_netlist``/``fingerprint`` back to the spec,
so the behavioural, gate-level and analytic layers of one spec always
agree on identity and structure.
"""

from __future__ import annotations

from repro.adders.base import AdderModel, IntLike, WindowedSpeculativeAdder
from repro.spec.ir import AdderSpec
from repro.utils.bitvec import mask


class SpecAdder(WindowedSpeculativeAdder):
    """The behavioural model of a plain speculative :class:`AdderSpec`."""

    def __init__(self, spec: AdderSpec) -> None:
        if spec.truncation or spec.static_window is not None:
            raise ValueError(
                "SpecAdder models plain speculative specs; "
                "use StaticSpecAdder (or spec.to_model())"
            )
        self.spec = spec
        super().__init__(spec.width, spec.name, spec.to_windows())

    @property
    def is_exact(self) -> bool:
        return self.spec.is_exact

    def max_error_distance(self) -> int:
        return self.spec.max_error_distance()

    def build_netlist(self):
        return self.spec.to_netlist()

    def fingerprint(self) -> str:
        return self.spec.fingerprint()


class RectifiedSpecAdder(SpecAdder):
    """A spec adder with its declared rectification stage applied.

    The rectified sum adds each enabled window's §3.3 flag back at that
    window's ``result_low`` (masked to the N+1 output bits, matching the
    netlist stage that discards the final ripple carry — which provably
    never fires: rectification only cancels negative miss errors, so the
    corrected sum never exceeds ``a + b``).  With every speculative
    window enabled the result is exact; with a subset, exactly the
    disabled windows' error events remain.

    EP/MED have no closed window-DP form under rectification, so they
    reduce the exact analytic PMF instead; max-ED comes from the spec
    (enabled windows contribute nothing).
    """

    def __init__(self, spec: AdderSpec) -> None:
        if spec.rectify is None:
            raise ValueError("RectifiedSpecAdder needs a spec with a "
                             "rectify stage")
        super().__init__(spec)
        self._rectified = spec.rectified_windows()

    def _add_impl(self, a: IntLike, b: IntLike) -> IntLike:
        raw = super()._add_impl(a, b)
        flags = self.detection_flags(a, b)
        for i in self._rectified:
            raw = raw + (flags[i] << self.windows[i].result_low)
        return raw & mask(self.width + 1)

    def error_probability(self) -> float:
        from repro.engine.analytic import adder_error_pmf

        return adder_error_pmf(self).error_rate

    def mean_error_distance(self) -> float:
        from repro.engine.analytic import adder_error_pmf

        return adder_error_pmf(self).med


class StaticSpecAdder(AdderModel):
    """Behavioural model of a spec with a fixed (non-speculative) low part.

    Covers both spellings: version-1 ``truncation`` (the low ``t`` sum
    bits are ``a | b``) and version-2 static windows, where ``approx``
    picks the gate rule — ``or`` is the same LOA reduction, ``hoeraa``
    keeps OR below the top static bit and computes that bit as the
    half-adder sum ``a ^ b``.  Either way the speculative part receives
    ``a & b`` of the top static bit as carry-in (exactly the LOA rule of
    [12]).  Later windows speculate on raw operand bits only — the
    approximated carry at the boundary is invisible to them, matching
    the compiled hardware where predictors tap the operand inputs
    directly.

    Not a :class:`WindowedSpeculativeAdder`: the fixed part falls outside
    the carry-speculation error model, so the closed-form EP/MED
    analytics (and the §3.3 detection flags) are deliberately not
    exposed; the exact analytic PMF covers these specs instead.
    """

    def __init__(self, spec: AdderSpec) -> None:
        static = spec.static_window
        if not spec.truncation and static is None:
            raise ValueError("StaticSpecAdder needs a truncated spec or a "
                             "static window")
        self.spec = spec
        self.truncation = spec.truncation or static.length
        self.static_kind = "or" if spec.truncation else static.approx
        super().__init__(spec.width, spec.name)
        windows = spec.to_windows()
        self.windows = windows[1:] if static is not None else windows

    def _add_impl(self, a: IntLike, b: IntLike) -> IntLike:
        t = self.truncation
        result: IntLike = (a | b) & mask(t)
        if self.static_kind == "hoeraa":
            # HOERAA: the top static bit is a half-adder sum, not an OR.
            top = ((a ^ b) >> (t - 1)) & 1
            result = (result & mask(t - 1)) | (top << (t - 1))
        carry_in = (a >> (t - 1)) & (b >> (t - 1)) & 1
        local: IntLike = 0
        for i, w in enumerate(self.windows):
            wmask = mask(w.length)
            local = ((a >> w.low) & wmask) + ((b >> w.low) & wmask)
            if i == 0:
                local = local + carry_in
            field = (local >> w.prediction_bits) & mask(w.result_bits)
            result = result | (field << w.result_low)
        carry_out = (local >> self.windows[-1].length) & 1
        return result | (carry_out << self.width)

    def error_probability(self) -> float:
        from repro.engine.analytic import adder_error_pmf

        return adder_error_pmf(self).error_rate

    def mean_error_distance(self) -> float:
        from repro.engine.analytic import adder_error_pmf

        return adder_error_pmf(self).med

    def max_error_distance(self) -> int:
        return self.spec.max_error_distance()

    def build_netlist(self):
        return self.spec.to_netlist()

    def fingerprint(self) -> str:
        return self.spec.fingerprint()

