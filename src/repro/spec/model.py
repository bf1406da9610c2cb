"""The behavioural model compiled from an :class:`~repro.spec.ir.AdderSpec`.

:class:`SpecAdder` is the one model class of every spec — GeAr,
ACA-I/II, ETAII(M), GDA, LOA, HOERAA, the rectified and the exact
adders are all factories returning one.  Its sum is computed in three
steps, each present only when the spec declares it:

* the fixed low part — LOA's OR truncation or a version-2 static window
  (``or``, or ``hoeraa`` with a half-adder top bit) — whose top bit's
  ``a & b`` is the carry into the first speculative window,
* the speculative windows (:attr:`SpecAdder.windows`, the spec's
  :attr:`~repro.spec.ir.AdderSpec.body`),
* the rectify stage, adding each enabled window's §3.3 flag back at its
  ``result_low``.

The windows and the rectify stage are one LSB-first walk over a compiled
window table (:meth:`SpecAdder._walk`).  With a mask of *chained*
windows, which take the previous window's carry out instead of their
prediction, the same walk is the §3.3 corrector
(:class:`repro.core.correction.ErrorCorrector`), GDA's carry muxes
(:func:`repro.adders.add_with_selects`) and the miss indicator of
:func:`repro.metrics.spectrum.error_spectrum`.

EP/MED of a plain layout come from the closed-form chain of
:mod:`repro.core.error_model`; a fixed low part or a rectify stage falls
outside it, so those reduce the exact error PMF of
:func:`repro.engine.analytic.adder_error_pmf`.  ``build_netlist`` and
``fingerprint`` delegate to the spec, so the behavioural, gate-level and
analytic layers of one spec always agree on identity and structure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.adders.base import AdderModel, IntLike, _validate_operand
from repro.spec.ir import AdderSpec, WindowSpec
from repro.utils.bitvec import mask


def require_windowed(adder, what: str) -> None:
    """Reject an adder whose sum ``adder.windows`` does not describe.

    A spec with a fixed low part computes its low bits outside the
    speculative windows, so ``what`` — anything that reads a sum or a
    flag from the window walk alone — would silently drop them.
    """
    spec = getattr(adder, "spec", None)
    if isinstance(spec, AdderSpec) and spec.low_bits:
        raise ValueError(
            f"{what} rebuilds sums from the speculative windows; "
            f"{adder.name!r} has a {spec.low_bits}-bit fixed low part "
            "they do not cover")


def _window_table(windows: Sequence[WindowSpec],
                  low_bits: int) -> Tuple[Tuple[int, ...], ...]:
    """Compile the speculative windows into plain-int rows.

    Each row is ``(low, length mask, length, P, result mask, result_low,
    P mask)``.  Above a fixed low part the first row also reads the
    part's top bit: ``(2x + a_t + b_t) >> 1 == x + (a_t & b_t)`` for the
    window sum ``x``, so widening the row by that bit (one more length
    and prediction bit) adds the part's carry without a carry-in.  The
    §3.3 flags never read such a row, as they reject a fixed low part.
    """
    rows = []
    for i, w in enumerate(windows):
        low, length, p = w.low, w.length, w.prediction_bits
        if low_bits and i == 0:
            low, length, p = low - 1, length + 1, p + 1
        rows.append((low, mask(length), length, p, mask(w.result_bits),
                     w.result_low, mask(w.prediction_bits)))
    return tuple(rows)


class SpecAdder(AdderModel):
    """The behavioural model of an :class:`AdderSpec`.

    Each window adds ``A[high:low] + B[high:low]`` and contributes its
    local sum bits ``[result_low-low .. result_high-low]``; the final carry
    out (bit ``width``) is the last window's local carry out — speculative,
    exactly like the hardware.  The first window above a fixed low part
    receives ``a & b`` of the part's top bit as carry-in; later windows
    speculate on raw operand bits only, matching the compiled hardware
    where predictors tap the operand inputs directly.
    """

    def __init__(self, spec: AdderSpec) -> None:
        super().__init__(spec.width, spec.name)
        self.spec = spec
        self.windows = spec.body
        static = spec.static_window
        t = spec.low_bits
        self._low_bits = t
        self._low_mask = mask(t)
        self._hoeraa = static is not None and static.approx == "hoeraa"
        self._rectified = spec.rectified_windows()
        self._plain = not t and not self._rectified
        self._exact = spec.is_exact
        self._out_mask = mask(self.width + 1)
        self._table = _window_table(self.windows, t)
        # The speculative rows, each tagged "not chained" for _walk.
        self._unchained = tuple(row + (False,) for row in self._table[1:])

    @property
    def is_exact(self) -> bool:
        return self._exact

    def _add_impl(self, a: IntLike, b: IntLike) -> IntLike:
        if self._exact:
            # One window over the whole word: its local sum is a + b.
            return a + b
        if self._rectified:
            # A rectify stage implies error_detect, hence no fixed low part.
            return self._walk(a, b)[0]
        t = self._low_bits
        result: IntLike = 0
        if t:
            result = (a | b) & self._low_mask
            if self._hoeraa:
                # HOERAA: the top static bit is a half-adder sum, not an OR.
                top = ((a ^ b) >> (t - 1)) & 1
                result = (result & (self._low_mask >> 1)) | (top << (t - 1))
        local: IntLike = 0
        length = 0
        for low, lmask, length, p, rmask, result_low, _ in self._table:
            local = ((a >> low) & lmask) + ((b >> low) & lmask)
            result = result | (((local >> p) & rmask) << result_low)
        return result | (((local >> length) & 1) << self.width)

    def _walk(self, a: IntLike, b: IntLike,
              chained: Optional[Sequence[bool]] = None,
              total: bool = True) -> Tuple[IntLike, List[IntLike]]:
        """One LSB-first pass over the windows: ``(sum, §3.3 flags)``.

        ``chained`` holds one bool per speculative window ``1..k-1``
        (``None``: none).  A chained window adds its result field with
        the previous window's carry-out instead of its prediction: the
        §3.3 correction of that window, or GDA's accurate carry mux.
        Flag ``i`` is ``cp_i & co_{i-1}`` with ``co_{i-1}`` the carry-out
        this walk computed (entry 0 is 0 in the operands' type).  Since
        ``cp_i`` means the prediction bits all propagate, chaining adds
        exactly the flag at the window's result field.  The rectify
        stage then adds back the flags of the unchained rectified
        windows.  The sum leaves out a fixed low part's bits; with
        ``total=False`` it is not formed (``None``), which keeps
        :meth:`detection_flags` as cheap as the flags alone.
        """
        table = self._table
        low, lmask, length, p, rmask, result_low, _ = table[0]
        local = ((a >> low) & lmask) + ((b >> low) & lmask)
        result = ((local >> p) & rmask) << result_low
        cout = local >> length
        flags: List[IntLike] = [a * 0]
        links = (self._unchained if chained is None else
                 [row + (bool(c),) for row, c in zip(table[1:], chained)])
        for low, lmask, length, p, rmask, result_low, pmask, chain in links:
            a_w, b_w = a >> low, b >> low
            flag = (((a_w ^ b_w) & pmask) == pmask) & cout
            local = (a_w & lmask) + (b_w & lmask)
            if chain:
                local = local + (flag << p)
            if total:
                result = result | (((local >> p) & rmask) << result_low)
            flags.append(flag)
            cout = local >> length
        if not total:
            return None, flags
        result = result | (cout << self.width)
        if self._rectified:
            # The rectified sum never exceeds a + b (a flag only ever
            # marks a carry the window really missed), so the masked-off
            # ripple carry of the netlist stage never fires.
            for i in self._rectified:
                if not links[i - 1][7]:
                    result = result + (flags[i] << table[i][5])
            result = result & self._out_mask
        return result, flags

    def detection_flags(self, a: IntLike, b: IntLike) -> List[IntLike]:
        """§3.3 error-detection flag per speculative window.

        Flag ``i`` (for window index ``i >= 1``) is
        ``AND(propagate over the window's P bits) & carry_out(window i-1)``
        where the previous carry out is the *local speculative* one, exactly
        as the hardware AND gate sees it.  Entry 0 is always 0.  Raises
        :class:`ValueError` for a spec with a fixed low part.
        """
        if self._low_bits:
            require_windowed(self, "detection_flags")
        a = _validate_operand("a", a, self.width)
        b = _validate_operand("b", b, self.width)
        return self._walk(a, b, total=False)[1]

    def error_probability(self) -> float:
        """Exact error probability for uniform operands.

        The closed-form (carry, run) chain
        (:func:`repro.core.error_model.error_probability_windows`) for a
        plain layout; the exact analytic PMF otherwise.  The paper's Eq. 5-7
        value for a GeAr point is
        :func:`repro.core.error_model.paper_error_probability`.
        """
        if self._plain:
            from repro.core.error_model import error_probability_windows

            return error_probability_windows(self.windows, self.width)
        from repro.engine.analytic import adder_error_pmf

        return adder_error_pmf(self).error_rate

    def mean_error_distance(self) -> float:
        """Exact E[|approx - exact|] for uniform operands.

        The O(N) wrap-identity expectation
        (:func:`repro.core.error_model.mean_error_distance_windows`) for a
        plain layout; the exact analytic PMF otherwise.
        """
        if self._plain:
            from repro.core.error_model import mean_error_distance_windows

            return mean_error_distance_windows(self.windows, self.width)
        from repro.engine.analytic import adder_error_pmf

        return adder_error_pmf(self).med

    def max_error_distance(self) -> int:
        """Worst-case ``|approx - exact|`` (see
        :meth:`~repro.spec.ir.AdderSpec.max_error_distance`)."""
        return self.spec.max_error_distance()

    def build_netlist(self):
        return self.spec.to_netlist()

    def fingerprint(self) -> str:
        return self.spec.fingerprint()
