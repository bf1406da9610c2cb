"""Error-spectrum analysis: *where* and *how big* the errors are.

MED/NED compress the error behaviour to one number; the spectrum keeps the
structure that matters for application tuning:

* the PMF of error magnitudes (always sums of powers of two for windowed
  adders — each term one missed carry, minus wrap cancellations),
* per-window attribution: which speculative sub-adder caused how much of
  the total error mass (this is what justifies MSB-first selective
  correction in the §3.3 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.spec.model import SpecAdder, require_windowed
from repro.utils.distributions import OperandDistribution, UniformOperands
from repro.utils.validation import check_pos_int


@dataclass(frozen=True)
class ErrorSpectrum:
    """Measured error structure of a windowed speculative adder."""

    adder_name: str
    samples: int
    magnitude_pmf: Dict[int, float]
    window_miss_rate: List[float]
    window_error_mass: List[float]

    @property
    def error_rate(self) -> float:
        return 1.0 - self.magnitude_pmf.get(0, 0.0)

    @property
    def med(self) -> float:
        return sum(mag * p for mag, p in self.magnitude_pmf.items())

    def dominant_window(self) -> Optional[int]:
        """Index (1-based speculative) of the window with most error mass."""
        if not any(self.window_error_mass):
            return None
        return int(np.argmax(self.window_error_mass)) + 1


def error_spectrum(
    adder: SpecAdder,
    samples: int = 100_000,
    seed: int = 2015,
    distribution: Optional[OperandDistribution] = None,
) -> ErrorSpectrum:
    """Monte-Carlo error spectrum of a windowed adder.

    Window attribution uses the exact miss indicator per window (true carry
    into the window differs from its local speculation), less the misses a
    rectify stage repairs; each miss of window *i* contributes
    ``2^{result_low_i}`` of (pre-cancellation) error mass.  A spec with a
    fixed low part (truncation or a static window) raises
    :class:`ValueError`: the attribution covers windows only.
    """
    require_windowed(adder, "error_spectrum")
    check_pos_int("samples", samples)
    dist = distribution or UniformOperands(adder.width)
    a, b = dist.sample_pairs(samples, seed=seed)
    exact = a + b
    approx = np.asarray(adder.add(a, b))
    err = exact - approx

    values, counts = np.unique(err, return_counts=True)
    pmf = {int(v): float(c) / samples for v, c in zip(values, counts)}

    # The fully chained walk is exact, so its flag i marks a true carry
    # into window i's all-propagating prediction bits: a miss.  A rectify
    # stage repairs the misses its window's own speculative flag sees.
    windows = adder.windows
    _, misses = adder._walk(a, b, (True,) * (len(windows) - 1), total=False)
    rectified = adder.spec.rectified_windows()
    if rectified:
        _, seen = adder._walk(a, b, total=False)
        for i in rectified:
            misses[i] = misses[i] & (seen[i] ^ 1)
    miss_rates = [float(np.mean(miss)) for miss in misses[1:]]
    masses = [rate * float(1 << w.result_low)
              for rate, w in zip(miss_rates, windows[1:])]
    return ErrorSpectrum(
        adder_name=adder.name,
        samples=samples,
        magnitude_pmf=pmf,
        window_miss_rate=miss_rates,
        window_error_mass=masses,
    )


def spectrum_table(spectrum: ErrorSpectrum, top: int = 10) -> str:
    """Human-readable summary of the largest error magnitudes."""
    from repro.analysis.tables import format_table

    nonzero = [(m, p) for m, p in sorted(spectrum.magnitude_pmf.items())
               if m != 0]
    nonzero.sort(key=lambda item: item[1], reverse=True)
    rows = [(mag, f"{p:.6f}") for mag, p in nonzero[:top]]
    return format_table(
        ["|error|", "probability"],
        rows,
        title=(
            f"Error spectrum of {spectrum.adder_name}: rate "
            f"{spectrum.error_rate:.5f}, MED {spectrum.med:.4f}"
        ),
    )
