"""Quality metrics used in Table I and Table II.

Definitions (with the source each follows):

* **ED** — error distance ``|approx - exact|``.
* **MED** — mean ED over the evaluated inputs.
* **NED** — normalised ED, ``MED / D_max`` where ``D_max`` is the adder's
  maximum possible error distance (Liang et al.'s normalisation; for
  windowed adders ``D_max = Σ 2^{result_low}`` over speculative windows,
  which our tests show to be tight).  When an adder does not expose
  ``max_error_distance()``, ``2**N`` is used and noted.
* **MRED** — mean relative ED, ``mean(ED / max(exact, 1))``.
* **ACC_amp** — accuracy of amplitude [10]: ``1 - ED/exact`` clamped to
  [0, 1] (defined as 1 when the exact sum is 0 and the result is correct).
* **ACC_inf** — accuracy of information [9]: fraction of output bit
  positions that match the exact sum.
* **MAA acceptance** — for a minimum-acceptable-accuracy threshold ``t``,
  the percentage of results whose ACC_amp is at least ``t`` (the "MAA x%"
  rows of Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.adders.base import AdderModel
from repro.utils.bitvec import mask


def error_distances(adder: AdderModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pair error distance |approx - exact|."""
    return np.abs(adder.add(a, b) - adder.add_exact(a, b))


def accuracy_amplitude(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """ACC_amp per result: 1 - |approx-exact|/exact, clamped to [0, 1]."""
    approx = np.asarray(approx, dtype=np.float64)
    exact_f = np.asarray(exact, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        acc = 1.0 - np.abs(approx - exact_f) / exact_f
    acc = np.where(exact_f == 0, np.where(approx == 0, 1.0, 0.0), acc)
    return np.clip(acc, 0.0, 1.0)


def accuracy_information(approx: np.ndarray, exact: np.ndarray, out_width: int) -> np.ndarray:
    """ACC_inf per result: fraction of matching output bit positions."""
    diff = np.asarray(approx, dtype=np.int64) ^ np.asarray(exact, dtype=np.int64)
    # Only the low ``out_width`` bits are output positions; counting them
    # in the unsigned view keeps two's-complement bits of negative inputs.
    wrong = np.bitwise_count(diff.view(np.uint64) & np.uint64(mask(out_width)))
    return 1.0 - wrong / float(out_width)


def acceptance_probability(acc_amp: np.ndarray, threshold: float) -> float:
    """Fraction (%) of results whose ACC_amp meets ``threshold`` (0..1)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    acc_amp = np.asarray(acc_amp)
    if acc_amp.size == 0:
        raise ValueError("no results to evaluate")
    # Tolerate float dust at exactly the threshold.
    return float(np.mean(acc_amp >= threshold - 1e-12) * 100.0)


#: MAA thresholds reported by Table I.
TABLE1_MAA_THRESHOLDS: Tuple[float, ...] = (1.0, 0.975, 0.95, 0.925, 0.90)


@dataclass
class ErrorStats:
    """Aggregate error metrics over a batch of additions."""

    samples: int
    error_rate: float
    med: float
    ned: float
    mred: float
    max_ed_observed: int
    max_ed_bound: Optional[int]
    acc_amp_avg: float
    acc_inf_avg: float
    maa_acceptance: Dict[float, float] = field(default_factory=dict)

    def maa(self, threshold: float) -> float:
        """Acceptance percentage at an MAA threshold in [0, 1]."""
        if threshold not in self.maa_acceptance:
            raise KeyError(
                f"threshold {threshold} not evaluated; have "
                f"{sorted(self.maa_acceptance)}"
            )
        return self.maa_acceptance[threshold]


def compute_error_stats(
    adder: AdderModel,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    maa_thresholds: Sequence[float] = TABLE1_MAA_THRESHOLDS,
    exact_reference: Optional[np.ndarray] = None,
    approx_values: Optional[np.ndarray] = None,
) -> ErrorStats:
    """Evaluate every Table-I metric for ``adder`` on the given operands.

    ``exact_reference``/``approx_values`` override the single-addition
    semantics for application-level evaluation (e.g. accumulated integral
    image outputs): pass the application's exact and approximate outputs
    and the adder is only consulted for its error-distance bound.  When
    overrides are given, ``a``/``b`` may be omitted.
    """
    if approx_values is None or exact_reference is None:
        if a is None or b is None:
            raise ValueError(
                "operands a and b are required unless both exact_reference "
                "and approx_values are provided"
            )
    if approx_values is None:
        approx_values = np.asarray(adder.add(a, b))
    if exact_reference is None:
        exact_reference = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
    approx_values = np.asarray(approx_values, dtype=np.int64)
    exact_reference = np.asarray(exact_reference, dtype=np.int64)
    if approx_values.shape != exact_reference.shape:
        raise ValueError("approximate and exact outputs must align")
    if approx_values.size == 0:
        raise ValueError("no samples provided")

    ed = np.abs(approx_values - exact_reference)
    bound = getattr(adder, "max_error_distance", None)
    max_bound = int(bound()) if callable(bound) else None
    d_max = max_bound if max_bound else (1 << adder.width)

    acc_amp = accuracy_amplitude(approx_values, exact_reference)
    acc_inf = accuracy_information(approx_values, exact_reference, adder.out_width)
    with np.errstate(divide="ignore", invalid="ignore"):
        red = ed / np.maximum(exact_reference, 1)

    return ErrorStats(
        samples=int(ed.size),
        error_rate=float(np.mean(ed > 0)),
        med=float(np.mean(ed)),
        ned=float(np.mean(ed) / d_max) if d_max else 0.0,
        mred=float(np.mean(red)),
        max_ed_observed=int(ed.max()),
        max_ed_bound=max_bound,
        acc_amp_avg=float(np.mean(acc_amp)),
        acc_inf_avg=float(np.mean(acc_inf)),
        maa_acceptance={t: acceptance_probability(acc_amp, t) for t in maa_thresholds},
    )
