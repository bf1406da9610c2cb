"""Error model for non-uniform operands: per-bit generate/propagate rates.

§3.2 hard-codes ρ[Pr] = 1/2 and ρ[Gr] = 1/4 — correct for uniform
operands, off by an order of magnitude for skewed real-world data (see the
distribution ablation).  This module measures the per-bit-position
(generate, propagate) rates of an operand source
(:func:`estimate_bit_statistics`) and feeds them to the one exact
carry/run-length chain, :func:`repro.core.error_model.error_probability_windows`
(:func:`predict_error_rate`).

The prediction is exact when operand bits are independent across
positions; real data has cross-bit correlation, so residual gaps remain —
but the bitwise model closes most of the distance between the paper's
uniform model and the measured rate (quantified in tests and the
distribution bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.error_model import error_probability_windows
from repro.utils.distributions import OperandDistribution
from repro.utils.validation import check_pos_int


@dataclass(frozen=True)
class BitStatistics:
    """Per-bit-position signal rates of an operand source.

    Attributes:
        generate: P(a_i AND b_i) per position i.
        propagate: P(a_i XOR b_i) per position i.
    """

    generate: Tuple[float, ...]
    propagate: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.generate) != len(self.propagate):
            raise ValueError("generate/propagate vectors must align")
        for i, (g, p) in enumerate(zip(self.generate, self.propagate)):
            if not (0.0 <= g <= 1.0 and 0.0 <= p <= 1.0 and g + p <= 1.0 + 1e-9):
                raise ValueError(f"invalid rates at bit {i}: g={g}, p={p}")

    @property
    def width(self) -> int:
        return len(self.generate)

    @property
    def rates(self) -> Tuple[Tuple[float, float], ...]:
        """Per-bit ``(generate, propagate)`` pairs, the chain's input."""
        return tuple(zip(self.generate, self.propagate))

    @classmethod
    def uniform(cls, width: int) -> "BitStatistics":
        """The paper's assumption: g = 1/4, p = 1/2 at every position."""
        check_pos_int("width", width)
        return cls(generate=(0.25,) * width, propagate=(0.5,) * width)


def estimate_bit_statistics(a: np.ndarray, b: np.ndarray, width: int) -> BitStatistics:
    """Measure per-position generate/propagate rates from operand samples."""
    check_pos_int("width", width)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("need equal-length non-empty operand arrays")
    gen: List[float] = []
    prop: List[float] = []
    for i in range(width):
        ai = (a >> i) & 1
        bi = (b >> i) & 1
        gen.append(float(np.mean(ai & bi)))
        prop.append(float(np.mean(ai ^ bi)))
    return BitStatistics(generate=tuple(gen), propagate=tuple(prop))


def statistics_from_distribution(
    distribution: OperandDistribution,
    samples: int = 100_000,
    seed: Optional[int] = 2015,
) -> BitStatistics:
    """Convenience: estimate bit statistics for a distribution object."""
    a, b = distribution.sample_pairs(samples, seed=seed)
    return estimate_bit_statistics(a, b, distribution.width)


def predict_error_rate(
    adder,
    distribution: OperandDistribution,
    samples: int = 100_000,
    seed: Optional[int] = 2015,
) -> float:
    """Bitwise-model prediction of ``adder``'s error rate on a distribution.

    Runs the chain over the model's own layout (``adder.windows``, of
    width ``adder.width``).  A fixed low part or a rectify stage changes
    the sum outside that chain, so such an adder is refused.
    """
    if adder.spec.low_bits or adder.spec.rectify is not None:
        raise ValueError(
            f"predict_error_rate models plain window layouts; {adder.name!r} "
            "has a fixed low part or a rectify stage")
    stats = statistics_from_distribution(distribution, samples=samples, seed=seed)
    return error_probability_windows(adder.windows, adder.width,
                                     rates=stats.rates)
