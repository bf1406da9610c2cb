"""Approximate array multiplier built from configurable adders.

A natural extension of the paper (its intro motivates adders as the most
common operator *inside* larger units): an N×N array multiplier reduces N
shifted partial products with N-1 additions, so replacing the reduction
adders with GeAr configurations yields an accuracy-configurable multiplier
whose quality knob is exactly the paper's (R, P).

The accumulator is ``2N`` bits wide; products never overflow it, and the
approximate accumulation error is the sum of the individual addition
errors, so the adder's error model gives a (loose) per-product bound.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.adders.base import AdderModel, IntLike
from repro.utils.bitvec import mask
from repro.utils.validation import check_pos_int

AdderFactory = Callable[[int], AdderModel]


class ApproximateMultiplier:
    """N×N unsigned array multiplier with a configurable reduction adder.

    Args:
        width: operand width N (product width is 2N).
        adder: a ``2N``-bit adder instance for the partial-product
            reduction, or ``None`` for an exact reference multiplier.

    Example::

        from repro.core.gear import GeArAdder, GeArConfig
        mul = ApproximateMultiplier(8, GeArAdder(GeArConfig(16, 4, 4)))
        mul.multiply(200, 120)
    """

    def __init__(self, width: int, adder: Optional[AdderModel] = None) -> None:
        check_pos_int("width", width)
        if adder is not None and adder.width != 2 * width:
            raise ValueError(
                f"reduction adder must be {2 * width} bits wide, "
                f"got {adder.width}"
            )
        self.width = width
        self.adder = adder

    @property
    def out_width(self) -> int:
        return 2 * self.width

    def _validate(self, name: str, value: IntLike) -> IntLike:
        limit = mask(self.width)
        if isinstance(value, np.ndarray):
            if not np.issubdtype(value.dtype, np.integer):
                raise TypeError(f"{name} must be an integer array")
            if value.size and (value.min() < 0 or value.max() > limit):
                raise ValueError(f"{name} outside [0, {limit}]")
            return value.astype(np.int64, copy=False)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an int")
        if not 0 <= int(value) <= limit:
            raise ValueError(f"{name}={value} outside [0, {limit}]")
        return int(value)

    def multiply(self, a: IntLike, b: IntLike) -> IntLike:
        """(Approximate) product; vectorises over arrays."""
        a = self._validate("a", a)
        b = self._validate("b", b)
        if self.adder is None:
            return a * b
        wide = mask(2 * self.width)
        acc: IntLike = a * 0 if isinstance(a, np.ndarray) else 0
        for i in range(self.width):
            bit = (b >> i) & 1
            partial = (a * bit) << i
            summed = self.adder.add(acc, partial)
            acc = summed & wide  # product fits 2N bits; drop the carry rail
        return acc

    def multiply_exact(self, a: IntLike, b: IntLike) -> IntLike:
        a = self._validate("a", a)
        b = self._validate("b", b)
        return a * b

    def error_distance(self, a: IntLike, b: IntLike) -> IntLike:
        diff = self.multiply(a, b) - self.multiply_exact(a, b)
        return np.abs(diff) if isinstance(diff, np.ndarray) else abs(diff)

    def mean_relative_error(self, samples: int = 20_000, seed: int = 11) -> float:
        """Monte-Carlo MRED over uniform operands (quality figure)."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1 << self.width, size=samples, dtype=np.int64)
        b = rng.integers(0, 1 << self.width, size=samples, dtype=np.int64)
        err = np.abs(np.asarray(self.multiply(a, b)) - a * b)
        return float(np.mean(err / np.maximum(a * b, 1)))


def make_gear_multiplier(width: int, r: int, p: int) -> ApproximateMultiplier:
    """Convenience: N×N multiplier reducing with GeAr(2N, R, P)."""
    from repro.core.gear import GeArAdder, GeArConfig

    n = 2 * width
    strict = (n - r - p) % r == 0
    adder = GeArAdder(GeArConfig(n, r, p, allow_partial=not strict))
    return ApproximateMultiplier(width, adder)


def make_exact_multiplier(width: int) -> ApproximateMultiplier:
    """Reference multiplier reducing with an exact RCA."""
    from repro.adders import RippleCarryAdder

    return ApproximateMultiplier(width, RippleCarryAdder(2 * width))
