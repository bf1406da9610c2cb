"""Common interface for all adder models.

The central abstraction is :class:`AdderModel`.  Every adder the IR
can express — GeAr, ACA-I/II, ETAII(M), GDA, LOA, HOERAA and the exact
RCA/CLA/KSA — is one :class:`~repro.spec.model.SpecAdder` compiled from
its :class:`~repro.spec.ir.AdderSpec`; the remaining subclasses here are
the models the IR cannot express (carry-select/skip, ETAI).

Conventions:

* operands are unsigned and must fit in ``width`` bits,
* the returned sum has ``width + 1`` significant bits (MSB = carry out),
* all methods accept plain ints or NumPy integer arrays and vectorise over
  the latter.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np

from repro.utils.bitvec import mask
from repro.utils.validation import check_pos_int

IntLike = Union[int, np.ndarray]


def _validate_operand(name: str, value: IntLike, width: int) -> IntLike:
    if type(value) is int:  # the scalar hot path; bool takes the long way
        if 0 <= value and not value >> width:
            return value
        raise ValueError(f"{name}={value} does not fit in {width} bits")
    limit = mask(width)
    if isinstance(value, np.ndarray):
        if not np.issubdtype(value.dtype, np.integer):
            raise TypeError(f"{name} must be an integer array, got dtype {value.dtype}")
        if value.size and (value.min() < 0 or value.max() > limit):
            raise ValueError(f"{name} contains values outside [0, {limit}]")
        return value.astype(np.int64, copy=False)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int or integer array, got {type(value).__name__}")
    if not 0 <= int(value) <= limit:
        raise ValueError(f"{name}={value} does not fit in {width} bits")
    return int(value)


class AdderModel(abc.ABC):
    """An ``N``-bit adder producing an ``N+1``-bit (possibly approximate) sum."""

    def __init__(self, width: int, name: str) -> None:
        check_pos_int("width", width)
        self.width = width
        self.name = name

    # -- core behaviour ----------------------------------------------------

    @abc.abstractmethod
    def _add_impl(self, a: IntLike, b: IntLike) -> IntLike:
        """Compute the adder's sum for validated operands."""

    def add(self, a: IntLike, b: IntLike) -> IntLike:
        """Adder output for ``a + b`` (scalars or arrays, range-checked)."""
        a = _validate_operand("a", a, self.width)
        b = _validate_operand("b", b, self.width)
        return self._add_impl(a, b)

    def add_exact(self, a: IntLike, b: IntLike) -> IntLike:
        """Reference exact sum (same validation as :meth:`add`)."""
        a = _validate_operand("a", a, self.width)
        b = _validate_operand("b", b, self.width)
        return a + b

    def error_distance(self, a: IntLike, b: IntLike) -> IntLike:
        """``|approximate - exact|`` per operand pair."""
        a = _validate_operand("a", a, self.width)
        b = _validate_operand("b", b, self.width)
        diff = self._add_impl(a, b) - (a + b)
        return np.abs(diff) if isinstance(diff, np.ndarray) else abs(diff)

    # -- optional capabilities ----------------------------------------------

    @property
    def out_width(self) -> int:
        """Number of output bits (sum plus carry out)."""
        return self.width + 1

    @property
    def is_exact(self) -> bool:
        """True when the adder never errs (RCA, CLA, CSLA, ...)."""
        return False

    def error_probability(self) -> Optional[float]:
        """Exact probability of an erroneous sum for uniform operands.

        Returns ``None`` when no analytic model is available for this
        architecture (e.g. ETAI).  The paper's §3.2 value, where it
        differs, is :func:`repro.core.error_model.paper_error_probability`.
        """
        return None

    def build_netlist(self):
        """Gate-level netlist of this adder, or ``None`` when not modelled."""
        return None

    def fingerprint(self) -> str:
        """Stable identity string for the engine's shard cache keys.

        Two adders with equal fingerprints must compute identical sums for
        every operand pair.  The default covers models fully determined by
        class, width and name; subclasses with extra behavioural state
        (window layouts, correction masks) must extend it.
        """
        return (f"{type(self).__module__}.{type(self).__qualname__}"
                f":w{self.width}:{self.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(width={self.width}, name={self.name!r})"


class ExactAdder(AdderModel):
    """Base class for adders that always produce the true sum."""

    @property
    def is_exact(self) -> bool:
        return True

    def error_probability(self) -> float:
        return 0.0

    def _add_impl(self, a: IntLike, b: IntLike) -> IntLike:
        return a + b
