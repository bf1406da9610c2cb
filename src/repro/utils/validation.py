"""Tiny argument-validation helpers used across the package.

Centralising these keeps error messages consistent (`name must be ...`) and
keeps the adder constructors short.
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


def check_pos_int(name: str, value: int) -> int:
    """Require ``value`` to be a positive int (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonneg_int(name: str, value: int) -> int:
    """Require ``value`` to be a non-negative int (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def positive_count(value: int) -> int:
    """The request count rule; CLI and wire each prefix the field name."""
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def seed_value(value: int) -> int:
    """The request seed rule: NumPy seeds only from non-negative integers."""
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {value}")
    return value


def check_in_range(name: str, value: Number, low: Number, high: Number) -> Number:
    """Require ``low <= value <= high``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_prob(name: str, value: float) -> float:
    """Require ``value`` to be a probability in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return float(value)
