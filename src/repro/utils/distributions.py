"""Operand distributions for Monte-Carlo error evaluation.

The paper's error model assumes every operand bit is an i.i.d. fair coin,
which is exactly what uniform operands give.  Real workloads (image pixels,
filter taps) are *not* uniform, so the library also ships skewed
distributions to study how far the analytic model drifts on realistic data.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from repro.utils.bitvec import mask
from repro.utils.validation import check_pos_int

#: Widest operands whose sum fits an int64 (sampling, ``gear verify``).
INT64_OPERAND_BITS = 62


class OperandDistribution(abc.ABC):
    """A source of operand pairs ``(a, b)`` for an ``N``-bit addition."""

    def __init__(self, width: int) -> None:
        check_pos_int("width", width)
        self.width = width

    @abc.abstractmethod
    def sample(self, count: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` operand pairs as int64 arrays in ``[0, 2**width)``."""

    def sample_pairs(
        self, count: int, seed: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Convenience wrapper creating a seeded generator internally."""
        rng = np.random.default_rng(seed)
        a, b = self.sample(count, rng)
        limit = mask(self.width)
        if (a.max(initial=0) > limit or b.max(initial=0) > limit
                or a.min(initial=0) < 0 or b.min(initial=0) < 0):
            raise AssertionError("distribution produced out-of-range operands")
        return a, b

    def bit_probabilities(self) -> Optional[Tuple[float, ...]]:
        """Per-bit one-probabilities, when the distribution has that form.

        Returns ``width`` floats — ``p[i]`` is the probability that bit
        ``i`` of a drawn operand is one, with all bits independent and
        both operands i.i.d. — or ``None`` when the distribution cannot
        be factored per bit (Gaussian, exponential, image patches, ...).
        The analytic engine backend serves Monte-Carlo requests exactly
        for distributions that return a profile here.
        """
        return None

    def fingerprint(self) -> str:
        """Stable identity string for the engine's shard cache keys.

        Covers the class, the width and every scalar constructor parameter
        stored on the instance; distributions carrying array state (e.g.
        :class:`ImagePatchOperands`) extend it with a content hash.
        """
        scalars = {
            k: v for k, v in sorted(vars(self).items())
            if isinstance(v, (int, float, str, bool))
        }
        params = ",".join(f"{k}={v!r}" for k, v in scalars.items())
        return f"{type(self).__module__}.{type(self).__qualname__}({params})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(width={self.width})"

    def _check_int64_sums(self) -> None:
        if self.width > INT64_OPERAND_BITS:
            raise ValueError(
                f"{type(self).__name__} samples at most {INT64_OPERAND_BITS}"
                f"-bit operands (their sums must fit int64), got width "
                f"{self.width}")


class UniformOperands(OperandDistribution):
    """Independent uniform operands — the paper's evaluation setting (§4.4).

    :meth:`sample` draws at most 62-bit operands, so that ``a + b`` fits
    int64; construction and :meth:`bit_probabilities` hold at any width.
    """

    def sample(self, count: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        self._check_int64_sums()
        high = 1 << self.width
        a = rng.integers(0, high, size=count, dtype=np.int64)
        b = rng.integers(0, high, size=count, dtype=np.int64)
        return a, b

    def bit_probabilities(self) -> Tuple[float, ...]:
        return (0.5,) * self.width


class GaussianOperands(OperandDistribution):
    """Clipped Gaussian operands centred mid-range.

    Models signal-like data (e.g. filtered sensor values) whose MSBs are far
    less active than uniform data assumes.
    """

    def __init__(self, width: int, mean_fraction: float = 0.5, std_fraction: float = 0.15) -> None:
        super().__init__(width)
        if not 0.0 <= mean_fraction <= 1.0:
            raise ValueError(f"mean_fraction must be in [0, 1], got {mean_fraction}")
        if std_fraction <= 0.0:
            raise ValueError(f"std_fraction must be positive, got {std_fraction}")
        self.mean_fraction = mean_fraction
        self.std_fraction = std_fraction

    def sample(self, count: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        top = float(mask(self.width))
        mean = self.mean_fraction * top
        std = self.std_fraction * top

        def draw() -> np.ndarray:
            raw = rng.normal(mean, std, size=count)
            return np.clip(np.rint(raw), 0, top).astype(np.int64)

        return draw(), draw()


class ExponentialOperands(OperandDistribution):
    """Exponentially distributed operands — small values dominate.

    Typical of residuals and difference signals (e.g. SAD inputs after
    motion compensation).
    """

    def __init__(self, width: int, scale_fraction: float = 0.1) -> None:
        super().__init__(width)
        if scale_fraction <= 0.0:
            raise ValueError(f"scale_fraction must be positive, got {scale_fraction}")
        self.scale_fraction = scale_fraction

    def sample(self, count: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        top = float(mask(self.width))
        scale = self.scale_fraction * top

        def draw() -> np.ndarray:
            raw = rng.exponential(scale, size=count)
            return np.clip(np.rint(raw), 0, top).astype(np.int64)

        return draw(), draw()


class SparseOperands(OperandDistribution):
    """Operands with each bit independently 1 with probability ``one_density``.

    ``one_density=0.5`` is equivalent to :class:`UniformOperands`; lower
    densities model sparse data where carries are rare, higher densities
    model near-saturated data where long carry chains abound.

    :meth:`sample` draws at most 62-bit operands; construction and
    :meth:`bit_probabilities` hold at any width, so the analytic backend
    can still serve wider requests without sampling.
    """

    def __init__(self, width: int, one_density: float = 0.5) -> None:
        super().__init__(width)
        if not 0.0 <= one_density <= 1.0:
            raise ValueError(f"one_density must be in [0, 1], got {one_density}")
        self.one_density = one_density

    def sample(self, count: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        self._check_int64_sums()
        nbytes = (self.width + 7) // 8

        def draw() -> np.ndarray:
            bits = rng.random(size=(count, self.width)) < self.one_density
            # Bit i of the operand is bit i % 8 of byte i // 8: packed
            # little-endian into zero-padded 8-byte rows, each row *is* the
            # int64 operand.
            packed = np.zeros((count, 8), dtype=np.uint8)
            packed[:, :nbytes] = np.packbits(bits, axis=1, bitorder="little")
            return packed.view("<i8").ravel()

        return draw(), draw()

    def bit_probabilities(self) -> Tuple[float, ...]:
        return (self.one_density,) * self.width


class ImagePatchOperands(OperandDistribution):
    """Operand pairs drawn from adjacent pixels of a synthetic image.

    Reproduces the statistics the paper's Image Integral / SAD / LPF kernels
    feed their adders: spatially correlated 8-bit-ish values extended to the
    adder width.  The image is provided by :mod:`repro.apps.images`; this
    class only needs a 2-D uint array.
    """

    def __init__(self, width: int, image: np.ndarray) -> None:
        super().__init__(width)
        image = np.asarray(image)
        if image.ndim != 2 or image.size < 2:
            raise ValueError("image must be a 2-D array with at least two pixels")
        if image.min() < 0 or image.max() > mask(width):
            raise ValueError(f"image values must fit in {width} bits")
        self.image = image.astype(np.int64)

    def fingerprint(self) -> str:
        import hashlib

        digest = hashlib.sha256(
            np.ascontiguousarray(self.image).tobytes()
        ).hexdigest()[:16]
        return f"{super().fingerprint()}:image={digest}"

    def sample(self, count: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        rows, cols = self.image.shape
        r = rng.integers(0, rows, size=count)
        c = rng.integers(0, cols - 1, size=count)
        a = self.image[r, c]
        b = self.image[r, c + 1]
        return a, b
