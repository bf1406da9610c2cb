"""Unit tests for repro.utils.distributions."""

import numpy as np
import pytest

from repro.utils.distributions import (
    ExponentialOperands,
    GaussianOperands,
    ImagePatchOperands,
    SparseOperands,
    UniformOperands,
)


class TestUniform:
    def test_range(self):
        a, b = UniformOperands(8).sample_pairs(5000, seed=1)
        assert a.min() >= 0 and a.max() <= 255
        assert b.min() >= 0 and b.max() <= 255

    def test_determinism(self):
        d = UniformOperands(12)
        a1, b1 = d.sample_pairs(100, seed=7)
        a2, b2 = d.sample_pairs(100, seed=7)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_different_seeds_differ(self):
        d = UniformOperands(12)
        a1, _ = d.sample_pairs(100, seed=1)
        a2, _ = d.sample_pairs(100, seed=2)
        assert not np.array_equal(a1, a2)

    def test_bit_balance(self):
        # Every bit should be ~50% ones for uniform operands.
        a, _ = UniformOperands(10).sample_pairs(20000, seed=3)
        for i in range(10):
            density = np.mean((a >> i) & 1)
            assert 0.46 < density < 0.54

    def test_invalid_width(self):
        with pytest.raises((ValueError, TypeError)):
            UniformOperands(0)

    def test_samples_at_most_62_bits(self):
        a, b = UniformOperands(62).sample_pairs(1000, seed=5)
        assert (a + b).min() >= 0  # the sum still fits int64
        for width in (63, 64, 128):
            dist = UniformOperands(width)
            assert dist.bit_probabilities() == (0.5,) * width
            with pytest.raises(ValueError, match="at most 62-bit"):
                dist.sample_pairs(10, seed=1)


class TestGaussian:
    def test_range_and_concentration(self):
        d = GaussianOperands(8, mean_fraction=0.5, std_fraction=0.1)
        a, b = d.sample_pairs(5000, seed=1)
        assert a.min() >= 0 and a.max() <= 255
        assert 100 < a.mean() < 155
        assert a.std() < 40

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GaussianOperands(8, mean_fraction=1.5)
        with pytest.raises(ValueError):
            GaussianOperands(8, std_fraction=0.0)


class TestExponential:
    def test_small_values_dominate(self):
        a, _ = ExponentialOperands(8, scale_fraction=0.05).sample_pairs(5000, seed=2)
        assert np.median(a) < 32

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ExponentialOperands(8, scale_fraction=-1.0)


class TestSparse:
    def test_density_extremes(self):
        zeros, _ = SparseOperands(8, one_density=0.0).sample_pairs(100, seed=1)
        assert zeros.max() == 0
        ones, _ = SparseOperands(8, one_density=1.0).sample_pairs(100, seed=1)
        assert ones.min() == 255

    def test_half_density_is_uniform_like(self):
        a, _ = SparseOperands(8, one_density=0.5).sample_pairs(20000, seed=4)
        assert 110 < a.mean() < 145

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            SparseOperands(8, one_density=1.1)


class TestImagePatch:
    def test_samples_come_from_image(self):
        image = np.arange(64).reshape(8, 8)
        d = ImagePatchOperands(8, image)
        a, b = d.sample_pairs(500, seed=5)
        assert set(np.unique(a)) <= set(range(64))
        # b is always the right neighbour of a.
        np.testing.assert_array_equal(b, a + 1)

    def test_rejects_out_of_range_image(self):
        with pytest.raises(ValueError):
            ImagePatchOperands(4, np.array([[0, 255]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ImagePatchOperands(8, np.arange(10))
