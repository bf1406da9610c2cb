"""Unit tests for error-spectrum analysis."""

import numpy as np
import pytest

from repro.core.gear import GeArAdder, GeArConfig
from repro.metrics.spectrum import ErrorSpectrum, error_spectrum, spectrum_table
from repro.utils.distributions import SparseOperands


class TestErrorSpectrum:
    @pytest.fixture(scope="class")
    def spectrum(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        return error_spectrum(adder, samples=200_000, seed=1)

    def test_pmf_sums_to_one(self, spectrum):
        assert sum(spectrum.magnitude_pmf.values()) == pytest.approx(1.0)

    def test_error_rate_matches_model(self, spectrum):
        expected = GeArAdder(GeArConfig(12, 4, 4)).error_probability()
        assert spectrum.error_rate == pytest.approx(expected, abs=2e-3)

    def test_med_matches_model(self, spectrum):
        expected = GeArAdder(GeArConfig(12, 4, 4)).mean_error_distance()
        assert spectrum.med == pytest.approx(expected, rel=0.1)

    def test_magnitudes_are_power_of_two_combinations(self, spectrum):
        # For k=2 every error is exactly one missed carry: 2^{result_low}.
        assert set(spectrum.magnitude_pmf) <= {0, 1 << 8}

    def test_window_attribution(self, spectrum):
        assert len(spectrum.window_miss_rate) == 1
        assert spectrum.window_miss_rate[0] == pytest.approx(
            spectrum.error_rate, abs=1e-9
        )
        assert spectrum.dominant_window() == 1

    def test_multi_window_attribution_msb_heavy(self):
        adder = GeArAdder(GeArConfig(16, 2, 2))
        spec = error_spectrum(adder, samples=100_000, seed=2)
        # Error *mass* (weighted by 2^{result_low}) is dominated by the
        # most significant window even though miss rates are similar.
        assert spec.dominant_window() == len(adder.windows) - 1
        assert spec.window_error_mass == sorted(spec.window_error_mass)

    def test_distribution_dependence(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        sparse = error_spectrum(adder, samples=50_000, seed=3,
                                distribution=SparseOperands(12, 0.15))
        uniform = error_spectrum(adder, samples=50_000, seed=3)
        assert sparse.error_rate < uniform.error_rate

    def test_exact_adder_spectrum(self):
        adder = GeArAdder(GeArConfig(8, 4, 4))
        spec = error_spectrum(adder, samples=10_000, seed=4)
        assert spec.error_rate == 0.0
        assert spec.magnitude_pmf == {0: 1.0}
        assert spec.dominant_window() is None

    def test_table_rendering(self, spectrum):
        text = spectrum_table(spectrum)
        assert "Error spectrum" in text
        assert "256" in text
