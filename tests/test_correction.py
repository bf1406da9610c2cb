"""Unit tests for the §3.3 error detection/correction engine."""

import numpy as np
import pytest

from repro.adders import GracefullyDegradingAdder, add_with_selects
from repro.core.correction import ErrorCorrector
from repro.core.gear import GeArAdder, GeArConfig
from repro.metrics.spectrum import error_spectrum
from repro.spec.catalog import catalog_spec
from tests.conftest import random_pairs


def _exhaustive_pairs(width):
    size = 1 << width
    vals = np.arange(size, dtype=np.int64)
    return np.repeat(vals, size), np.tile(vals, size)


class TestFullCorrectionExactness:
    @pytest.mark.parametrize("n,r,p", [
        (8, 1, 1), (8, 2, 2), (8, 1, 3), (8, 2, 4), (10, 2, 2),
    ])
    def test_exhaustive_exactness(self, n, r, p):
        adder = GeArAdder(GeArConfig(n, r, p))
        a, b = _exhaustive_pairs(n)
        result = ErrorCorrector(adder).add(a, b)
        np.testing.assert_array_equal(result.value, a + b)

    def test_partial_config_exactness(self):
        adder = GeArAdder(GeArConfig(10, 3, 3, allow_partial=True))
        a, b = _exhaustive_pairs(10)
        result = ErrorCorrector(adder).add(a, b)
        np.testing.assert_array_equal(result.value, a + b)

    def test_gda_correction_exactness(self):
        adder = GracefullyDegradingAdder(8, 2, 2)
        a, b = _exhaustive_pairs(8)
        result = ErrorCorrector(adder).add(a, b)
        np.testing.assert_array_equal(result.value, a + b)

    def test_wide_config_random(self):
        adder = GeArAdder(GeArConfig(24, 4, 4))
        a, b = random_pairs(24, 50000, seed=1)
        result = ErrorCorrector(adder).add(a, b)
        np.testing.assert_array_equal(result.value, a + b)


class TestCycleAccounting:
    def test_error_free_addition_is_one_cycle(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        result = ErrorCorrector(adder).add(3, 4)
        assert result.cycles == 1
        assert result.corrections == 0

    def test_single_error_two_cycles(self):
        # Fig. 5 discussion: one erroneous sub-adder -> 2 cycles.
        adder = GeArAdder(GeArConfig(12, 4, 4))
        result = ErrorCorrector(adder).add(0b000011111111, 0b000000000001)
        assert result.cycles == 2
        assert result.corrections == 1

    def test_fig6_worst_case_three_cycles(self):
        # Fig. 6: k=3, both speculative sub-adders wrong -> 3 cycles.
        adder = GeArAdder(GeArConfig(12, 2, 6))
        a, b = 0b111111111111, 0b000000000001
        result = ErrorCorrector(adder).add(a, b)
        assert result.value == a + b
        assert result.cycles == 3
        assert result.corrections == 2

    def test_cycles_bounded_by_k(self):
        cfg = GeArConfig(8, 1, 1)  # k = 7
        adder = GeArAdder(cfg)
        a, b = _exhaustive_pairs(8)
        result = ErrorCorrector(adder).add(a, b)
        assert int(np.max(result.cycles)) <= cfg.k
        assert ErrorCorrector(adder).max_cycles == cfg.k

    def test_mean_cycles_close_to_model(self):
        # E[cycles] = 1 + E[#corrections]; for k=2 this is 1 + p_err.
        cfg = GeArConfig(12, 4, 4)
        adder = GeArAdder(cfg)
        a, b = _exhaustive_pairs(12)
        result = ErrorCorrector(adder).add(a, b)
        mean_cycles = float(np.mean(result.cycles))
        assert mean_cycles == pytest.approx(1 + adder.error_probability(), abs=1e-9)


class TestSelectiveCorrection:
    def test_disabled_equals_plain_adder(self):
        adder = GeArAdder(GeArConfig(12, 2, 6))
        corrector = ErrorCorrector(adder, enabled=[False, False])
        a, b = random_pairs(12, 5000, seed=2)
        result = corrector.add(a, b)
        np.testing.assert_array_equal(result.value, np.asarray(adder.add(a, b)))
        assert int(np.max(result.cycles)) == 1

    def test_msb_only_removes_top_errors(self):
        adder = GeArAdder(GeArConfig(12, 2, 6))
        a, b = random_pairs(12, 20000, seed=3)
        full = np.asarray(ErrorCorrector(adder).add(a, b).value)
        msb = ErrorCorrector(adder, enabled=[False, True]).add(a, b)
        residual = np.abs(np.asarray(msb.value) - (a + b))
        # MSB window errors (weight 2^10) must be gone...
        assert residual.max() < (1 << 10)
        np.testing.assert_array_equal(full, a + b)

    def test_enabled_mask_length_checked(self):
        adder = GeArAdder(GeArConfig(12, 2, 6))
        with pytest.raises(ValueError):
            ErrorCorrector(adder, enabled=[True])

    def test_non_suffix_mask_can_hurt(self):
        # Reproduction finding: the §3.3 control signal is hazardous for
        # masks that enable a sub-adder but disable the one above it.
        # GeAr(11,3,1) partial, a=16, b=1008: correcting sub-adder 3 wraps
        # its all-ones field to zero and hands the carry to sub-adder 4,
        # which is disabled — the "corrected" result is *worse*.
        cfg = GeArConfig(11, 3, 1, allow_partial=True)
        adder = GeArAdder(cfg)
        a, b = 16, 1008
        plain_err = (a + b) - adder.add(a, b)
        bad_mask = [False, True, False]  # sub-adder 3 on, 4 off
        hurt = ErrorCorrector(adder, enabled=bad_mask).add(a, b)
        assert (a + b) - hurt.value > plain_err
        # The suffix-closed mask covering the same sub-adder is safe.
        safe_mask = [False, True, True]
        safe = ErrorCorrector(adder, enabled=safe_mask).add(a, b)
        assert 0 <= (a + b) - safe.value <= plain_err

    def test_partial_enable_never_worse_than_none(self):
        adder = GeArAdder(GeArConfig(16, 2, 2))
        a, b = random_pairs(16, 20000, seed=4)
        none = np.abs(np.asarray(adder.add(a, b)) - (a + b)).mean()
        spec = adder.config.k - 1
        for enabled_count in (1, 3, spec):
            mask = [i >= spec - enabled_count for i in range(spec)]
            res = ErrorCorrector(adder, enabled=mask).add(a, b)
            med = np.abs(np.asarray(res.value) - (a + b)).mean()
            assert med <= none + 1e-12


class TestInterface:
    def test_scalar_result_types(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        result = ErrorCorrector(adder).add(100, 200)
        assert isinstance(result.value, int)
        assert isinstance(result.cycles, int)
        assert isinstance(result.corrections, int)

    def test_operand_validation(self):
        adder = GeArAdder(GeArConfig(8, 2, 2))
        with pytest.raises(ValueError):
            ErrorCorrector(adder).add(256, 0)

    def test_initial_flags_reported(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        result = ErrorCorrector(adder).add(0b000011111111, 0b000000000001)
        assert result.initial_flags == 0b10  # flag of sub-adder index 1

    def test_broadcasting(self):
        adder = GeArAdder(GeArConfig(8, 2, 2))
        result = ErrorCorrector(adder).add(np.array([1, 2, 3]), 5)
        np.testing.assert_array_equal(result.value, [6, 7, 8])


class TestFixedLowPart:
    """Window-rebuilding helpers refuse specs with a fixed low part.

    LOA's OR bits and a static window sit below ``adder.windows``; a sum
    rebuilt from the windows alone would drop them (300 becomes 288 for
    ``200 + 100`` at N=8), so every such entry point raises instead.
    """

    FAMILIES = ["loa_half", "loa_static", "hoeraa"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_model_keeps_the_low_bits(self, family):
        assert catalog_spec(family, 8).to_model().add(200, 100) == 300

    @pytest.mark.parametrize("family", FAMILIES)
    def test_error_corrector_rejects(self, family):
        with pytest.raises(ValueError, match="fixed low part"):
            ErrorCorrector(catalog_spec(family, 8).to_model())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_add_with_selects_rejects(self, family):
        with pytest.raises(ValueError, match="fixed low part"):
            add_with_selects(catalog_spec(family, 8).to_model(), 200, 100)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_error_spectrum_rejects(self, family):
        with pytest.raises(ValueError, match="fixed low part"):
            error_spectrum(catalog_spec(family, 8).to_model(), samples=16)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_detection_flags_rejects(self, family):
        with pytest.raises(ValueError, match="fixed low part"):
            catalog_spec(family, 8).to_model().detection_flags(200, 100)
