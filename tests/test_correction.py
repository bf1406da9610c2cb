"""Unit tests for the §3.3 error detection/correction engine."""

import itertools

import numpy as np
import pytest

from repro.adders import GracefullyDegradingAdder, add_with_selects
from repro.core.correction import ErrorCorrector
from repro.core.gear import GeArAdder, GeArConfig
from repro.metrics.spectrum import error_spectrum
from repro.spec.catalog import SPEC_CATALOG, catalog_spec
from repro.utils.bitvec import mask
from repro.utils.distributions import UniformOperands
from tests.conftest import random_pairs


def _exhaustive_pairs(width):
    size = 1 << width
    vals = np.arange(size, dtype=np.int64)
    return np.repeat(vals, size), np.tile(vals, size)


#: Catalog families whose sum is the speculative windows alone.
WINDOWED = [key for key in SPEC_CATALOG
            if len(catalog_spec(key, 8).body) > 1
            and not catalog_spec(key, 8).low_bits]
UNRECTIFIED = [key for key in WINDOWED
               if catalog_spec(key, 8).rectify is None]


def _reference_correct(adder, a, b, enabled):
    """The §3.3 loop as the hardware runs it, one round per cycle.

    Each round recomputes every window (a corrected window's prediction
    bits are OR-ed and their LSB forced to 1) and corrects the lowest
    enabled window whose flag is up.  Ignores a rectify stage.
    """
    windows, k = adder.windows, len(adder.windows)
    corrected = np.zeros((k,) + a.shape, dtype=bool)
    cycles = np.ones(a.shape, dtype=np.int64)
    initial = np.zeros(a.shape, dtype=np.int64)

    def window_sums():
        sums = []
        for i, w in enumerate(windows):
            aw, bw = (a >> w.low) & mask(w.length), (b >> w.low) & mask(w.length)
            if i and w.prediction_bits:
                pm = mask(w.prediction_bits)
                forced = ((aw | bw) & pm) | 1
                aw = np.where(corrected[i], (aw & ~pm) | forced, aw)
                bw = np.where(corrected[i], (bw & ~pm) | forced, bw)
            sums.append(aw + bw)
        return sums

    for round_index in range(k):
        sums = window_sums()
        lowest = np.zeros(a.shape, dtype=np.int64)  # 0: nothing pending
        for i in range(k - 1, 0, -1):
            w, pm = windows[i], mask(windows[i].prediction_bits)
            cp = (((a >> w.low) ^ (b >> w.low)) & pm) == pm
            flag = cp & ((sums[i - 1] >> windows[i - 1].length) == 1)
            if round_index == 0:
                initial |= flag.astype(np.int64) << i
            if enabled[i - 1]:
                lowest = np.where(flag & ~corrected[i], i, lowest)
        if not lowest.any():
            break
        for i in range(1, k):
            corrected[i] |= lowest == i
        cycles += lowest > 0
    sums = window_sums()
    value = sums[-1] >> windows[-1].length << adder.width
    for s, w in zip(sums, windows):
        value |= ((s >> w.prediction_bits) & mask(w.result_bits)) << w.result_low
    return value, cycles, cycles - 1, initial


class TestOneWindowWalk:
    """The corrector, the GDA selects and the spectrum share one walk."""

    @pytest.mark.parametrize("family", UNRECTIFIED)
    def test_matches_round_by_round_reference(self, family):
        adder = catalog_spec(family, 8).to_model()
        a, b = _exhaustive_pairs(8)
        for enabled in itertools.product([False, True],
                                         repeat=len(adder.windows) - 1):
            got = ErrorCorrector(adder, list(enabled)).add(a, b)
            value, cycles, corrections, initial = _reference_correct(
                adder, a, b, enabled)
            np.testing.assert_array_equal(got.value, value)
            np.testing.assert_array_equal(got.cycles, cycles)
            np.testing.assert_array_equal(got.corrections, corrections)
            np.testing.assert_array_equal(got.initial_flags, initial)

    @pytest.mark.parametrize("family", WINDOWED)
    def test_corrector_is_add_with_selects(self, family):
        adder = catalog_spec(family, 8).to_model()
        a, b = _exhaustive_pairs(8)
        for enabled in itertools.product([False, True],
                                         repeat=len(adder.windows) - 1):
            np.testing.assert_array_equal(
                ErrorCorrector(adder, list(enabled)).add(a, b).value,
                add_with_selects(adder, a, b, list(enabled)))


class TestRectifiedCorrection:
    """cesa_rect@8 rectifies window 2: the mask composes with that stage."""

    @pytest.fixture(scope="class")
    def adder(self):
        return catalog_spec("cesa_rect", 8).to_model()

    def _errors(self, value, a, b):
        return int(np.count_nonzero(np.asarray(value) != a + b))

    def test_no_correction_is_the_model(self, adder):
        a, b = _exhaustive_pairs(8)
        plain = np.asarray(adder.add(a, b))
        assert self._errors(plain, a, b) == 6144
        result = ErrorCorrector(adder, [False, False]).add(a, b)
        np.testing.assert_array_equal(result.value, plain)
        np.testing.assert_array_equal(
            add_with_selects(adder, a, b, [False, False]), plain)

    @pytest.mark.parametrize("enabled,errors", [
        ([True, False], 0),   # the rectify stage completes window 2
        ([False, True], 6144),
        ([True, True], 0),    # a chained window is not rectified twice
    ])
    def test_mask_composes_with_rectify(self, adder, enabled, errors):
        a, b = _exhaustive_pairs(8)
        result = ErrorCorrector(adder, enabled).add(a, b)
        assert self._errors(result.value, a, b) == errors
        assert self._errors(add_with_selects(adder, a, b, enabled),
                            a, b) == errors

    def test_spectrum_charges_only_unrepaired_misses(self, adder):
        spectrum = error_spectrum(adder, samples=20000)
        assert spectrum.window_miss_rate == [0.0941, 0.0246]
        assert spectrum.window_error_mass[0] == pytest.approx(spectrum.med)

    @pytest.mark.parametrize("family", UNRECTIFIED)
    def test_unrectified_spectrum_is_the_true_carry_miss(self, family):
        # Window i misses when its prediction bits all propagate and the
        # true carry into its low bit is 1.
        adder = catalog_spec(family, 8).to_model()
        spectrum = error_spectrum(adder, samples=20000, seed=7)
        a, b = UniformOperands(8).sample_pairs(20000, seed=7)
        expected = []
        for w in adder.windows[1:]:
            pm = mask(w.prediction_bits)
            cp = (((a >> w.low) ^ (b >> w.low)) & pm) == pm
            carry = ((a & mask(w.low)) + (b & mask(w.low))) >> w.low
            expected.append(float(np.mean(cp & (carry == 1))))
        assert spectrum.window_miss_rate == expected


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
