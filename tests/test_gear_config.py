"""Unit tests for GeArConfig (§3.1, Eq. 1) and the GeAr window layout of
``gear_spec`` (Eqs. 2-3)."""

import pytest

from repro.core.gear import GeArConfig
from repro.spec.catalog import gear_spec


class TestEquationOne:
    @pytest.mark.parametrize("n,r,p,k", [
        (12, 4, 4, 2),   # Fig. 3
        (12, 2, 6, 3),   # Fig. 4
        (16, 4, 8, 2),   # Table III
        (32, 8, 8, 3),   # Table III
        (48, 8, 16, 4),  # Table III (the paper's k=5 is a typo)
        (20, 1, 9, 11),  # Table IV
        (20, 5, 5, 3),   # Table IV
    ])
    def test_sub_adder_count(self, n, r, p, k):
        assert GeArConfig(n, r, p).k == k

    @pytest.mark.parametrize("n,r,p,k", [
        (20, 3, 7, 5),  # Table IV rows with non-integer (N-L)/R
        (20, 6, 4, 3),
        (20, 7, 3, 3),
    ])
    def test_partial_mode_rounds_up(self, n, r, p, k):
        assert GeArConfig(n, r, p, allow_partial=True).k == k

    def test_strict_mode_rejects_nondivisible(self):
        with pytest.raises(ValueError, match="allow_partial"):
            GeArConfig(20, 3, 7)

    def test_l_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            GeArConfig(8, 4, 8)

    @pytest.mark.parametrize("n,r,p", [(0, 1, 1), (8, 0, 1), (8, 1, 0)])
    def test_nonpositive_params_rejected(self, n, r, p):
        with pytest.raises((ValueError, TypeError)):
            GeArConfig(n, r, p)

    def test_exact_configuration(self):
        cfg = GeArConfig(8, 4, 4)
        assert cfg.k == 1
        assert cfg.is_exact


class TestWindows:
    def test_fig3_windows(self):
        # Fig. 3: GeAr(12,4,4) — sub-adder 1 = [7:0], sub-adder 2 = [11:4]
        windows = gear_spec(12, 4, 4).windows
        assert len(windows) == 2
        first, second = windows
        assert (first.low, first.high) == (0, 7)
        assert (first.result_low, first.result_high) == (0, 7)
        assert (second.low, second.high) == (4, 11)
        assert (second.result_low, second.result_high) == (8, 11)
        assert second.prediction_bits == 4

    def test_fig4_windows(self):
        # Fig. 4: GeAr(12,2,6) — three 8-bit sub-adders.
        windows = gear_spec(12, 2, 6).windows
        assert len(windows) == 3
        assert [(w.low, w.high) for w in windows] == [(0, 7), (2, 9), (4, 11)]
        assert [w.result_bits for w in windows] == [8, 2, 2]

    def test_equation_three_general(self):
        # Eq. 3: sub-adder i covers [(R·i)+P-1 : R·(i-1)].
        cfg = GeArConfig(24, 4, 8)
        for i, w in enumerate(gear_spec(24, 4, 8).windows[1:], start=2):
            assert w.low == cfg.r * (i - 1)
            assert w.high == cfg.r * i + cfg.p - 1
            assert w.result_low == cfg.r * (i - 1) + cfg.p

    def test_partial_last_window_anchored_at_top(self):
        cfg = GeArConfig(20, 3, 7, allow_partial=True)
        windows = gear_spec(20, 3, 7, allow_partial=True).windows
        assert len(windows) == cfg.k
        last = windows[-1]
        assert last.high == 19
        assert last.length == cfg.L
        # Windows drive all 20 bits exactly once.
        total = sum(w.result_bits for w in windows)
        assert total == 20

    def test_windows_constant_length(self):
        for w in gear_spec(32, 4, 4).windows:
            assert w.length == 8


class TestHelpers:
    def test_from_sub_adder_length(self):
        cfg = GeArConfig.from_sub_adder_length(16, 4, 8)
        assert (cfg.r, cfg.p) == (4, 4)
        with pytest.raises(ValueError):
            GeArConfig.from_sub_adder_length(16, 4, 4)

    def test_describe(self):
        text = GeArConfig(12, 4, 4).describe()
        assert "N=12" in text and "k=2" in text

    def test_equality_ignores_partial_flag(self):
        assert GeArConfig(16, 4, 4) == GeArConfig(16, 4, 4, allow_partial=True)

    def test_speculative_subadders(self):
        assert GeArConfig(12, 2, 6).speculative_subadders == 2
