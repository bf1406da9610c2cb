"""Unit tests for ETAIIM (ETAII with connected MSB carry chains)."""

import numpy as np
import pytest

from repro.adders import ErrorTolerantAdderII
from repro.adders import ErrorTolerantAdderIIM
from tests.conftest import random_pairs


class TestEtaiimStructure:
    def test_connected_one_equals_etaii(self):
        m = ErrorTolerantAdderIIM(16, 8, connected=1)
        base = ErrorTolerantAdderII(16, 8)
        a, b = random_pairs(16, 3000, seed=1)
        np.testing.assert_array_equal(m.add(a, b), base.add(a, b))

    def test_all_connected_is_exact(self):
        m = ErrorTolerantAdderIIM(16, 8, connected=4)
        a, b = random_pairs(16, 1000, seed=2)
        np.testing.assert_array_equal(m.add(a, b), a + b)

    def test_more_connection_fewer_errors(self):
        a, b = random_pairs(16, 30000, seed=3)
        rates = []
        for connected in (1, 2, 3, 4):
            m = ErrorTolerantAdderIIM(16, 8, connected=connected)
            rates.append(float(np.mean(np.asarray(m.add(a, b)) != a + b)))
        assert rates == sorted(rates, reverse=True)
        assert rates[-1] == 0.0

    def test_msbs_protected(self):
        # With the top half connected, errors can only live in low bits.
        m = ErrorTolerantAdderIIM(16, 8, connected=3)
        a, b = random_pairs(16, 30000, seed=4)
        ed = np.abs(np.asarray(m.add(a, b)) - (a + b))
        assert ed.max() <= m.max_error_distance()
        # top window is speculative only at its base
        assert ed.max() <= 1 << 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ErrorTolerantAdderIIM(16, 7)
        with pytest.raises(ValueError):
            ErrorTolerantAdderIIM(15, 8)
        with pytest.raises(ValueError):
            ErrorTolerantAdderIIM(16, 8, connected=0)
        with pytest.raises(ValueError):
            ErrorTolerantAdderIIM(16, 8, connected=5)

    def test_analytic_error_probability_exact(self):
        # The window-geometry DP covers ETAIIM's fused segments exactly.
        from repro.metrics.exhaustive import exhaustive_error_probability

        for connected in (1, 2, 3, 4):
            m = ErrorTolerantAdderIIM(12, 6, connected=connected)
            assert m.error_probability() == pytest.approx(
                exhaustive_error_probability(m), abs=1e-12
            )

    def test_analytic_med_matches_exhaustive(self):
        from repro.metrics.exhaustive import exhaustive_stats

        m = ErrorTolerantAdderIIM(12, 6, connected=2)
        stats = exhaustive_stats(m)
        assert m.mean_error_distance() == pytest.approx(stats.med, rel=1e-9)

    def test_window_cover_contiguity(self):
        for connected in (1, 2, 3, 4):
            m = ErrorTolerantAdderIIM(24, 8, connected=connected)
            lows = [w.result_low for w in m.windows]
            highs = [w.result_high for w in m.windows]
            assert lows[0] == 0
            assert highs[-1] == 23
            for i in range(1, len(lows)):
                assert lows[i] == highs[i - 1] + 1
