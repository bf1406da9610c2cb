"""Max-error-distance bound tightness (satellite of ISSUE 3).

``SpecAdder.max_error_distance()`` returns
``sum(2**w.result_low)`` over the speculative windows — documented as the
*attained* maximum for k = 2 and an upper bound (worst case assumes every
window misses at once) for k > 2.  These tests pin both claims against
exhaustive NumPy sweeps:

* every k = 2 GeAr configuration up to N = 10 attains the bound exactly,
* sampled k > 2 configurations never exceed it, and at least one sits
  strictly below (the bound is genuinely a bound, not an equality).
"""

import numpy as np
import pytest

from repro.core.gear import GeArAdder, GeArConfig
from repro.verify.vectors import exhaustive_pairs


def _k2_configs(max_n=10):
    """Every valid k=2 config (0 < N-L <= R) with N <= max_n."""
    configs = []
    for n in range(3, max_n + 1):
        for r in range(1, n - 1):
            for p in range(1, n - r):
                spill = n - r - p
                if 0 < spill <= r:
                    configs.append(
                        GeArConfig(n, r, p, allow_partial=spill % r != 0))
    return configs


def _exhaustive_max_ed(adder):
    a, b = exhaustive_pairs(adder.width)
    return int(np.max(np.asarray(adder.error_distance(a, b))))


class TestK2BoundIsAttained:
    def test_enumeration_is_substantial(self):
        # Guard the generator itself: plenty of configs, all k=2.
        configs = _k2_configs()
        assert len(configs) == 70
        assert all(cfg.k == 2 for cfg in configs)

    @pytest.mark.parametrize("cfg", _k2_configs(),
                             ids=lambda c: f"n{c.n}r{c.r}p{c.p}")
    def test_bound_attained_exhaustively(self, cfg):
        adder = GeArAdder(cfg)
        bound = adder.max_error_distance()
        assert _exhaustive_max_ed(adder) == bound
        # The single speculative window pins the bound's closed form.
        assert bound == 1 << adder.windows[1].result_low


class TestKGreaterThan2Bound:
    # k >= 3 samples kept at N <= 9 so the 4^N sweep stays fast.
    SAMPLED = [
        GeArConfig(6, 1, 1),   # k=5
        GeArConfig(6, 2, 1, allow_partial=True),   # k=3, partial tail
        GeArConfig(7, 2, 1, allow_partial=True),   # k=3, partial tail
        GeArConfig(8, 2, 2),   # k=3
        GeArConfig(8, 1, 3),   # k=5
        GeArConfig(9, 2, 3),   # k=3
        GeArConfig(9, 3, 2, allow_partial=True),   # k=3
    ]

    @pytest.mark.parametrize("cfg", SAMPLED,
                             ids=lambda c: f"n{c.n}r{c.r}p{c.p}")
    def test_bound_never_exceeded(self, cfg):
        adder = GeArAdder(cfg)
        assert cfg.k > 2
        assert _exhaustive_max_ed(adder) <= adder.max_error_distance()

    def test_bound_is_strict_for_some_config(self):
        # Simultaneous misses in *every* window are not always reachable,
        # so for k>2 the bound can overshoot; GeAr(8,2,2) shows it does.
        adder = GeArAdder(GeArConfig(8, 2, 2))
        assert _exhaustive_max_ed(adder) < adder.max_error_distance()

    def test_exact_configs_report_zero(self):
        adder = GeArAdder(GeArConfig(8, 4, 4))  # k=1: exact
        assert adder.max_error_distance() == 0
        assert _exhaustive_max_ed(adder) == 0
