"""Hypothesis property-based tests on the core invariants.

These sweep randomly over configurations *and* operands, checking the
relationships everything else in the library leans on:

* approximate sums never exceed exact sums (speculation only loses carries),
* the §3.3 corrector always recovers the exact sum,
* netlists agree with behavioural models,
* the analytic error/MED models agree with brute-force enumeration.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adders import GracefullyDegradingAdder
from repro.adders import LowerPartOrAdder
from repro.core.correction import ErrorCorrector
from repro.core.error_model import (
    error_probability,
    error_probability_brute,
)
from repro.core.gear import GeArAdder, GeArConfig


@st.composite
def gear_configs(draw, max_n=20):
    """Random valid GeArConfig with at least one speculative sub-adder."""
    n = draw(st.integers(4, max_n))
    r = draw(st.integers(1, max(1, n // 2)))
    p = draw(st.integers(1, n - r - 1))
    strict = (n - r - p) % r == 0
    return GeArConfig(n, r, p, allow_partial=not strict)


@st.composite
def config_and_operands(draw):
    cfg = draw(gear_configs(max_n=16))
    limit = (1 << cfg.n) - 1
    a = draw(st.integers(0, limit))
    b = draw(st.integers(0, limit))
    return cfg, a, b


class TestAdderProperties:
    @given(config_and_operands())
    def test_approx_never_exceeds_exact(self, cao):
        cfg, a, b = cao
        assert GeArAdder(cfg).add(a, b) <= a + b

    @given(config_and_operands())
    def test_low_l_bits_always_exact(self, cao):
        cfg, a, b = cao
        mask = (1 << cfg.L) - 1
        assert GeArAdder(cfg).add(a, b) & mask == (a + b) & mask

    @given(config_and_operands())
    def test_error_bounded(self, cao):
        cfg, a, b = cao
        adder = GeArAdder(cfg)
        err = (a + b) - adder.add(a, b)
        assert 0 <= err <= adder.max_error_distance()

    @given(config_and_operands())
    def test_commutativity(self, cao):
        cfg, a, b = cao
        adder = GeArAdder(cfg)
        assert adder.add(a, b) == adder.add(b, a)

    @given(config_and_operands())
    def test_zero_is_identity(self, cao):
        cfg, a, _ = cao
        assert GeArAdder(cfg).add(a, 0) == a

    @given(config_and_operands())
    def test_detection_flags_cover_errors(self, cao):
        cfg, a, b = cao
        adder = GeArAdder(cfg)
        if adder.add(a, b) != a + b:
            flags = adder.detection_flags(a, b)
            assert any(int(f) for f in flags[1:])


class TestCorrectionProperties:
    @given(config_and_operands())
    def test_full_correction_is_exact(self, cao):
        cfg, a, b = cao
        result = ErrorCorrector(GeArAdder(cfg)).add(a, b)
        assert result.value == a + b
        assert 1 <= result.cycles <= cfg.k

    @given(config_and_operands(), st.data())
    def test_suffix_closed_correction_never_hurts(self, cao, data):
        # Monotonicity only holds for suffix-closed masks (a contiguous
        # MSB-side enabled block): a corrected field that wraps hands its
        # carry to the next sub-adder, which must then be enabled too.
        # See test_correction.py::test_non_suffix_mask_can_hurt for the
        # counterexample with arbitrary masks.
        cfg, a, b = cao
        adder = GeArAdder(cfg)
        spec = cfg.k - 1
        enabled_count = data.draw(st.integers(0, spec))
        mask = [i >= spec - enabled_count for i in range(spec)]
        plain_err = (a + b) - adder.add(a, b)
        result = ErrorCorrector(adder, enabled=mask).add(a, b)
        corrected_err = (a + b) - result.value
        assert 0 <= corrected_err <= plain_err

    @given(config_and_operands())
    def test_cycles_equal_one_plus_corrections(self, cao):
        cfg, a, b = cao
        result = ErrorCorrector(GeArAdder(cfg)).add(a, b)
        assert result.cycles == 1 + result.corrections


class TestModelProperties:
    @given(gear_configs(max_n=14))
    @settings(max_examples=30)
    def test_model_equals_brute_force(self, cfg):
        events = cfg.r * (cfg.k - 1)
        if events > 18:
            return
        assert abs(error_probability(cfg) - error_probability_brute(cfg)) < 1e-12

    @given(gear_configs(max_n=20))
    @settings(max_examples=30)
    def test_model_at_most_exact_dp(self, cfg):
        # Equal for strict configs, conservative (>=) for partial ones.
        model = error_probability(cfg)
        exact = GeArAdder(cfg).error_probability()
        assert model >= exact - 1e-12

    @given(gear_configs(max_n=12))
    @settings(max_examples=15)
    def test_exact_dp_matches_monte_carlo(self, cfg):
        adder = GeArAdder(cfg)
        rng = np.random.default_rng(0)
        a = rng.integers(0, 1 << cfg.n, size=40_000, dtype=np.int64)
        b = rng.integers(0, 1 << cfg.n, size=40_000, dtype=np.int64)
        measured = float(np.mean(np.asarray(adder.add(a, b)) != a + b))
        expected = adder.error_probability()
        sigma = max((expected * (1 - expected) / 40_000) ** 0.5, 1e-4)
        assert abs(measured - expected) < 6 * sigma


class TestOtherAdderProperties:
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(1, 7))
    def test_loa_error_bounded(self, a, b, approx_bits):
        adder = LowerPartOrAdder(8, approx_bits)
        assert abs(adder.add(a, b) - (a + b)) <= adder.max_error_distance()

    @given(st.integers(0, 255), st.integers(0, 255),
           st.sampled_from([(1, 2), (2, 2), (2, 4), (4, 4)]))
    def test_gda_never_exceeds_exact(self, a, b, params):
        mb, mc = params
        adder = GracefullyDegradingAdder(8, mb, mc, enforce_multiple=False)
        assert adder.add(a, b) <= a + b

    @given(st.integers(0, 255), st.integers(0, 255),
           st.sampled_from([(1, 2), (2, 2), (2, 4)]))
    def test_gda_correction_exact(self, a, b, params):
        mb, mc = params
        adder = GracefullyDegradingAdder(8, mb, mc, enforce_multiple=False)
        assert ErrorCorrector(adder).add(a, b).value == a + b


class TestAnalyticProperties:
    @given(gear_configs(max_n=16))
    @settings(max_examples=25)
    def test_med_formula_matches_exhaustive_small(self, cfg):
        if cfg.n > 10:
            return
        from repro.metrics.exhaustive import exhaustive_stats

        adder = GeArAdder(cfg)
        stats = exhaustive_stats(adder)
        assert abs(adder.mean_error_distance() - stats.med) < 1e-9

    @given(gear_configs(max_n=20))
    @settings(max_examples=25)
    def test_bitwise_uniform_equals_exact(self, cfg):
        from repro.core.bitwise_model import BitStatistics
        from repro.core.error_model import error_probability_windows

        adder = GeArAdder(cfg)
        rates = BitStatistics.uniform(cfg.n).rates
        assert abs(
            error_probability_windows(adder.windows, cfg.n, rates=rates)
            - adder.error_probability()
        ) < 1e-12

    @given(gear_configs(max_n=16))
    @settings(max_examples=25)
    def test_gda_med_equals_gear_at_same_params(self, cfg):
        # The Table II identity, property-tested across the design space.
        if cfg.n % cfg.r != 0 or cfg.p > cfg.n - cfg.r:
            return
        from repro.core.error_model import mean_error_distance_windows

        gda = GracefullyDegradingAdder(cfg.n, cfg.r, cfg.p,
                                       enforce_multiple=False)
        gear_med = mean_error_distance_windows(
            GeArAdder(cfg).windows, cfg.n
        )
        gda_med = mean_error_distance_windows(gda.windows, cfg.n)
        assert abs(gear_med - gda_med) < 1e-9

    @given(gear_configs(max_n=24))
    @settings(max_examples=30)
    def test_accuracy_complements_probability(self, cfg):
        from repro.core.error_model import accuracy_percentage, error_probability

        assert abs(
            accuracy_percentage(cfg) - (1 - error_probability(cfg)) * 100
        ) < 1e-9


class TestNetlistProperties:
    @given(gear_configs(max_n=14), st.data())
    @settings(max_examples=15)
    def test_netlist_matches_behaviour(self, cfg, data):
        from repro.rtl.sim import simulate_bus

        adder = GeArAdder(cfg)
        netlist = adder.build_netlist()
        limit = (1 << cfg.n) - 1
        a = data.draw(st.integers(0, limit))
        b = data.draw(st.integers(0, limit))
        got = int(simulate_bus(netlist, {"A": a, "B": b}, "S"))
        assert got == adder.add(a, b)

    @given(gear_configs(max_n=12))
    @settings(max_examples=10)
    def test_verilog_roundtrip_preserves_structure(self, cfg):
        from repro.rtl.verilog import to_verilog
        from repro.rtl.verilog_parser import parse_verilog

        netlist = GeArAdder(cfg).build_netlist()
        parsed = parse_verilog(to_verilog(netlist))
        assert parsed.input_buses == netlist.input_buses
        assert len(parsed.output_buses["S"]) == len(netlist.output_buses["S"])
