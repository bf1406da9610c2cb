"""Unit tests for the §3.2 error-probability model (Eqs. 4-7)."""

import numpy as np
import pytest

from repro.core.error_model import (
    ErrorEvent,
    error_events,
    error_probability,
    error_probability_brute,
    accuracy_percentage,
    error_probability_windows,
    mean_error_distance_windows,
    paper_error_probability,
)
from repro.adders import (
    AlmostCorrectAdder,
    ErrorTolerantAdderI,
    ErrorTolerantAdderIIM,
    GracefullyDegradingAdder,
    LowerPartOrAdder,
    RippleCarryAdder,
)
from repro.core.gear import GeArAdder, GeArConfig
from repro.engine.analytic import AnalyticUnsupported, adder_error_pmf
from repro.metrics.exhaustive import exhaustive_error_probability, exhaustive_stats
from repro.spec.catalog import SPEC_CATALOG
from repro.spec.model import SpecAdder


class TestErrorEvents:
    def test_event_count_is_r_times_k_minus_1(self):
        cfg = GeArConfig(16, 4, 4)  # k = 3
        assert len(error_events(cfg)) == cfg.r * (cfg.k - 1)

    def test_event_probability_eq5(self):
        # ρ[Z_m] = ρ[Gr]·ρ[Pr]^(L-m)
        cfg = GeArConfig(12, 4, 4)
        for event in error_events(cfg):
            assert event.probability == pytest.approx(
                0.25 * 0.5 ** (cfg.L - event.m)
            )

    def test_event_geometry(self):
        cfg = GeArConfig(12, 4, 4)
        events = error_events(cfg)
        # window 1: generate positions 0..3, spans reaching bit base+P-1 = 7
        assert [e.generate_pos for e in events] == [0, 1, 2, 3]
        assert all(e.propagate_high == 7 for e in events)
        assert all(e.propagate_low == e.generate_pos + 1 for e in events)

    def test_same_window_events_mutually_exclusive(self):
        cfg = GeArConfig(16, 4, 4)
        events = [e for e in error_events(cfg) if e.window == 1]
        for i, e1 in enumerate(events):
            for e2 in events[i + 1:]:
                assert e1.excludes(e2)

    def test_distant_windows_compatible(self):
        cfg = GeArConfig(32, 4, 4)  # spans end at 4s+3; window s+2 clears it
        events = error_events(cfg)
        e1 = next(e for e in events if e.window == 1 and e.m == 4)
        e4 = next(e for e in events if e.window == 4 and e.m == 4)
        assert not e1.excludes(e4)
        assert not e4.excludes(e1)

    def test_event_not_excluding_itself_semantics(self):
        e = ErrorEvent(window=1, m=1, generate_pos=0, propagate_low=1,
                       propagate_high=4)
        assert not e.excludes(e)


class TestInclusionExclusion:
    @pytest.mark.parametrize("n,r,p", [
        (12, 4, 4), (16, 4, 8), (16, 2, 2), (16, 2, 6), (12, 2, 2),
        (16, 1, 3), (10, 2, 4),
    ])
    def test_dp_matches_brute_force(self, n, r, p):
        cfg = GeArConfig(n, r, p, allow_partial=(n - r - p) % r != 0)
        assert error_probability(cfg) == pytest.approx(
            error_probability_brute(cfg), abs=1e-14
        )

    def test_brute_force_refuses_large(self):
        with pytest.raises(ValueError):
            error_probability_brute(GeArConfig(64, 2, 2))

    def test_exact_config_zero(self):
        assert error_probability(GeArConfig(8, 4, 4)) == 0.0
        assert GeArAdder(GeArConfig(8, 4, 4)).error_probability() == 0.0

    def test_probability_in_unit_interval(self):
        for p in range(1, 14):
            cfg = GeArConfig(16, 2, p, allow_partial=(14 - p) % 2 != 0)
            assert 0.0 <= error_probability(cfg) <= 1.0

    def test_monotone_in_p(self):
        probs = []
        for p in (2, 4, 6, 8, 10, 12):
            probs.append(error_probability(GeArConfig(16, 2, p)))
        assert probs == sorted(probs, reverse=True)

    def test_single_speculative_window_closed_form(self):
        # k=2: P(err) = Σ_m Gr·Pr^(L-m) exactly (no joint terms).
        cfg = GeArConfig(12, 4, 4)
        expected = sum(0.25 * 0.5 ** (8 - m) for m in range(1, 5))
        assert error_probability(cfg) == pytest.approx(expected)


class TestExactDP:
    @pytest.mark.parametrize("n,r,p", [
        (8, 1, 1), (8, 2, 2), (8, 1, 3), (8, 2, 4), (10, 2, 2), (10, 3, 3),
        (12, 4, 4), (9, 2, 3),
    ])
    def test_matches_exhaustive_enumeration(self, n, r, p):
        cfg = GeArConfig(n, r, p, allow_partial=(n - r - p) % r != 0)
        adder = GeArAdder(cfg)
        assert adder.error_probability() == pytest.approx(
            exhaustive_error_probability(adder), abs=1e-12
        )

    @pytest.mark.parametrize("n,r,p", [
        (16, 2, 2), (24, 2, 2), (16, 1, 1), (32, 4, 4), (16, 4, 8),
        (20, 5, 5),
    ])
    def test_paper_model_is_exact_for_uniform_operands(self, n, r, p):
        # Reproduction finding: the Eq. 5-7 event set is complete, so the
        # model equals the first-principles DP on every strict configuration.
        cfg = GeArConfig(n, r, p)
        assert GeArAdder(cfg).error_probability() == pytest.approx(
            error_probability(cfg), abs=1e-12
        )

    @pytest.mark.parametrize("n,r,p", [(20, 3, 7), (20, 6, 4), (20, 7, 3)])
    def test_paper_model_conservative_for_partial_configs(self, n, r, p):
        # With (N-L) % R != 0 the model scores a nominal full-R last window,
        # while the functional adder's anchored last window errs less.
        cfg = GeArConfig(n, r, p, allow_partial=True)
        assert error_probability(cfg) >= GeArAdder(cfg).error_probability()


class TestAccuracyPercentage:
    def test_complement_of_probability(self):
        cfg = GeArConfig(16, 4, 4)
        assert accuracy_percentage(cfg) == pytest.approx(
            (1 - error_probability(cfg)) * 100
        )

    def test_exact_flag_agrees_with_model(self):
        cfg = GeArConfig(16, 1, 1)
        assert GeArAdder(cfg).error_probability() == pytest.approx(
            error_probability(cfg)
        )


class TestErrorDistanceModels:
    @pytest.mark.parametrize("n,r,p", [
        (8, 1, 1), (8, 1, 2), (8, 2, 2), (8, 2, 4), (10, 2, 4), (12, 4, 4),
        (9, 1, 2),
    ])
    def test_analytic_med_matches_exhaustive(self, n, r, p):
        cfg = GeArConfig(n, r, p, allow_partial=(n - r - p) % r != 0)
        adder = GeArAdder(cfg)
        stats = exhaustive_stats(adder)
        assert adder.mean_error_distance() == pytest.approx(
            stats.med, rel=1e-9
        )

    def test_max_error_distance_tight_for_k2(self):
        cfg = GeArConfig(12, 4, 4)  # k = 2: bound is achieved
        adder = GeArAdder(cfg)
        size = 1 << 12
        vals = np.arange(size, dtype=np.int64)
        worst = 0
        for start in range(0, size, 512):
            a = np.repeat(vals[start : start + 512], size)
            b = np.tile(vals, 512)
            worst = max(worst, int(((a + b) - np.asarray(adder.add(a, b))).max()))
        assert worst == adder.max_error_distance()

    def test_max_error_distance_is_upper_bound_for_k3(self):
        cfg = GeArConfig(8, 2, 2)  # k = 3: wrap cancellation applies
        adder = GeArAdder(cfg)
        vals = np.arange(256, dtype=np.int64)
        a = np.repeat(vals, 256)
        b = np.tile(vals, 256)
        worst = int(((a + b) - np.asarray(adder.add(a, b))).max())
        assert worst <= adder.max_error_distance()
        assert worst == 64  # single top-window miss

    def test_ned_in_unit_interval(self):
        for p in (1, 2, 4, 6):
            adder = GeArAdder(GeArConfig(8, 1, p))
            ned = adder.mean_error_distance() / adder.max_error_distance()
            assert 0.0 <= ned <= 1.0

    def test_ned_zero_for_exact(self):
        adder = GeArAdder(GeArConfig(8, 4, 4))
        assert adder.mean_error_distance() == 0.0
        assert adder.max_error_distance() == 0


class TestPaperErrorProbability:
    def test_gear_points_use_the_paper_model(self):
        cfg = GeArConfig(20, 3, 7, allow_partial=True)
        adder = GeArAdder(cfg)
        assert paper_error_probability(adder) == error_probability(cfg)
        # error_probability() is the exact rate of the actual windows,
        # which the partial-mode paper model bounds from above.
        assert adder.error_probability() == pytest.approx(
            error_probability_windows(adder.spec.windows, cfg.n), abs=1e-15)
        assert adder.error_probability() < paper_error_probability(adder)

    def test_aca1_and_gda_carry_their_gear_point(self):
        aca1 = AlmostCorrectAdder(16, 4)
        assert aca1.config == GeArConfig(16, 1, 3)
        assert paper_error_probability(aca1) == error_probability(aca1.config)
        gda = GracefullyDegradingAdder(20, 1, 9, enforce_multiple=False)
        assert gda.config == GeArConfig(20, 1, 9)
        partial = GracefullyDegradingAdder(20, 4, 6, enforce_multiple=False)
        assert partial.config.allow_partial
        assert paper_error_probability(partial) == error_probability(
            GeArConfig(20, 4, 6, allow_partial=True))

    @pytest.mark.parametrize("adder", [
        ErrorTolerantAdderIIM(12, 4),
        LowerPartOrAdder(8, 3),
        RippleCarryAdder(8),
    ], ids=["etaiim", "loa", "rca"])
    def test_other_adders_report_their_own_value(self, adder):
        assert not hasattr(adder, "config")
        assert paper_error_probability(adder) == adder.error_probability()

    def test_no_analytic_model_is_none(self):
        assert paper_error_probability(ErrorTolerantAdderI(8, 4)) is None


def _plain_catalog_models(width):
    """Every catalog family that the closed forms describe, at ``width``."""
    models = []
    for key, family in SPEC_CATALOG.items():
        try:
            spec = family(width)
        except ValueError:
            continue  # family undefined at this width
        if not (spec.truncation or spec.uses_v2):
            models.append(spec.to_model())
    return models


class TestClosedFormsAgainstPMF:
    """The (carry, run) chain and the O(N) MED against the exact PMF."""

    @pytest.mark.parametrize("width", [8, 16])
    def test_rates_chain_equals_pmf_under_independent_bits(self, width):
        # Both operands share a ramp of one-probabilities α, so each bit
        # generates with α² and propagates with 2α(1-α).
        alpha = [0.2 + 0.6 * i / (width - 1) for i in range(width)]
        rates = [(a * a, 2 * a * (1 - a)) for a in alpha]
        models = _plain_catalog_models(width)
        assert len(models) >= 10
        for model in models:
            chain = error_probability_windows(model.windows, width,
                                              rates=rates)
            pmf = adder_error_pmf(model, bit_one=alpha)
            assert chain == pytest.approx(pmf.error_rate, abs=1e-12), \
                model.name

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_med_equals_pmf_for_every_plain_family(self, width):
        checked = 0
        for model in _plain_catalog_models(width):
            try:
                pmf = adder_error_pmf(model)
            except AnalyticUnsupported:
                continue  # over the PMF's support cap
            assert mean_error_distance_windows(model.windows, width) == \
                pytest.approx(pmf.med, rel=1e-12, abs=1e-12), model.name
            checked += 1
        assert checked >= 10

    def test_med_at_window_length_28_equals_pmf(self):
        # Window length 28: 2^28 window sums are too many to enumerate.
        model = GeArAdder(GeArConfig(32, 4, 24))
        assert type(model) is SpecAdder
        assert model.windows[-1].length == 28
        assert model.mean_error_distance() == adder_error_pmf(model).med
        assert model.mean_error_distance() == 7.5
