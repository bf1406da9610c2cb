"""Tests for the exact analytic error-PMF solver (repro.engine.analytic).

The solver's claim is strong — the *exact* signed error distribution of
any block-based adder — so the tests hold it to exact agreement with
brute force: weighted enumeration of every operand pair for non-uniform
profiles, and the engine's exhaustive statistics (themselves simulation)
for uniform ones, including property-based random layouts.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import AnalyticUnsupported, ErrorPMF, adder_error_pmf
from repro.engine.analytic import bit_probability_profile
from repro.metrics.exhaustive import exhaustive_stats
from repro.spec.catalog import (
    SPEC_CATALOG,
    aca1_spec,
    catalog_spec,
    etaii_spec,
    gda_spec,
    gear_spec,
    hetero_spec,
)
from repro.utils.distributions import (
    GaussianOperands,
    SparseOperands,
    UniformOperands,
)

EXACT = 1e-9


def brute_force_pmf(adder, width, bit_one):
    """Weighted enumeration of every operand pair (the ground truth)."""
    values = np.arange(1 << width, dtype=np.int64)
    weights = np.ones(1 << width, dtype=np.float64)
    for i, alpha in enumerate(bit_one):
        bit = (values >> i) & 1
        weights *= np.where(bit == 1, alpha, 1.0 - alpha)
    approx = adder.add(
        np.repeat(values, 1 << width), np.tile(values, 1 << width))
    exact = (values[:, None] + values[None, :]).ravel()
    err = np.asarray(approx, dtype=np.int64) - exact
    joint = (weights[:, None] * weights[None, :]).ravel()
    pmf = {}
    for e in np.unique(err):
        pmf[int(e)] = float(joint[err == e].sum())
    return pmf


def assert_pmf_equals(pmf: ErrorPMF, reference: dict, tol: float = 1e-12):
    assert abs(pmf.total_mass - 1.0) <= tol
    got = dict(zip(pmf.support, pmf.probabilities))
    for e in set(got) | set(reference):
        assert got.get(e, 0.0) == pytest.approx(reference.get(e, 0.0),
                                                abs=tol), f"error value {e}"


# ---------------------------------------------------------------------------
# catalog families: exact agreement with exhaustive statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(SPEC_CATALOG))
def test_catalog_family_matches_exhaustive(key):
    family = SPEC_CATALOG[key]
    width = max(8, family.min_width)
    adder = family(width).to_model()
    pmf = adder_error_pmf(adder)
    stats = exhaustive_stats(adder)
    assert pmf.error_rate == pytest.approx(stats.error_rate, abs=EXACT)
    assert pmf.med == pytest.approx(stats.med, abs=EXACT * max(1.0, stats.med))
    assert pmf.max_abs == stats.max_ed_observed


def test_exact_adder_has_trivial_pmf():
    pmf = adder_error_pmf(catalog_spec("rca", 8).to_model())
    assert pmf.support == (0,)
    assert pmf.probabilities == (1.0,)
    assert pmf.error_rate == 0.0
    assert pmf.med == 0.0


# ---------------------------------------------------------------------------
# non-uniform operand profiles against weighted brute force
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ["gear_r2p2", "loa_half", "gda_b2c2"])
def test_weighted_pmf_matches_brute_force(key):
    width = 8
    adder = catalog_spec(key, width).to_model()
    bit_one = (0.3,) * width
    pmf = adder_error_pmf(adder, bit_one=bit_one)
    assert_pmf_equals(pmf, brute_force_pmf(adder, width, bit_one))


def test_varied_profile_matches_brute_force():
    width = 8
    adder = catalog_spec("gear_r2p2", width).to_model()
    bit_one = tuple(0.1 + 0.1 * i for i in range(width))
    pmf = adder_error_pmf(adder, bit_one=bit_one)
    assert_pmf_equals(pmf, brute_force_pmf(adder, width, bit_one))


# ---------------------------------------------------------------------------
# property-based: random layouts of every block-based family
# ---------------------------------------------------------------------------

def _try(build):
    try:
        return build()
    except ValueError:
        return None


@st.composite
def block_based_specs(draw):
    width = draw(st.sampled_from([6, 8, 10]))
    kind = draw(st.sampled_from(["gear", "aca1", "etaii", "gda", "hetero"]))
    if kind == "gear":
        r = draw(st.integers(1, width - 1))
        p = draw(st.integers(1, width - r))
        spec = _try(lambda: gear_spec(width, r, p, allow_partial=True))
    elif kind == "aca1":
        sub = draw(st.integers(2, width - 1))
        spec = _try(lambda: aca1_spec(width, sub))
    elif kind == "etaii":
        sub = draw(st.integers(2, width // 2))
        spec = _try(lambda: etaii_spec(width, sub, allow_partial=True))
    elif kind == "gda":
        mb = draw(st.sampled_from([1, 2]))
        mc = draw(st.integers(1, max(1, width // mb - 1)))
        spec = _try(lambda: gda_spec(width, mb, mc, enforce_multiple=False))
    else:
        spec = _try(lambda: hetero_spec(width))
    assume(spec is not None)  # invalid geometry for this family
    return spec


@given(spec=block_based_specs())
@settings(max_examples=25, deadline=None)
def test_random_spec_pmf_matches_exhaustive(spec):
    adder = spec.to_model()
    pmf = adder_error_pmf(adder)
    # invariants
    assert abs(pmf.total_mass - 1.0) <= EXACT
    assert all(p > 0.0 for p in pmf.probabilities)
    assert list(pmf.support) == sorted(pmf.support)
    # exact agreement with full enumeration
    stats = exhaustive_stats(adder)
    assert pmf.error_rate == pytest.approx(stats.error_rate, abs=EXACT)
    assert pmf.med == pytest.approx(stats.med, abs=EXACT * max(1.0, stats.med))
    assert pmf.max_abs == stats.max_ed_observed


# ---------------------------------------------------------------------------
# supported-set boundaries and plumbing
# ---------------------------------------------------------------------------

def test_non_block_based_adder_is_unsupported():
    from repro.adders.etai import ErrorTolerantAdderI

    with pytest.raises(AnalyticUnsupported):
        adder_error_pmf(ErrorTolerantAdderI(8, split=4))


def test_spec_model_overriding_add_impl_is_unsupported():
    from repro.spec.model import SpecAdder

    class Inverted(SpecAdder):
        def _add_impl(self, a, b):
            return super()._add_impl(a, b) ^ 1

    with pytest.raises(AnalyticUnsupported):
        adder_error_pmf(Inverted(catalog_spec("gear_r2p2", 8)))


def test_support_cap_raises_cleanly():
    with pytest.raises(AnalyticUnsupported):
        adder_error_pmf(catalog_spec("hetero", 10).to_model(), max_support=2)


def test_bit_probability_profile_rules():
    assert bit_probability_profile(None, 6, "monte_carlo") == (0.5,) * 6
    assert bit_probability_profile(
        GaussianOperands(8), 8, "exhaustive") == (0.5,) * 8
    assert bit_probability_profile(GaussianOperands(8), 8, "monte_carlo") is None
    assert bit_probability_profile(
        UniformOperands(8), 8, "monte_carlo") == (0.5,) * 8
    assert bit_probability_profile(
        SparseOperands(8, one_density=0.25), 8, "monte_carlo") == (0.25,) * 8


def test_pmf_round_trips_through_dict():
    pmf = adder_error_pmf(catalog_spec("gear_r2p2", 8).to_model())
    assert ErrorPMF.from_dict(pmf.to_dict()) == pmf


def test_error_stats_reduction():
    pmf = adder_error_pmf(catalog_spec("gear_r2p2", 8).to_model())
    stats = pmf.to_error_stats(max_ed_bound=1 << 8)
    assert stats.samples == 0
    assert stats.error_rate == pmf.error_rate
    assert stats.med == pmf.med
    assert stats.ned == pmf.med / (1 << 8)
    assert stats.mred is None
    assert stats.acc_amp_avg is None
    assert stats.maa_acceptance == {
        1.0: pytest.approx((1.0 - pmf.error_rate) * 100.0)}
