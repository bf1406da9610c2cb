"""Unit tests for the pipeline simulation that validates Table IV."""

import pytest

from repro.adders import GracefullyDegradingAdder
from repro.core.error_model import paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.timing.pipeline import ModelComparison, compare_with_model, simulate_pipeline
from repro.utils.distributions import SparseOperands


class TestSimulatePipeline:
    def test_exact_adder_never_stalls(self):
        adder = GeArAdder(GeArConfig(8, 4, 4))  # k = 1
        run = simulate_pipeline(adder, 5000, seed=1)
        assert run.total_cycles == 5000
        assert run.stall_fraction == 0.0
        assert run.total_corrections == 0

    def test_cycle_accounting(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        run = simulate_pipeline(adder, 50_000, seed=2)
        assert run.total_cycles == run.operations + run.total_corrections
        assert run.cycles_per_op >= 1.0

    def test_runtime_scaling(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        run = simulate_pipeline(adder, 10_000, seed=3)
        assert run.runtime_seconds(2.0) == pytest.approx(
            run.total_cycles * 2e-9
        )

    def test_stall_rate_tracks_error_probability(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))  # k=2: one stall per error
        run = simulate_pipeline(adder, 200_000, seed=4)
        corrected_rate = run.corrected_operations / run.operations
        assert corrected_rate == pytest.approx(adder.error_probability(),
                                               abs=2e-3)

    def test_sparse_stream_stalls_less(self):
        adder = GeArAdder(GeArConfig(16, 2, 2))
        uniform = simulate_pipeline(adder, 50_000, seed=5)
        sparse = simulate_pipeline(
            adder, 50_000, seed=5,
            distribution=SparseOperands(16, one_density=0.2),
        )
        assert sparse.stall_fraction < uniform.stall_fraction

    def test_selective_enable_reduces_stalls(self):
        adder = GeArAdder(GeArConfig(12, 2, 6))
        full = simulate_pipeline(adder, 50_000, seed=6)
        msb = simulate_pipeline(adder, 50_000, seed=6,
                                enabled=[False, True])
        assert msb.total_cycles <= full.total_cycles


class TestModelComparison:
    @pytest.mark.parametrize("n,r,p", [(12, 4, 4), (20, 5, 5), (16, 2, 2)])
    def test_measurement_within_paper_envelope(self, n, r, p):
        ops = 150_000
        adder = GeArAdder(GeArConfig(n, r, p))
        cmp = compare_with_model(adder, operations=ops, seed=7)
        # Allow Monte-Carlo noise on the measurement (5 sigma of the
        # per-addition stall indicator); for k=2 the envelope has zero
        # width so this slack is what the test actually exercises.
        p_err = adder.error_probability()
        sigma = (p_err * (1 - p_err) * (adder.config.k - 1) ** 2 / ops) ** 0.5
        assert cmp.predicted_best - 5 * sigma <= cmp.measured_cycles_per_op \
            <= cmp.predicted_worst + 5 * sigma, cmp

    def test_k2_measurement_equals_best_scenario(self):
        # With k = 2 every erroneous addition costs exactly one extra
        # cycle, so the measurement converges to the 'best' scenario.
        adder = GeArAdder(GeArConfig(12, 4, 4))
        cmp = compare_with_model(adder, operations=400_000, seed=8)
        assert cmp.measured_cycles_per_op == pytest.approx(
            cmp.predicted_best, abs=1e-3
        )

    def test_scenarios_ordered(self):
        adder = GeArAdder(GeArConfig(16, 2, 2))
        cmp = compare_with_model(adder, operations=20_000, seed=9)
        assert cmp.predicted_best <= cmp.predicted_average <= cmp.predicted_worst

    def test_gda_scenarios_use_its_block_count(self):
        # GDA(8,2,2) has four blocks, one more than GeAr(8,2,2)'s k.
        adder = GracefullyDegradingAdder(8, 2, 2)
        cmp = compare_with_model(adder, operations=20_000, seed=10)
        p_err = paper_error_probability(adder)
        assert cmp.predicted_worst == pytest.approx(1.0 + 3 * p_err)
        assert cmp.within_envelope, cmp

    def test_envelope_property(self):
        good = ModelComparison(1.05, 1.0, 1.1, 1.2)
        assert good.within_envelope
        bad = ModelComparison(1.5, 1.0, 1.1, 1.2)
        assert not bad.within_envelope
