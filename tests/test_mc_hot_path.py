"""Golden checks for the Monte-Carlo shard's hot path.

The sparse operand sampler packs its Bernoulli bit matrix with
``np.packbits`` and ``accuracy_information`` counts wrong bits with
``np.bitwise_count``.  Both must reproduce, byte for byte, the
multiply-sum and per-bit shift loop they replace; the reference copies
of those loops live here so the comparison outlives the code.  The
compiled backend's support check compiles (and caches) the kernel, so a
spec's netlist is built once per process however many requests use it.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.adders.base import AdderModel
from repro.core.gear import GeArAdder, GeArConfig
from repro.engine import AnalyticUnsupported, Engine, EvalRequest
from repro.metrics.error_metrics import accuracy_information
from repro.rtl.compile import CompiledAdder, clear_kernel_cache
from repro.spec.catalog import catalog_spec
from repro.utils.distributions import SparseOperands


def _multiply_sum_draw(rng, count, width, one_density):
    bits = rng.random(size=(count, width)) < one_density
    weights = (1 << np.arange(width, dtype=np.int64))[None, :]
    return (bits * weights).sum(axis=1).astype(np.int64)


def _shift_loop_acc_inf(approx, exact, out_width):
    diff = (np.asarray(approx, dtype=np.int64)
            ^ np.asarray(exact, dtype=np.int64))
    wrong = np.zeros(diff.shape, dtype=np.int64)
    for i in range(out_width):
        wrong += (diff >> i) & 1
    return 1.0 - wrong / float(out_width)


class TestSparseOperandsGolden:
    @pytest.mark.parametrize("count", [0, 1, 5, 16384])
    @pytest.mark.parametrize("one_density", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("width",
                             [1, 3, 7, 8, 12, 16, 31, 32, 33, 48, 62])
    def test_packed_draw_matches_multiply_sum(self, width, one_density,
                                              count):
        seed = 1000 * width + count
        a, b = SparseOperands(width, one_density).sample(
            count, np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed)
        ref_a = _multiply_sum_draw(ref_rng, count, width, one_density)
        ref_b = _multiply_sum_draw(ref_rng, count, width, one_density)
        for got, ref in ((a, ref_a), (b, ref_b)):
            assert got.dtype == ref.dtype
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestSparseOperandsWidthLimit:
    @pytest.mark.parametrize("width", [63, 64])
    def test_sample_rejects_wide_operands(self, width):
        dist = SparseOperands(width, 0.5)
        with pytest.raises(ValueError, match="62-bit"):
            dist.sample(4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="62-bit"):
            dist.sample_pairs(4, seed=0)

    def test_wide_distribution_still_serves_analytic_requests(self):
        dist = SparseOperands(64, 0.25)
        assert dist.bit_probabilities() == (0.25,) * 64
        request = EvalRequest.monte_carlo(
            GeArAdder(GeArConfig(64, 16, 16)), 1000, distribution=dist,
            backend="auto")
        result = Engine(jobs=1).evaluate(request)
        assert result.stats.samples == 0  # answered without sampling
        assert 0.0 < result.stats.error_rate < 1e-6

    def test_sample_pairs_rejects_negative_operands(self):
        class Negative(SparseOperands):
            def sample(self, count, rng):
                a, b = super().sample(count, rng)
                return a - 1, b

        with pytest.raises(AssertionError, match="out-of-range"):
            Negative(8, 0.0).sample_pairs(3, seed=0)


class TestAccuracyInformationGolden:
    @pytest.mark.parametrize("out_width", [2, 9, 17, 33, 63])
    def test_popcount_matches_shift_loop(self, out_width):
        rng = np.random.default_rng(out_width)
        top = 1 << out_width
        exact = rng.integers(0, top, size=4096, dtype=np.int64)
        approx = rng.integers(0, top, size=4096, dtype=np.int64)
        approx[:64] = exact[:64]
        approx[64] = top - 1
        exact[64] = 0
        got = accuracy_information(approx, exact, out_width)
        ref = _shift_loop_acc_inf(approx, exact, out_width)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_counts_only_output_positions(self):
        # Bits above out_width (and the sign bits of a negative XOR) lie
        # outside the output and are not counted, as in the shift loop.
        approx = np.array([0b1_0000, -1, 5], dtype=np.int64)
        exact = np.array([0, 0, 5], dtype=np.int64)
        got = accuracy_information(approx, exact, 4)
        assert got.tobytes() == _shift_loop_acc_inf(approx, exact,
                                                    4).tobytes()
        np.testing.assert_array_equal(got, [1.0, 0.0, 1.0])


#: sha256 of ``json.dumps(EvalResult.to_json(), sort_keys=True)`` for
#: 20 000-sample sparse-operand requests at seed 7, recorded before the
#: sampler and ACC_inf kernels were rewritten.  Sampling and compiled
#: twins agree, so one digest serves both backends.
SPARSE_DIGESTS = {
    ("gear_r2p2", 16, 0.25):
        "69495de8688e993136feecf3e8c9fc14df088818eb1fd6ef6f4a27aedeb8149d",
    ("gear_r2p2", 16, 0.75):
        "792878712619a7880a6da0fcf5d24187dc72c22c35234fe0584c8a338450b21a",
    ("cesa_rect", 32, 0.25):
        "7ae591c062e1c40ac37030361a788525efffc4197fb9b287e948f9209743e704",
    ("cesa_rect", 32, 0.75):
        "58e2867ae659c5404c2be4ec2cda65be84a2fd27677658eef688bf372527fa4c",
}


@pytest.mark.parametrize("backend", ["sampling", "compiled"])
@pytest.mark.parametrize("key,width,one_density", sorted(SPARSE_DIGESTS))
def test_sparse_monte_carlo_result_is_pinned(key, width, one_density,
                                             backend):
    adder = catalog_spec(key, width).to_model()
    request = EvalRequest.monte_carlo(
        adder, 20000, seed=7,
        distribution=SparseOperands(width, one_density), backend=backend)
    result = Engine(jobs=1).evaluate(request)
    blob = json.dumps(result.to_json(), sort_keys=True).encode()
    assert (hashlib.sha256(blob).hexdigest()
            == SPARSE_DIGESTS[key, width, one_density])


class TestOneNetlistBuildPerKernel:
    @pytest.fixture(autouse=True)
    def fresh_kernels(self):
        clear_kernel_cache()
        yield
        clear_kernel_cache()

    @staticmethod
    def _spans(frame, name):
        return sum(stat.count for path, stat in frame.spans.items()
                   if path.split("/")[-1] == name)

    def test_two_compiled_requests_build_the_netlist_once(self):
        spec = catalog_spec("gear_r2p2", 16)
        with obs.collecting() as col:
            model = spec.to_model()
            engine = Engine(jobs=1)
            for seed in (1, 2):
                engine.evaluate(EvalRequest.monte_carlo(
                    model, 2000, seed=seed, backend="compiled"))
        frame = col.snapshot()
        assert self._spans(frame, "spec.to_model") == 1
        assert self._spans(frame, "spec.to_netlist") == 1

    def test_netlist_less_model_is_unsupported(self):
        class Opaque(AdderModel):
            def __init__(self):
                super().__init__(8, "opaque")

            def _add_impl(self, a, b):
                return a + b

        request = EvalRequest.monte_carlo(Opaque(), 100, backend="compiled")
        with pytest.raises(AnalyticUnsupported,
                           match="has no gate-level netlist to compile"):
            Engine(jobs=1).evaluate(request)
        with pytest.raises(ValueError, match="netlist"):
            CompiledAdder(Opaque())
