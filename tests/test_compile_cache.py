"""The fingerprint-keyed kernel cache and its engine integration.

Kernels are memoised under ``compiled/v{COMPILE_VERSION}:<fingerprint>``
keys: byte-identical specs share one compiled function object, any spec
mutation recompiles, and cache traffic is visible through ``repro.obs``
counters.  The engine-facing tests pin that results from the ``compiled``
backend are identical across worker counts (each pool worker fills its
own process-local cache).
"""

import pytest

from repro import obs
from repro.engine import Engine, EvalRequest
from repro.rtl.compile import (
    COMPILE_VERSION,
    CompiledAdder,
    clear_kernel_cache,
    compiled_kernel,
    kernel_cache_size,
    kernel_key,
)
from repro.rtl.sim import simulate
from repro.spec.catalog import gear_spec
from repro.spec.ir import AdderSpec


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


def _spec():
    return gear_spec(8, 2, 2, allow_partial=True)


class TestKernelCache:
    def test_byte_identical_specs_share_one_kernel(self):
        spec = _spec()
        clone = AdderSpec.from_json(spec.to_json())
        assert clone is not spec
        assert clone.fingerprint() == spec.fingerprint()
        assert compiled_kernel(spec) is compiled_kernel(clone)
        assert kernel_cache_size() == 1

    def test_spec_and_derived_model_share_one_kernel(self):
        spec = _spec()
        assert compiled_kernel(spec) is compiled_kernel(spec.to_model())
        assert kernel_cache_size() == 1

    def test_mutation_invalidates(self):
        spec = _spec()
        first = compiled_kernel(spec)
        mutated = spec.renamed(spec.name + "_variant")
        second = compiled_kernel(mutated)
        assert first is not second
        assert kernel_cache_size() == 2

    def test_clear_kernel_cache(self):
        compiled_kernel(_spec())
        assert kernel_cache_size() == 1
        clear_kernel_cache()
        assert kernel_cache_size() == 0

    def test_cache_counters(self):
        spec = _spec()
        with obs.collecting() as col:
            compiled_kernel(spec)
            compiled_kernel(spec)
            compiled_kernel(spec)
        counters = col.snapshot().counters
        assert counters["rtl.compile.cache_misses"] == 1
        assert counters["rtl.compile.cache_hits"] == 2
        assert counters["rtl.compile.compiled"] == 1

    def test_kernel_key_is_version_tagged(self):
        spec = _spec()
        assert kernel_key(spec) == (
            f"compiled/v{COMPILE_VERSION}:{spec.fingerprint()}")

    def test_kernel_key_requires_a_fingerprint(self):
        with pytest.raises(TypeError, match="fingerprint"):
            kernel_key(object())

    def test_compiled_kernel_requires_a_netlist(self):
        class Fingerprinted:
            name = "ghost"

            def fingerprint(self):
                return "ghost/v1:x"

        with pytest.raises(ValueError, match="netlist"):
            compiled_kernel(Fingerprinted())


class TestCompiledAdderIdentity:
    def test_fingerprint_disjoint_from_model(self):
        model = _spec().to_model()
        proxy = CompiledAdder(model)
        assert proxy.fingerprint() == kernel_key(model)
        assert proxy.fingerprint() != model.fingerprint()

    def test_proxy_is_picklable(self):
        import pickle

        proxy = CompiledAdder(_spec().to_model())
        clone = pickle.loads(pickle.dumps(proxy))
        assert clone.width == proxy.width
        assert int(clone.add(3, 5)) == int(proxy.add(3, 5))


class TestEngineIntegration:
    def test_jobs_invariance(self):
        # Same shard plan, different worker counts: the compiled backend
        # must produce bit-identical stats (workers compile into their
        # own process caches).
        model = _spec().to_model()
        request = EvalRequest.exhaustive(model, backend="compiled")
        one = Engine(jobs=1, shard_samples=16384).evaluate(request)
        two = Engine(jobs=2, shard_samples=16384).evaluate(request)
        assert one.stats == two.stats

    def test_warm_cache_round_trip(self, tmp_path):
        model = _spec().to_model()
        request = EvalRequest.exhaustive(model, backend="compiled")
        engine = Engine(jobs=1, cache=tmp_path)
        cold = engine.evaluate(request)
        assert cold.shards_executed > 0
        warm = engine.evaluate(request)
        assert warm.shards_executed == 0
        assert warm.stats == cold.stats


class TestTopoMemoisation:
    def test_levels_computed_once_across_simulations(self):
        # The interpreter and the compiler both lean on the memoised
        # topological derivation: repeated simulation of one netlist
        # must run Kahn's algorithm exactly once.
        netlist = gear_spec(8, 2, 2).to_netlist()
        with obs.collecting() as col:
            for _ in range(5):
                simulate(netlist, {"A": 3, "B": 9})
            netlist.topological_order()
            netlist.topological_levels()
        assert col.snapshot().counters["rtl.netlist.topo_computed"] == 1

    def test_mutation_resets_memo(self):
        netlist = gear_spec(8, 2, 2).to_netlist()
        with obs.collecting() as col:
            netlist.topological_order()
            netlist.and_(netlist.const(1), netlist.const(0))
            netlist.topological_order()
        assert col.snapshot().counters["rtl.netlist.topo_computed"] == 2
