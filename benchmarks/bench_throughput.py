"""Bench (micro): raw model throughput.

Not a paper artefact — these time the library's own hot paths so
performance regressions in the vectorised adders, the error-model DP and
the netlist simulator are caught.
"""

import numpy as np
import pytest

from repro.core.correction import ErrorCorrector
from repro.core.error_model import error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.sim import simulate_bus

BATCH = 200_000


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 1 << 16, size=BATCH, dtype=np.int64)
    b = rng.integers(0, 1 << 16, size=BATCH, dtype=np.int64)
    return a, b


def test_vectorised_gear_add_throughput(benchmark, operands):
    adder = GeArAdder(GeArConfig(16, 4, 4))
    a, b = operands
    result = benchmark(adder.add, a, b)
    assert np.all(np.asarray(result) <= a + b)


def test_corrected_add_throughput(benchmark, operands):
    adder = GeArAdder(GeArConfig(16, 4, 4))
    corrector = ErrorCorrector(adder)
    a, b = operands
    result = benchmark(corrector.add, a, b)
    np.testing.assert_array_equal(result.value, a + b)


def test_error_model_dp_speed(benchmark):
    # The DP must stay fast enough for full design-space sweeps.
    def sweep():
        total = 0.0
        for p in range(1, 56):
            cfg = GeArConfig(64, 2, p, allow_partial=(64 - 2 - p) % 2 != 0)
            total += error_probability(cfg)
        return total

    total = benchmark(sweep)
    assert total > 0


def test_exact_dp_speed(benchmark):
    cfg = GeArConfig(48, 8, 16)
    value = benchmark(GeArAdder(cfg).error_probability)
    assert value == pytest.approx(error_probability(cfg), abs=1e-12)


def test_netlist_simulation_throughput(benchmark):
    adder = GeArAdder(GeArConfig(16, 4, 4))
    netlist = adder.build_netlist()
    rng = np.random.default_rng(2)
    a = rng.integers(0, 1 << 16, size=20_000, dtype=np.int64)
    b = rng.integers(0, 1 << 16, size=20_000, dtype=np.int64)
    got = benchmark(simulate_bus, netlist, {"A": a, "B": b}, "S")
    np.testing.assert_array_equal(got, np.asarray(adder.add(a, b)))
