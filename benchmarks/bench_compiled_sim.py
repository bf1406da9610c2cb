"""Bench (micro): compiled bit-sliced kernel vs the gate interpreter.

Not a paper artefact — this times the two netlist simulators on the
workload the kernel exists for: campaign-style repeated evaluation of a
GeAr N=32 netlist (fault sweeps, conformance sweeps, engine shards),
where the operand set is packed once and the kernel is replayed many
times.  The interpreter walks the gate graph with one boolean array per
net on every replay; the kernel replays a level program of grouped
``uint64`` word ops over lanes (:mod:`repro.rtl.compile`).

The acceptance floor is a 20x sustained-throughput advantage for the
compiled kernel at N=32.  The CI ``compile-smoke`` job runs
``python benchmarks/bench_compiled_sim.py 10`` — a deliberately lower
floor, since shared runners are slow and noisy; the 20x default is the
claim for dedicated hardware.  The cold single-batch ratio (one packed
run including both transposes vs one interpreter pass) is reported
alongside for context but not gated: pack/unpack amortises away on
campaigns, which is the point.
"""

import time

import numpy as np

from repro.rtl.compile import compile_netlist, pack_operands
from repro.rtl.sim import simulate
from repro.spec.catalog import gear_spec

N = 32
R, P = 4, 4
VECTORS = 1 << 18
REPLAYS = 8
SEED = 2015

#: Required sustained compiled-vs-interpreted throughput ratio at N=32.
MIN_SPEEDUP = 20.0


def _workload():
    netlist = gear_spec(N, R, P).to_netlist()
    rng = np.random.default_rng(SEED)
    stimulus = {
        bus: rng.integers(0, 1 << width, size=VECTORS, dtype=np.int64)
        for bus, width in netlist.input_buses.items()
    }
    return netlist, stimulus


def _interpreter_campaign_s(netlist, stimulus, repeats: int = 2) -> float:
    """Best-of-``repeats`` wall time for REPLAYS interpreter passes."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(REPLAYS):
            simulate(netlist, stimulus)
        best = min(best, time.perf_counter() - start)
    return best


def _compiled_campaign_s(netlist, stimulus, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time for pack + REPLAYS kernel replays."""
    kernel = compile_netlist(netlist)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        packed = {
            bus: pack_operands(stimulus[bus], width)
            for bus, width in netlist.input_buses.items()
        }
        for _ in range(REPLAYS):
            kernel.run_packed(packed)
        best = min(best, time.perf_counter() - start)
    return best


def _cold_single_batch_ratio(netlist, stimulus) -> float:
    """One end-to-end kernel run (pack + eval + unpack) vs one interpreter
    pass — informational only."""
    kernel = compile_netlist(netlist)
    kernel.run(stimulus)  # warm the ufunc and allocation paths
    start = time.perf_counter()
    kernel.run(stimulus)
    compiled_s = time.perf_counter() - start
    start = time.perf_counter()
    simulate(netlist, stimulus)
    interp_s = time.perf_counter() - start
    return interp_s / compiled_s if compiled_s > 0 else float("inf")


def measure_speedup(verbose: bool = False) -> float:
    netlist, stimulus = _workload()
    compiled_s = _compiled_campaign_s(netlist, stimulus)
    interp_s = _interpreter_campaign_s(netlist, stimulus)
    speedup = interp_s / compiled_s if compiled_s > 0 else float("inf")
    if verbose:
        per_vec = interp_s / (REPLAYS * VECTORS)
        print(f"workload: GeAr({N}, {R}, {P}), {VECTORS} vectors x "
              f"{REPLAYS} replays, {netlist.stats()['nets']} nets")
        print(f"interpreter: {interp_s:.3f} s ({per_vec * 1e9:.0f} ns/vector)")
        print(f"compiled   : {compiled_s:.3f} s (pack once, replay packed)")
        print(f"sustained speedup: {speedup:.1f}x (floor: {MIN_SPEEDUP:.0f}x)")
        print(f"cold single-batch: {_cold_single_batch_ratio(netlist, stimulus):.1f}x "
              "(not gated; includes both transposes)")
    return speedup


def test_compiled_campaign_speedup(benchmark):
    benchmark.extra_info["workload"] = (
        f"GeAr({N},{R},{P}), {VECTORS} vectors x {REPLAYS} replays")
    netlist, stimulus = _workload()
    compiled_s = benchmark(_compiled_campaign_s, netlist, stimulus)
    interp_s = _interpreter_campaign_s(netlist, stimulus)
    assert interp_s / compiled_s >= MIN_SPEEDUP


def test_compiled_campaign_bit_equal():
    """The timed artefacts are the same bits: no speed-for-accuracy trade."""
    from repro.rtl.compile import unpack_lanes
    from repro.rtl.sim import simulate_bus

    netlist, stimulus = _workload()
    kernel = compile_netlist(netlist)
    packed = {
        bus: pack_operands(stimulus[bus], width)
        for bus, width in netlist.input_buses.items()
    }
    lanes = kernel.run_packed(packed)
    for bus in netlist.output_buses:
        np.testing.assert_array_equal(
            unpack_lanes(list(lanes[bus]), VECTORS),
            simulate_bus(netlist, stimulus, bus))


if __name__ == "__main__":
    import sys

    floor = float(sys.argv[1]) if len(sys.argv) > 1 else MIN_SPEEDUP
    sys.exit(0 if measure_speedup(verbose=True) >= floor else 1)
