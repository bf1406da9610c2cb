"""Bench (hardware): the Fig. 5/6 correction circuit, gate level.

Drives the actual correction netlist (muxes + OR gates + forced LSBs +
detector ANDs) through the multi-cycle harness over random operands,
checking it reproduces the behavioural §3.3 corrector cycle-for-cycle, and
measuring the hardware cost the correction muxes add to the datapath.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.correction import ErrorCorrector
from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.builders import build_gear_corrected
from repro.rtl.correction_harness import MultiCycleCorrector
from repro.spec.catalog import gear_spec
from repro.timing.fpga import characterize_netlist

CONFIGS = [(12, 4, 4), (12, 2, 6), (16, 2, 2)]
SAMPLES = 30_000


def _run():
    rng = np.random.default_rng(11)
    rows = []
    for n, r, p in CONFIGS:
        a = rng.integers(0, 1 << n, SAMPLES, dtype=np.int64)
        b = rng.integers(0, 1 << n, SAMPLES, dtype=np.int64)
        netlist = build_gear_corrected(n, r, p)
        hw = MultiCycleCorrector(netlist).add(a, b)
        sw = ErrorCorrector(GeArAdder(GeArConfig(n, r, p))).add(a, b)
        plain = characterize_netlist(gear_spec(n, r, p).to_netlist())
        corrected = characterize_netlist(netlist)
        rows.append(
            {
                "config": (n, r, p),
                "exact": bool(np.array_equal(hw.value, a + b)),
                "cycles_match": bool(np.array_equal(hw.cycles, sw.cycles)),
                "mean_cycles": float(np.mean(hw.cycles)),
                "plain_luts": plain.luts,
                "corrected_luts": corrected.luts,
                "plain_ns": plain.delay_ns,
                "corrected_ns": corrected.delay_ns,
            }
        )
    return rows


def test_correction_hardware(benchmark, archive):
    rows = benchmark(_run)
    archive(
        "correction_hardware",
        format_table(
            ["(N,R,P)", "exact", "cycles==model", "mean cycles",
             "LUTs plain", "LUTs corrected", "ns plain", "ns corrected"],
            [
                (str(r["config"]), r["exact"], r["cycles_match"],
                 f"{r['mean_cycles']:.4f}", r["plain_luts"],
                 r["corrected_luts"], f"{r['plain_ns']:.3f}",
                 f"{r['corrected_ns']:.3f}")
                for r in rows
            ],
            title="Hardware — §3.3 correction circuit (Figs. 5/6), gate level",
        ),
    )

    for r in rows:
        assert r["exact"], r["config"]
        assert r["cycles_match"], r["config"]
        # The correction muxes cost area and a little delay — the overhead
        # the error-control select signal exists to avoid when tolerable.
        assert r["corrected_luts"] >= r["plain_luts"]
        assert r["corrected_ns"] >= r["plain_ns"] - 1e-9
        # Mean cycles ≈ 1 + p_err (k=2) and stays < 2 for these configs.
        assert 1.0 <= r["mean_cycles"] < 2.0
