"""Bench (ablation): switching energy vs accuracy across adders.

The paper's introduction promises performance *and power* benefits from
approximation.  This ablation measures relative dynamic energy (toggle ×
capacitance) for the Table I adder families under a common operand stream,
exposing the nuance: speculative adders pay a small energy premium for
their redundant windows — their win is the shorter critical path (which
enables voltage/frequency scaling), while CLA-heavy designs (GDA) lose on
both axes.
"""

from repro.adders import (
    AccuracyConfigurableAdder,
    CarryLookaheadAdder,
    GracefullyDegradingAdder,
    RippleCarryAdder,
)
from repro.analysis.tables import format_table
from repro.core.error_model import paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.power import characterize_power
from repro.timing.fpga import characterize

SAMPLES = 3000


def _run():
    adders = [
        RippleCarryAdder(16),
        GeArAdder(GeArConfig(16, 4, 4)),
        GeArAdder(GeArConfig(16, 2, 2)),
        GeArAdder(GeArConfig(16, 4, 8)),
        AccuracyConfigurableAdder(16, 8),
        GracefullyDegradingAdder(16, 4, 8),
        CarryLookaheadAdder(16),
    ]
    rows = []
    for adder in adders:
        power = characterize_power(adder, samples=SAMPLES, seed=7)
        char = characterize(adder)
        prob = paper_error_probability(adder)
        rows.append(
            {
                "name": adder.name,
                "energy": power.energy_per_op,
                "delay": char.delay_ns,
                "edp": power.energy_per_op * char.delay_ns,
                "p_err": prob if prob is not None else float("nan"),
            }
        )
    return rows


def test_ablation_power(benchmark, archive):
    rows = benchmark(_run)
    archive(
        "ablation_power",
        format_table(
            ["adder", "energy/op", "delay ns", "energy×delay", "p(err)"],
            [
                (r["name"], f"{r['energy']:.2f}", f"{r['delay']:.3f}",
                 f"{r['edp']:.2f}", f"{r['p_err']:.4f}")
                for r in rows
            ],
            title="Ablation — relative dynamic energy vs accuracy (16-bit)",
        ),
    )

    by_name = {r["name"]: r for r in rows}
    rca = by_name["RCA(N=16)"]
    gda = by_name["GDA(N=16,MB=4,MC=8)"]
    cla = by_name["CLA(N=16)"]
    gear = by_name["GeAr(N=16,R=4,P=4)"]

    # CLA-style logic is the energy hog; GDA inherits part of that.
    assert cla["energy"] > rca["energy"]
    assert gda["energy"] > gear["energy"]
    # GeAr's redundant windows cost bounded extra energy vs RCA (< 60 %)...
    assert gear["energy"] < rca["energy"] * 1.6
    # ...and its energy-delay product beats GDA's clearly.
    assert gear["edp"] < gda["edp"] / 1.5
