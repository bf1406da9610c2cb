"""Bench (ablation): GeAr with RCA vs CLA sub-adders (§4.4's ASIC remark).

"Our GeAr model is not specific to any particular sub-adder implementation
... for an ASIC implementation an n-bit CLA [may be] faster."  We build
GeAr(16, 4, P) with both sub-adder styles and time them under two delay
models: the FPGA model (dedicated carry chains → RCA wins) and the
unit-delay model as an ASIC logic-depth proxy (CLA's shallow trees win).
"""

from repro.analysis.tables import format_table
from repro.rtl.sta import UnitDelayModel, critical_path_delay
from repro.spec.catalog import gear_spec
from repro.timing.fpga import FPGA_DELAY_MODEL


def _run():
    rows = []
    for p in (2, 4, 8):
        strict = (16 - 4 - p) % 4 == 0
        for style in ("rca", "cla"):
            nl = gear_spec(16, 4, p, allow_partial=not strict,
                           arch=style).to_netlist()
            rows.append(
                {
                    "p": p,
                    "style": style,
                    "fpga_ns": critical_path_delay(nl, FPGA_DELAY_MODEL,
                                                   buses=["S"]),
                    "depth": critical_path_delay(nl, UnitDelayModel(),
                                                 buses=["S"]),
                }
            )
    return rows


def test_ablation_subadder_style(benchmark, archive):
    rows = benchmark(_run)
    archive(
        "ablation_subadder",
        format_table(
            ["P", "sub-adder", "FPGA delay ns", "logic depth"],
            [(r["p"], r["style"], f"{r['fpga_ns']:.3f}", int(r["depth"]))
             for r in rows],
            title="Ablation — GeAr(16,4,P) sub-adder style: FPGA vs logic depth",
        ),
    )

    for p in (2, 4, 8):
        rca = next(r for r in rows if r["p"] == p and r["style"] == "rca")
        cla = next(r for r in rows if r["p"] == p and r["style"] == "cla")
        # FPGA: the dedicated carry chain wins (the paper's Table I setting).
        assert rca["fpga_ns"] < cla["fpga_ns"]
        # ASIC proxy: CLA's logarithmic depth wins (the §4.4 remark).
        assert cla["depth"] < rca["depth"]
