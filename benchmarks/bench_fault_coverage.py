"""Bench (extension): stuck-at fault coverage of the adder netlists.

Classic fault simulation over the generated RTL: RCA is irredundant
(100 % stuck-at coverage), while GeAr's overlapping speculative windows
deliberately compute bits that are later discarded — measurable logic
redundancy.  The §3.3 detector observes a substantial share of the
detectable faults for free, which is a nice secondary use of the
error-detection hardware.
"""

from repro.analysis.tables import format_table
from repro.rtl.builders import build_gear_corrected
from repro.rtl.faults import fault_simulation
from repro.spec.catalog import exact_spec, gear_spec

VECTORS = 192


def _run():
    designs = {
        "RCA(8)": exact_spec(8).to_netlist(),
        "GeAr(8,2,2)": gear_spec(8, 2, 2).to_netlist(),
        "GeAr(12,4,4)": gear_spec(12, 4, 4).to_netlist(),
        "GeAr(12,4,4)+corr": build_gear_corrected(12, 4, 4),
    }
    rows = []
    for name, netlist in designs.items():
        report = fault_simulation(netlist, vectors=VECTORS, seed=13)
        rows.append(
            {
                "name": name,
                "faults": report.total,
                "coverage": report.coverage,
                "err_obs": report.err_observability,
                "undetected": len(report.undetected),
            }
        )
    return rows


def test_fault_coverage(benchmark, archive):
    rows = benchmark(_run)
    archive(
        "fault_coverage",
        format_table(
            ["design", "faults", "coverage", "ERR observability",
             "undetected"],
            [
                (r["name"], r["faults"], f"{r['coverage']:.4f}",
                 f"{r['err_obs']:.4f}", r["undetected"])
                for r in rows
            ],
            title="Extension — stuck-at fault coverage of generated RTL",
        ),
    )

    by_name = {r["name"]: r for r in rows}
    # RCA is irredundant.
    assert by_name["RCA(8)"]["coverage"] == 1.0
    # GeAr carries redundancy (discarded speculative low bits).
    assert by_name["GeAr(8,2,2)"]["coverage"] < 1.0
    assert by_name["GeAr(12,4,4)"]["coverage"] < 1.0
    # The §3.3 detector observes a meaningful share of detected faults.
    assert by_name["GeAr(8,2,2)"]["err_obs"] > 0.3
    # The correction datapath (muxes held inactive) adds more logic that is
    # unobservable in normal mode — coverage drops further.
    assert by_name["GeAr(12,4,4)+corr"]["coverage"] <= \
        by_name["GeAr(12,4,4)"]["coverage"] + 1e-9
