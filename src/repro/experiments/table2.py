"""Table II — GDA vs GeAr for an 8-bit adder, plus Fig. 8's Delay×NED.

The paper's point: at identical (prediction, resultant) parameters the two
architectures have identical error behaviour, but GDA pays extra delay and
area for its carry-lookahead prediction units.  We reproduce every
(M_B, M_C) / (R, P) pair of the table with:

* NED measured by exhaustive simulation (8-bit → all 65 536 pairs exact),
* delay / LUTs from the FPGA characterisation of each *architecture's own*
  netlist (GDA's with genuine CLA predictors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.adders import GracefullyDegradingAdder
from repro.analysis.tables import format_table
from repro.core.gear import GeArAdder, GeArConfig
from repro.experiments.result import ExperimentResult
from repro.metrics.exhaustive import exhaustive_stats
from repro.paperdata import TABLE2_GDA, TABLE2_GEAR
from repro.timing.fpga import characterize

TABLE2_WIDTH = 8
#: The (M_B / R, M_C / P) pairs evaluated by the paper.
TABLE2_CONFIGS: Tuple[Tuple[int, int], ...] = (
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 4),
)

TABLE2_HEADERS = ("architecture", "r", "p", "delay_ns", "paper_delay_ns",
                  "luts", "paper_luts", "med", "ned_paper_convention",
                  "paper_ned", "delay_ned")


@dataclass(frozen=True)
class Table2Row:
    architecture: str
    r: int
    p: int
    delay_ns: float
    luts: int
    med: float
    ned: float
    ned_paper_convention: float
    paper_delay_ns: Optional[float]
    paper_luts: Optional[int]
    paper_ned: Optional[float]

    @property
    def delay_ned_product(self) -> float:
        """Delay × NED under the paper's NED convention (MED / 2^{N-R})."""
        return self.delay_ns * 1e-9 * self.ned_paper_convention


def _make_row(architecture: str, adder, r: int, p: int, ref, engine=None) -> Table2Row:
    char = characterize(adder)
    stats = exhaustive_stats(adder, engine=engine)
    return Table2Row(
        architecture=architecture,
        r=r,
        p=p,
        delay_ns=char.delay_ns,
        luts=char.luts,
        med=stats.med,
        ned=stats.ned,
        ned_paper_convention=stats.med / 2 ** (TABLE2_WIDTH - r),
        paper_delay_ns=ref.get("delay_ns"),
        paper_luts=int(ref["luts"]) if "luts" in ref else None,
        paper_ned=ref.get("ned"),
    )


def _gda_row(r: int, p: int, engine=None) -> Table2Row:
    adder = GracefullyDegradingAdder(TABLE2_WIDTH, r, p, enforce_multiple=False)
    return _make_row("GDA", adder, r, p, TABLE2_GDA.get((r, p), {}), engine)


def _gear_row(r: int, p: int, engine=None) -> Table2Row:
    strict = (TABLE2_WIDTH - r - p) % r == 0
    adder = GeArAdder(GeArConfig(TABLE2_WIDTH, r, p, allow_partial=not strict))
    return _make_row("GeAr", adder, r, p, TABLE2_GEAR.get((r, p), {}), engine)


def _table2_row(row: Table2Row) -> dict:
    return {
        "architecture": row.architecture,
        "r": row.r,
        "p": row.p,
        "delay_ns": row.delay_ns,
        "paper_delay_ns": row.paper_delay_ns,
        "luts": row.luts,
        "paper_luts": row.paper_luts,
        "med": row.med,
        "ned_paper_convention": row.ned_paper_convention,
        "paper_ned": row.paper_ned,
        "delay_ned": row.delay_ned_product,
    }


def run_table2(configs: Tuple[Tuple[int, int], ...] = TABLE2_CONFIGS,
               engine=None) -> "ExperimentResult":
    """Every GDA and GeAr row of Table II."""
    rows: List[Table2Row] = []
    for r, p in configs:
        rows.append(_gda_row(r, p, engine))
    for r, p in configs:
        rows.append(_gear_row(r, p, engine))
    return ExperimentResult("table2", TABLE2_HEADERS, rows, _table2_row)


def render_table2(rows: Optional[List[Table2Row]] = None) -> str:
    rows = rows if rows is not None else run_table2()
    return format_table(
        ["arch", "(R,P)", "delay ns", "paper ns", "LUTs", "paper LUTs",
         "MED", "NED*", "paper NED", "Delay×NED"],
        [
            (
                row.architecture,
                f"({row.r},{row.p})",
                f"{row.delay_ns:.3f}",
                row.paper_delay_ns,
                row.luts,
                row.paper_luts,
                f"{row.med:.3f}",
                f"{row.ned_paper_convention:.4f}",
                row.paper_ned,
                f"{row.delay_ned_product:.4e}",
            )
            for row in rows
        ],
        title=(
            "Table II — GDA vs GeAr, 8-bit adders "
            "(NED* = MED / 2^(N-R), the paper's normalisation)"
        ),
    )
