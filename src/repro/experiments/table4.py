"""Table IV — delay, error probability and Image Integral execution times.

For the Image Integral application (N=20, 10-bit sub-adders, one addition
per full-HD pixel) every adder's runtime is *predicted* from its path
delay, its analytic error probability and its sub-adder count — the §4.4
claim that the error model replaces application simulation.

Delay columns come from our FPGA characterisation (paper: ISE on Virtex-6);
the paper's delays are carried alongside so the bench can verify that the
*paper's* delay column combined with our probability/timing model
reproduces the paper's time columns digit-for-digit, and that our delays
preserve the ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.adders import (
    AccuracyConfigurableAdder,
    AlmostCorrectAdder,
    ErrorTolerantAdderII,
    GracefullyDegradingAdder,
    RippleCarryAdder,
)
from repro.analysis.tables import format_table
from repro.core.error_model import error_probability, paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.experiments.result import ExperimentResult
from repro.paperdata import TABLE4_GEAR, TABLE4_OTHERS
from repro.timing.fpga import characterize
from repro.timing.latency import FULL_HD_PIXELS, ExecutionTiming, execution_timings

#: Application parameters (§4.4): Image Integral, N=20, L=10.
APP_WIDTH = 20
SUB_ADDER_LEN = 10

TABLE4_HEADERS = ("adder", "k", "delay_ns", "paper_delay_ns",
                  "error_probability", "approximate_s", "best_s",
                  "average_s", "worst_s")


@dataclass(frozen=True)
class Table4Row:
    name: str
    r: Optional[int]
    p: Optional[int]
    k: int
    delay_ns: float
    paper_delay_ns: Optional[float]
    error_probability: float
    timing: ExecutionTiming
    paper_timing: Optional[ExecutionTiming]


def _gear_rows(n_ops: int) -> List[Table4Row]:
    rows: List[Table4Row] = []
    for (r, p), ref in TABLE4_GEAR.items():
        cfg = GeArConfig(APP_WIDTH, r, p, allow_partial=(APP_WIDTH - r - p) % r != 0)
        adder = GeArAdder(cfg)
        char = characterize(adder)
        prob = error_probability(cfg)
        rows.append(
            Table4Row(
                name=f"GeAr({r},{p})",
                r=r,
                p=p,
                k=cfg.k,
                delay_ns=char.delay_ns,
                paper_delay_ns=ref["delay_ns"],
                error_probability=prob,
                timing=execution_timings(
                    f"GeAr({r},{p})", char.delay_ns, prob, cfg.k, n_ops=n_ops
                ),
                paper_timing=execution_timings(
                    f"GeAr({r},{p})/paper-delay", ref["delay_ns"], ref["p_err"],
                    cfg.k, n_ops=n_ops,
                ),
            )
        )
    return rows


def _baseline_rows(n_ops: int) -> List[Table4Row]:
    builders = {
        "ACA-I": lambda: AlmostCorrectAdder(APP_WIDTH, SUB_ADDER_LEN),
        "ACA-II": lambda: AccuracyConfigurableAdder(APP_WIDTH, SUB_ADDER_LEN),
        "ETAII": lambda: ErrorTolerantAdderII(APP_WIDTH, SUB_ADDER_LEN),
        "GDA(1,9)": lambda: GracefullyDegradingAdder(
            APP_WIDTH, 1, 9, enforce_multiple=False
        ),
        "GDA(2,8)": lambda: GracefullyDegradingAdder(APP_WIDTH, 2, 8),
        "GDA(5,5)": lambda: GracefullyDegradingAdder(APP_WIDTH, 5, 5),
        "RCA": lambda: RippleCarryAdder(APP_WIDTH),
    }
    rows: List[Table4Row] = []
    for name, make in builders.items():
        adder = make()
        ref = TABLE4_OTHERS[name]
        char = characterize(adder)
        prob = paper_error_probability(adder)
        assert prob is not None
        k = len(adder.windows) if hasattr(adder, "windows") else 1
        rows.append(
            Table4Row(
                name=name,
                r=None,
                p=None,
                k=k,
                delay_ns=char.delay_ns,
                paper_delay_ns=ref["delay_ns"],
                error_probability=prob,
                timing=execution_timings(name, char.delay_ns, prob, k, n_ops=n_ops),
                paper_timing=execution_timings(
                    f"{name}/paper-delay", ref["delay_ns"], ref["p_err"],
                    int(ref["k"]), n_ops=n_ops,
                ),
            )
        )
    return rows


def _table4_row(row: Table4Row) -> dict:
    return {
        "adder": row.name,
        "k": row.k,
        "delay_ns": row.delay_ns,
        "paper_delay_ns": row.paper_delay_ns,
        "error_probability": row.error_probability,
        "approximate_s": row.timing.approximate_s,
        "best_s": row.timing.best_s,
        "average_s": row.timing.average_s,
        "worst_s": row.timing.worst_s,
    }


def run_table4(n_ops: int = FULL_HD_PIXELS) -> "ExperimentResult":
    """All Table IV rows: GeAr R=1..7 plus the baseline adders."""
    return ExperimentResult(
        "table4", TABLE4_HEADERS, _gear_rows(n_ops) + _baseline_rows(n_ops),
        _table4_row,
    )


def render_table4(rows: Optional[List[Table4Row]] = None) -> str:
    rows = rows if rows is not None else run_table4()
    return format_table(
        ["adder", "k", "delay ns", "paper ns", "p(err)",
         "approx s", "best s", "avg s", "worst s"],
        [
            (
                row.name,
                row.k,
                f"{row.delay_ns:.3f}",
                row.paper_delay_ns,
                f"{row.error_probability:.6f}",
                f"{row.timing.approximate_s:.6e}",
                f"{row.timing.best_s:.6e}",
                f"{row.timing.average_s:.6e}",
                f"{row.timing.worst_s:.6e}",
            )
            for row in rows
        ],
        title="Table IV — Image Integral execution-time prediction (full-HD)",
    )
