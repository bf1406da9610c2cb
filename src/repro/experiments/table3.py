"""Table III — analytic vs simulated error probability.

Protocol (§4.4): for each (N, R, P) configuration, compare the Eq. 5–7
probability against a 10 000-pattern uniform-operand simulation.  We add
two columns the paper could not print: the exact DP probability (our
untruncated model) and the paper's own reference values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.core.error_model import error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.experiments.result import ExperimentResult
from repro.paperdata import PAPER_SAMPLE_COUNT, TABLE3_ERROR_PROBABILITY

TABLE3_HEADERS = ("n", "r", "p", "k", "analytic_pct", "exact_pct",
                  "simulated_pct", "samples", "consistent",
                  "paper_analytic_pct", "paper_simulated_pct")


@dataclass(frozen=True)
class Table3Row:
    n: int
    r: int
    p: int
    k: int
    analytic_pct: float
    exact_pct: float
    simulated_pct: float
    samples: int
    paper_analytic_pct: Optional[float]
    paper_simulated_pct: Optional[float]

    @property
    def statistically_consistent(self) -> bool:
        """Does the simulated value's Wilson interval cover the model?"""
        from repro.metrics.confidence import estimate_consistent_with

        return estimate_consistent_with(
            self.simulated_pct / 100.0, self.samples, self.analytic_pct / 100.0
        )


def _table3_row(row: Table3Row) -> dict:
    return {
        "n": row.n,
        "r": row.r,
        "p": row.p,
        "k": row.k,
        "analytic_pct": row.analytic_pct,
        "exact_pct": row.exact_pct,
        "simulated_pct": row.simulated_pct,
        "samples": row.samples,
        "consistent": row.statistically_consistent,
        "paper_analytic_pct": row.paper_analytic_pct,
        "paper_simulated_pct": row.paper_simulated_pct,
    }


def run_table3(samples: int = PAPER_SAMPLE_COUNT, seed: int = 2015,
               engine=None) -> "ExperimentResult":
    """Reproduce Table III over the paper's four configurations."""
    from repro.engine import EvalRequest, evaluate

    rows: List[Table3Row] = []
    for (n, r, p), ref in TABLE3_ERROR_PROBABILITY.items():
        cfg = GeArConfig(n, r, p, allow_partial=(n - r - p) % r != 0)
        adder = GeArAdder(cfg)
        measured = evaluate(
            EvalRequest.monte_carlo(adder, samples, seed=seed),
            engine=engine,
        ).stats.error_rate
        rows.append(
            Table3Row(
                n=n,
                r=r,
                p=p,
                k=cfg.k,
                analytic_pct=error_probability(cfg) * 100.0,
                exact_pct=adder.error_probability() * 100.0,
                simulated_pct=measured * 100.0,
                samples=samples,
                paper_analytic_pct=ref.get("analytic_pct"),
                paper_simulated_pct=ref.get("simulated_pct"),
            )
        )
    return ExperimentResult("table3", TABLE3_HEADERS, rows, _table3_row)


def render_table3(rows: Optional[List[Table3Row]] = None) -> str:
    rows = rows if rows is not None else run_table3()
    return format_table(
        ["(N,R,P,k)", "model %", "exact-DP %", "simulated %", "consistent",
         "paper model %", "paper sim %"],
        [
            (
                f"({row.n},{row.r},{row.p},{row.k})",
                f"{row.analytic_pct:.4f}",
                f"{row.exact_pct:.4f}",
                f"{row.simulated_pct:.4f}",
                row.statistically_consistent,
                row.paper_analytic_pct,
                row.paper_simulated_pct,
            )
            for row in rows
        ],
        title=(
            "Table III — probability of error: model vs simulation "
            "(consistency = Wilson 95% interval covers the model)"
        ),
    )
