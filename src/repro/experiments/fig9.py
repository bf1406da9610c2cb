"""Fig. 9 — execution-time comparison on three applications.

Panels: (a) Image Integral (N=20, L=10), (b) SAD (N=16, L=8),
(c) Low-Pass Filter (N=12, L=8).  For every adder family the runtime of a
full-HD frame is predicted from delay × error probability × sub-adder
count, exactly as Table IV does for the integral — the error-probability
model's headline use case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.adders import (
    AccuracyConfigurableAdder,
    AlmostCorrectAdder,
    ErrorTolerantAdderII,
    GracefullyDegradingAdder,
    RippleCarryAdder,
)
from repro.analysis.tables import format_table
from repro.core.error_model import paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.experiments.result import GroupedExperimentResult
from repro.paperdata import APPLICATIONS
from repro.timing.fpga import characterize
from repro.timing.latency import FULL_HD_PIXELS, ExecutionTiming, execution_timings

FIG9_HEADERS = ("application", "adder", "k", "delay_ns", "error_probability",
                "approximate_s", "best_s", "average_s", "worst_s")


@dataclass(frozen=True)
class Fig9Row:
    application: str
    adder: str
    k: int
    delay_ns: float
    error_probability: float
    timing: ExecutionTiming


def _adders_for(n: int, l: int):
    half = l // 2
    mb2 = 2 if n % 2 == 0 else 1
    yield "ACA-I", AlmostCorrectAdder(n, l)
    yield "ACA-II", AccuracyConfigurableAdder(n, l, allow_partial=(n - l) % half != 0)
    yield "ETAII", ErrorTolerantAdderII(n, l, allow_partial=(n - l) % half != 0)
    yield "GDA", GracefullyDegradingAdder(n, mb2, l - mb2, enforce_multiple=False)
    strict = (n - l) % half == 0
    yield "GeAr", GeArAdder(GeArConfig(n, half, half, allow_partial=not strict))
    yield "RCA", RippleCarryAdder(n)


def _panel_row(_app: str, row: Fig9Row) -> dict:
    return {
        "application": row.application,
        "adder": row.adder,
        "k": row.k,
        "delay_ns": row.delay_ns,
        "error_probability": row.error_probability,
        "approximate_s": row.timing.approximate_s,
        "best_s": row.timing.best_s,
        "average_s": row.timing.average_s,
        "worst_s": row.timing.worst_s,
    }


def run_fig9(n_ops: int = FULL_HD_PIXELS) -> "GroupedExperimentResult":
    """Predicted timings per application panel."""
    panels: Dict[str, List[Fig9Row]] = {}
    for app, params in APPLICATIONS.items():
        n, l = params["n"], params["sub_adder_len"]
        rows: List[Fig9Row] = []
        for name, adder in _adders_for(n, l):
            char = characterize(adder)
            prob = paper_error_probability(adder)
            assert prob is not None, f"{name} lacks an analytic error model"
            k = len(adder.windows) if hasattr(adder, "windows") else 1
            rows.append(
                Fig9Row(
                    application=app,
                    adder=name,
                    k=k,
                    delay_ns=char.delay_ns,
                    error_probability=prob,
                    timing=execution_timings(
                        f"{app}/{name}", char.delay_ns, prob, k, n_ops=n_ops
                    ),
                )
            )
        panels[app] = rows
    return GroupedExperimentResult("fig9", FIG9_HEADERS, panels, _panel_row)


def render_fig9(panels: Optional[Dict[str, List[Fig9Row]]] = None) -> str:
    panels = panels if panels is not None else run_fig9()
    blocks: List[str] = []
    for app, rows in panels.items():
        blocks.append(
            format_table(
                ["adder", "k", "delay ns", "p(err)", "approx s",
                 "best s", "avg s", "worst s"],
                [
                    (
                        row.adder,
                        row.k,
                        f"{row.delay_ns:.3f}",
                        f"{row.error_probability:.6f}",
                        f"{row.timing.approximate_s:.4e}",
                        f"{row.timing.best_s:.4e}",
                        f"{row.timing.average_s:.4e}",
                        f"{row.timing.worst_s:.4e}",
                    )
                    for row in rows
                ],
                title=f"Fig. 9 — {app}: predicted full-HD frame times",
            )
        )
    return "\n\n".join(blocks)
