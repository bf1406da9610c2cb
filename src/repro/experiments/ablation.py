"""Ablation studies on the paper's modelling assumptions and design choices.

1. **Model exactness and input-distribution sensitivity** (§3.2): our
   reproduction found that Eq. 5–7 is not an approximation but an *exact*
   formula for i.i.d. uniform operands — the independently derived DP
   (``GeArAdder(cfg).error_probability()``) matches it to machine
   precision.  What the model *is* sensitive to is the uniform-operand
   assumption (ρ[Pr] = 1/2, ρ[Gr] = 1/4): this ablation measures the true
   error rate under Gaussian, exponential and sparse operand distributions
   and reports the drift from the model.

2. **Selective correction** (§3.3 error-control select): enabling the
   detector/corrector on only the most significant sub-adders trades
   residual error for bounded latency.  We sweep the enable mask from
   "none" to "all" on one configuration, measuring residual NED and mean
   cycle cost over random operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import format_table
from repro.core.correction import ErrorCorrector
from repro.core.bitwise_model import predict_error_rate
from repro.core.error_model import error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.experiments.result import ExperimentResult
from repro.utils.distributions import (
    ExponentialOperands,
    GaussianOperands,
    OperandDistribution,
    SparseOperands,
    UniformOperands,
)

#: Configurations for the distribution study.
DISTRIBUTION_CONFIGS: Tuple[Tuple[int, int, int], ...] = (
    (16, 2, 2), (16, 4, 4), (16, 2, 6), (20, 5, 5),
)


def _distributions(width: int) -> Dict[str, OperandDistribution]:
    return {
        "uniform": UniformOperands(width),
        "gaussian": GaussianOperands(width),
        "exponential": ExponentialOperands(width),
        "sparse(0.25)": SparseOperands(width, one_density=0.25),
        "dense(0.75)": SparseOperands(width, one_density=0.75),
    }


@dataclass(frozen=True)
class DistributionRow:
    n: int
    r: int
    p: int
    model: float
    exact_dp: float
    measured: Dict[str, float]
    bitwise_predicted: Dict[str, float]

    @property
    def model_is_exact_for_uniform(self) -> bool:
        return abs(self.model - self.exact_dp) < 1e-12


DISTRIBUTION_HEADERS = ("n", "r", "p", "model", "exact_dp", "measured",
                        "bitwise_predicted")


def _distribution_row(row: DistributionRow) -> dict:
    return {
        "n": row.n,
        "r": row.r,
        "p": row.p,
        "model": row.model,
        "exact_dp": row.exact_dp,
        "measured": dict(row.measured),
        "bitwise_predicted": dict(row.bitwise_predicted),
    }


def run_distribution_sensitivity_ablation(
    configs: Sequence[Tuple[int, int, int]] = DISTRIBUTION_CONFIGS,
    samples: int = 100_000,
    seed: int = 99,
    engine=None,
) -> "ExperimentResult":
    """Model exactness (uniform) and drift under non-uniform operands."""
    from repro.engine import EvalRequest, evaluate

    rows: List[DistributionRow] = []
    for n, r, p in configs:
        strict = (n - r - p) % r == 0
        cfg = GeArConfig(n, r, p, allow_partial=not strict)
        adder = GeArAdder(cfg)
        measured: Dict[str, float] = {}
        bitwise: Dict[str, float] = {}
        for name, dist in _distributions(n).items():
            measured[name] = evaluate(
                EvalRequest.monte_carlo(adder, samples, seed=seed,
                                        distribution=dist),
                engine=engine,
            ).stats.error_rate
            bitwise[name] = predict_error_rate(
                adder, dist, samples=min(samples, 50_000), seed=seed + 1
            )
        rows.append(
            DistributionRow(
                n=n,
                r=r,
                p=p,
                model=error_probability(cfg),
                exact_dp=adder.error_probability(),
                measured=measured,
                bitwise_predicted=bitwise,
            )
        )
    return ExperimentResult("ablation-distributions", DISTRIBUTION_HEADERS,
                            rows, _distribution_row)


def render_distribution_sensitivity_ablation(rows: Optional[List[DistributionRow]] = None) -> str:
    rows = rows if rows is not None else run_distribution_sensitivity_ablation()
    dist_names = list(rows[0].measured) if rows else []
    headers = ["(N,R,P)", "model", "exact DP"]
    for d in dist_names:
        headers.extend([f"{d} meas", f"{d} bitw"])
    body = []
    for r in rows:
        cells = [f"({r.n},{r.r},{r.p})", f"{r.model:.6f}", f"{r.exact_dp:.6f}"]
        for d in dist_names:
            cells.append(f"{r.measured[d]:.4f}")
            cells.append(f"{r.bitwise_predicted[d]:.4f}")
        body.append(tuple(cells))
    return format_table(
        headers,
        body,
        title=(
            "Ablation — §3.2 model vs measurement vs bitwise prediction "
            "per operand distribution"
        ),
    )


@dataclass(frozen=True)
class CorrectionPolicyRow:
    enabled_subadders: int
    residual_error_rate: float
    residual_ned: float
    mean_cycles: float
    max_cycles: int


CORRECTION_HEADERS = ("enabled_subadders", "residual_error_rate",
                      "residual_ned", "mean_cycles", "max_cycles")


def _correction_row(row: CorrectionPolicyRow) -> dict:
    return {
        "enabled_subadders": row.enabled_subadders,
        "residual_error_rate": row.residual_error_rate,
        "residual_ned": row.residual_ned,
        "mean_cycles": row.mean_cycles,
        "max_cycles": row.max_cycles,
    }


def run_correction_policy_ablation(
    n: int = 16,
    r: int = 2,
    p: int = 2,
    samples: int = 50_000,
    seed: int = 7,
) -> "ExperimentResult":
    """Sweep the §3.3 enable mask from MSB-first 0..k-1 enabled sub-adders.

    Enabling from the most significant sub-adder downward is the natural
    policy: MSB errors dominate the error distance, so the first enables
    buy the largest NED reductions.
    """
    strict = (n - r - p) % r == 0
    cfg = GeArConfig(n, r, p, allow_partial=not strict)
    adder = GeArAdder(cfg)
    dist = UniformOperands(n)
    a, b = dist.sample_pairs(samples, seed=seed)
    exact = a + b
    d_max = adder.max_error_distance()

    rows: List[CorrectionPolicyRow] = []
    spec = cfg.k - 1
    for enabled_count in range(spec + 1):
        mask = [False] * spec
        for i in range(enabled_count):
            mask[spec - 1 - i] = True  # enable from the MSB side
        corrector = ErrorCorrector(adder, enabled=mask)
        result = corrector.add(a, b)
        errors = np.abs(np.asarray(result.value) - exact)
        cycles = np.asarray(result.cycles)
        rows.append(
            CorrectionPolicyRow(
                enabled_subadders=enabled_count,
                residual_error_rate=float(np.mean(errors > 0)),
                residual_ned=float(np.mean(errors)) / d_max,
                mean_cycles=float(np.mean(cycles)),
                max_cycles=int(cycles.max()),
            )
        )
    return ExperimentResult("ablation-correction", CORRECTION_HEADERS, rows,
                            _correction_row)


def render_correction_policy_ablation(
    rows: Optional[List[CorrectionPolicyRow]] = None,
) -> str:
    rows = rows if rows is not None else run_correction_policy_ablation()
    return format_table(
        ["enabled sub-adders", "residual err rate", "residual NED",
         "mean cycles", "max cycles"],
        [
            (
                r.enabled_subadders,
                f"{r.residual_error_rate:.6f}",
                f"{r.residual_ned:.6f}",
                f"{r.mean_cycles:.4f}",
                r.max_cycles,
            )
            for r in rows
        ],
        title="Ablation — selective error correction (§3.3 control signal)",
    )
