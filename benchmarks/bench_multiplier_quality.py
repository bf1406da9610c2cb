"""Bench (extension): accuracy-configurable multiplication.

Builds 8×8 array multipliers whose partial-product reduction uses GeAr
configurations, sweeping the (R, P) knob, and measures product quality
(MRED) against the reduction adder's analytic error probability — the
paper's configurability story lifted one operator up.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.error_model import paper_error_probability
from repro.core.multiplier import make_exact_multiplier, make_gear_multiplier

CONFIGS = [(2, 2), (2, 6), (4, 4), (4, 8), (4, 12), (8, 8)]
SAMPLES = 8000


def _run():
    rows = []
    exact = make_exact_multiplier(8)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 256, SAMPLES, dtype=np.int64)
    b = rng.integers(0, 256, SAMPLES, dtype=np.int64)
    assert np.array_equal(np.asarray(exact.multiply(a, b)), a * b)
    for r, p in CONFIGS:
        mul = make_gear_multiplier(8, r, p)
        err = np.abs(np.asarray(mul.multiply(a, b)) - a * b)
        rows.append(
            {
                "config": (r, p),
                "adder_p_err": paper_error_probability(mul.adder),
                "mred": float(np.mean(err / np.maximum(a * b, 1))),
                "error_rate": float(np.mean(err > 0)),
                "max_ed": int(err.max()),
            }
        )
    return rows


def test_multiplier_quality(benchmark, archive):
    rows = benchmark(_run)
    archive(
        "multiplier_quality",
        format_table(
            ["GeAr (R,P) @16b", "adder p(err)", "product MRED",
             "product err rate", "max ED"],
            [
                (str(r["config"]), f"{r['adder_p_err']:.5f}",
                 f"{r['mred']:.5f}", f"{r['error_rate']:.4f}", r["max_ed"])
                for r in rows
            ],
            title="Extension — 8×8 multiplier quality vs reduction-adder config",
        ),
    )

    by_cfg = {r["config"]: r for r in rows}
    # The (R, P) knob carries through: deeper prediction, better products.
    assert by_cfg[(2, 2)]["mred"] > by_cfg[(2, 6)]["mred"]
    assert by_cfg[(4, 4)]["mred"] > by_cfg[(4, 8)]["mred"] >= by_cfg[(4, 12)]["mred"]
    # Accurate configs give usable multipliers (<0.1 % relative error).
    assert by_cfg[(4, 12)]["mred"] < 1e-3
    # Product error rate exceeds the per-addition probability (8 reductions).
    assert by_cfg[(4, 4)]["error_rate"] > by_cfg[(4, 4)]["adder_p_err"]
