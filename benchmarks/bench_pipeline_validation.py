"""Bench (validation): discrete-event pipeline vs the Table IV formula.

Table IV's runtimes are analytic predictions; this bench runs the actual
stall-on-correct pipeline over large operand streams and compares the
measured cycles-per-addition against the paper's best/average/worst
scenarios for every Table IV GeAr configuration.

Expected outcome (and what the assertions encode): for strict
configurations the measurement sits inside the [best, worst] envelope,
hugging 'best' (most erroneous additions have one bad sub-adder).  For the
*partial* configurations R = 3, 6, 7 the paper's nominal error probability
is conservative (see docs/error_model.md §3), so the measurement may fall
below the analytic 'best' line — but never below the envelope built from
the true (exact-DP) error probability.
"""

from repro.analysis.tables import format_table
from repro.core.error_model import paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.timing.pipeline import compare_with_model

OPERATIONS = 120_000
CONFIGS = [(1, 9), (2, 8), (3, 7), (4, 6), (5, 5), (6, 4), (7, 3)]


def _run():
    rows = []
    for r, p in CONFIGS:
        strict = (20 - r - p) % r == 0
        adder = GeArAdder(GeArConfig(20, r, p, allow_partial=not strict))
        cmp = compare_with_model(adder, operations=OPERATIONS, seed=21)
        rows.append({
            "config": (r, p),
            "cmp": cmp,
            "strict": strict,
            "p_model": paper_error_probability(adder),
            "p_true": adder.error_probability(),
            "k": adder.config.k,
        })
    return rows


def test_pipeline_validates_table4(benchmark, archive):
    rows = benchmark(_run)
    archive(
        "pipeline_validation",
        format_table(
            ["GeAr (R,P)", "k", "p model", "p true", "measured cyc/op",
             "best", "average", "worst"],
            [
                (str(r["config"]), r["k"], f"{r['p_model']:.6f}",
                 f"{r['p_true']:.6f}",
                 f"{r['cmp'].measured_cycles_per_op:.6f}",
                 f"{r['cmp'].predicted_best:.6f}",
                 f"{r['cmp'].predicted_average:.6f}",
                 f"{r['cmp'].predicted_worst:.6f}")
                for r in rows
            ],
            title="Validation — measured pipeline cost vs Table IV scenarios",
        ),
    )

    for r in rows:
        cmp = r["cmp"]
        sigma = (r["p_model"] * (r["k"] - 1) ** 2 / OPERATIONS) ** 0.5
        # Upper bound always holds: the worst-case scenario is never beaten.
        assert cmp.measured_cycles_per_op <= cmp.predicted_worst + 5 * sigma
        # Lower bound from the *true* error probability (one stall per
        # erroneous addition at minimum).
        true_best = 1.0 + r["p_true"]
        assert cmp.measured_cycles_per_op >= true_best - 5 * sigma
        if r["strict"]:
            # Strict configs: the paper's own 'best' line holds too.
            assert cmp.measured_cycles_per_op >= \
                cmp.predicted_best - 5 * sigma
        else:
            # Partial configs: the paper's model is conservative, so its
            # scenarios over-predict the measured cost.
            assert cmp.measured_cycles_per_op <= cmp.predicted_average
