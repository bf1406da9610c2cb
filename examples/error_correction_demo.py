#!/usr/bin/env python3
"""Configurable error correction (§3.3) in action.

Shows the detector/corrector on the Fig. 4 configuration GeAr(12,2,6):

* cycle accounting (1 cycle speculative, +1 per corrected sub-adder),
* the error-control select signal: enabling correction on only the MSB
  sub-adder removes most of the error magnitude at a fraction of the
  worst-case latency,
* measured mean cycles vs the paper's best/average/worst model.
"""

import numpy as np

from repro import ErrorCorrector, GeArAdder, GeArConfig
from repro.core.error_model import paper_error_probability
from repro.analysis.tables import format_table
from repro.timing.latency import correction_cycle_counts
from repro.utils.distributions import UniformOperands


def main() -> None:
    adder = GeArAdder(GeArConfig(12, 2, 6))  # Fig. 4: k = 3 sub-adders
    k = adder.config.k
    print(adder.config.describe())
    print(f"analytic error probability: {paper_error_probability(adder):.6f}\n")

    a, b = 0b111111111111, 0b000000000001  # worst case: carries everywhere
    print("worst-case operands: every sub-adder misses its carry")
    result = ErrorCorrector(adder).add(a, b)
    print(f"  corrected={result.value} exact={a + b} "
          f"cycles={result.cycles} corrections={result.corrections}\n")

    samples = 100_000
    ops_a, ops_b = UniformOperands(12).sample_pairs(samples, seed=3)
    exact = ops_a + ops_b

    rows = []
    masks = {
        "none": [False, False],
        "MSB only": [False, True],
        "LSB only": [True, False],
        "all": [True, True],
    }
    for label, mask in masks.items():
        corrector = ErrorCorrector(adder, enabled=mask)
        res = corrector.add(ops_a, ops_b)
        err = np.abs(np.asarray(res.value) - exact)
        rows.append(
            (
                label,
                f"{np.mean(err > 0):.6f}",
                f"{err.mean():.4f}",
                f"{np.asarray(res.cycles).mean():.4f}",
                int(np.asarray(res.cycles).max()),
            )
        )
    print(format_table(
        ["correction mask", "residual error rate", "residual MED",
         "mean cycles", "max cycles"],
        rows,
        title=f"Selective correction over {samples} uniform additions",
    ))

    print("\npaper timing model (extra cycles per erroneous addition):")
    p = paper_error_probability(adder)
    for scenario, cycles in correction_cycle_counts(k).items():
        print(f"  {scenario:8s}: 1 + p·{cycles:g} = "
              f"{1 + p * cycles:.6f} cycles/addition on average")


if __name__ == "__main__":
    main()
