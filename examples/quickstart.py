#!/usr/bin/env python3
"""Quickstart: build a GeAr adder, add approximately, recover exactly.

Walks the paper's two running examples — GeAr(12,4,4) from Fig. 3 and
GeAr(12,2,6) from Fig. 4 — through the public API:

* the approximate sum and where it errs,
* the analytic error probability (§3.2),
* error detection and correction (§3.3) with cycle accounting,
* the FPGA-style delay/area characterisation.
"""

import numpy as np

from repro import ErrorCorrector, GeArAdder, GeArConfig, RippleCarryAdder
from repro.core.error_model import paper_error_probability
from repro.engine import EvalRequest, evaluate
from repro.timing.fpga import characterize


def main() -> None:
    fig3 = GeArAdder(GeArConfig(12, 4, 4))  # two 8-bit sub-adders
    fig4 = GeArAdder(GeArConfig(12, 2, 6))  # three 8-bit sub-adders

    print("== Configurations ==")
    for adder in (fig3, fig4):
        cfg = adder.config
        print(f"{cfg.describe()}")
        print(f"  analytic error probability: {paper_error_probability(adder):.6f}")

    print("\n== A single addition ==")
    a, b = 0b000011111111, 0b000000000001  # long carry chain from bit 0
    for adder in (fig3, fig4):
        approx = adder.add(a, b)
        exact = a + b
        print(f"{adder.name}: approx={approx}, exact={exact}, "
              f"error={exact - approx}")

    print("\n== Error recovery (§3.3) ==")
    corrector = ErrorCorrector(fig3)
    result = corrector.add(a, b)
    print(f"corrected sum: {result.value} (exact: {a + b})")
    print(f"cycles: {result.cycles} (speculative result alone costs 1)")
    print(f"sub-adders corrected: {result.corrections}")

    print("\n== Model vs simulation ==")
    result = evaluate(EvalRequest.monte_carlo(fig3, 10_000, seed=2015))
    print(f"measured over 10k uniform patterns: "
          f"{result.stats.error_rate:.4%}")
    print(f"analytic (Eq. 5-7):                 "
          f"{paper_error_probability(fig3):.4%}")

    print("\n== Hardware characterisation ==")
    for adder in (fig3, fig4, RippleCarryAdder(12)):
        char = characterize(adder)
        print(f"{char.name:24s} delay={char.delay_ns:.3f} ns  "
              f"LUTs={char.luts}  depth={char.logic_depth}")

    print("\n== Vectorised use ==")
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1 << 12, size=5, dtype=np.int64)
    y = rng.integers(0, 1 << 12, size=5, dtype=np.int64)
    print("a      :", x)
    print("b      :", y)
    print("approx :", fig3.add(x, y))
    print("exact  :", x + y)


if __name__ == "__main__":
    main()
