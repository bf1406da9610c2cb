#!/usr/bin/env python3
"""Accuracy-configurable multiplication built from GeAr adders.

An 8×8 array multiplier reduces its partial products with a 16-bit adder;
swapping that adder for GeAr configurations turns (R, P) into a product-
quality knob.  The demo sweeps the knob and then uses the approximate
multiplier in a tiny image-brightness scaling kernel, reporting PSNR.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.apps.images import natural_image
from repro.apps.quality import psnr
from repro.core.error_model import paper_error_probability
from repro.core.multiplier import make_exact_multiplier, make_gear_multiplier


def quality_sweep() -> None:
    print("== product quality vs reduction-adder configuration ==")
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, 20_000, dtype=np.int64)
    b = rng.integers(0, 256, 20_000, dtype=np.int64)
    rows = []
    for (r, p) in [(2, 2), (2, 6), (4, 4), (4, 8), (4, 12)]:
        mul = make_gear_multiplier(8, r, p)
        err = np.abs(np.asarray(mul.multiply(a, b)) - a * b)
        rows.append(
            (f"GeAr(16,{r},{p})", f"{paper_error_probability(mul.adder):.5f}",
             f"{float(np.mean(err / np.maximum(a * b, 1))):.5f}",
             f"{float(np.mean(err > 0)):.4f}")
        )
    print(format_table(
        ["reduction adder", "adder p(err)", "product MRED", "product err rate"],
        rows,
    ))


def brightness_scaling() -> None:
    print("\n== image brightness scaling (pixel * 179 >> 8) ==")
    image = natural_image(64, 64, seed=8)
    gain = 179  # ~0.7x brightness
    exact_mul = make_exact_multiplier(8)
    exact = (np.asarray(exact_mul.multiply(image.ravel(),
                                           np.full(image.size, gain,
                                                   dtype=np.int64)))
             >> 8).reshape(image.shape)
    rows = []
    for (r, p) in [(2, 2), (4, 4), (4, 8)]:
        mul = make_gear_multiplier(8, r, p)
        scaled = (np.asarray(mul.multiply(image.ravel(),
                                          np.full(image.size, gain,
                                                  dtype=np.int64)))
                  >> 8).reshape(image.shape)
        rows.append((f"GeAr(16,{r},{p})", f"{psnr(exact, scaled):.2f}",
                     f"{float(np.mean(scaled == exact)):.4f}"))
    print(format_table(["reduction adder", "PSNR dB", "exact pixels"], rows))


def main() -> None:
    quality_sweep()
    brightness_scaling()


if __name__ == "__main__":
    main()
