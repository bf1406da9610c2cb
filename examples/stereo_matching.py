#!/usr/bin/env python3
"""Variable-window stereo matching on approximate integral images.

The paper's Image Integral application exists to serve kernels like
Veksler's fast variable-window stereo [14].  This demo runs the full loop:
synthetic stereo pair -> absolute-difference cost -> box aggregation via a
2-D integral image built with approximate adders -> winner-take-all
disparities -> accuracy against the known ground truth.

It also demonstrates an error-amplification effect worth knowing before
deploying: box sums are *differences* of four large integral values, so
the integral stage's absolute errors matter more than its relative ones —
an aggressive GeAr config that is fine for plain integrals degrades box
aggregation badly.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.apps.boxfilter import disparity_map
from repro.apps.images import natural_image
from repro.core.error_model import paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig

TRUE_DISPARITY = 4


def main() -> None:
    right = natural_image(48, 80, seed=21)
    left = np.roll(right, TRUE_DISPARITY, axis=1)
    interior = (slice(10, 38), slice(20, 70))

    exact = disparity_map(left, right, max_disparity=8, radius=2)
    exact_acc = float(np.mean(exact[interior] == TRUE_DISPARITY))
    print(f"exact matcher: {exact_acc:.1%} of interior pixels at the "
          f"true disparity ({TRUE_DISPARITY})")

    rows = []
    for (r, p) in [(4, 12), (4, 8), (5, 5), (2, 2)]:
        strict = (20 - r - p) % r == 0
        adder = GeArAdder(GeArConfig(20, r, p, allow_partial=not strict))
        disp = disparity_map(left, right, max_disparity=8, radius=2,
                             adder=adder)
        acc = float(np.mean(disp[interior] == TRUE_DISPARITY))
        agree = float(np.mean(disp[interior] == exact[interior]))
        rows.append(
            (f"GeAr(20,{r},{p})", f"{paper_error_probability(adder):.5f}",
             f"{acc:.1%}", f"{agree:.1%}")
        )
    print(format_table(
        ["integral adder", "adder p(err)", "true-disparity rate",
         "agrees with exact"],
        rows,
        title="Stereo accuracy vs integral-image adder configuration",
    ))
    print(
        "\nNote the cliff between (4,8) and (5,5): box aggregation "
        "differences four integral corners, amplifying the integral "
        "stage's absolute errors. Accuracy knobs must be set for the "
        "*consumer* of the integral, not the integral itself."
    )


if __name__ == "__main__":
    main()
