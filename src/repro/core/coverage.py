"""Configuration coverage: GeAr as a superset of state-of-the-art adders.

§3.1 shows GeAr realises ACA-I with (R=1, P=L-1), ACA-II and ETAII with
(R=L/2, P=L/2), and every GDA configuration whose carry-prediction depth is
uniform across sub-adders.  The forward direction lives on the adder
factories (:mod:`repro.adders`), which carry their coverage point as
``config``; :func:`classify_config` maps an arbitrary configuration back to
the architectures it covers.
"""

from __future__ import annotations

from typing import List

from repro.core.gear import GeArConfig


def classify_config(config: GeArConfig) -> List[str]:
    """Architectures whose fixed scheme coincides with ``config``.

    Returns a list among ``"ACA-I"``, ``"ACA-II"``, ``"ETAII"``,
    ``"GDA"`` (prediction depth a multiple of the block size) and
    ``"GeAr-only"`` when no fixed architecture reaches the point.
    """
    matches: List[str] = []
    if config.r == 1 and config.p == config.L - 1:
        matches.append("ACA-I")
    if config.r == config.p:
        matches.extend(["ACA-II", "ETAII"])
    if config.p % config.r == 0:
        matches.append("GDA")
    if not matches:
        matches.append("GeAr-only")
    return matches
