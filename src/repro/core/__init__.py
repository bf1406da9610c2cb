"""The paper's contribution: the GeAr adder and its companion models.

* :mod:`repro.core.gear` — the (N, R, P) parameters of §3.1, their
  validation and notation (L, k), and the ``GeArAdder`` factory over the
  point's spec model (``repro.spec.catalog.gear_spec`` lays out its
  windows),
* :mod:`repro.core.error_model` — the analytic error-probability model of
  §3.2 (Eqs. 4–7), ``paper_error_probability`` for any adder, and the
  exact window chains behind every model's ``error_probability()`` and
  ``mean_error_distance()``,
* :mod:`repro.core.correction` — the configurable error detection and
  correction scheme of §3.3, with cycle accounting,
* :mod:`repro.core.configspace` — enumeration of valid configurations
  (the design-space results of Fig. 1 / Fig. 7),
* :mod:`repro.core.coverage` — classification of GeAr configurations into
  the state-of-the-art adders they subsume.
"""

from repro.core.gear import GeArConfig, GeArAdder
from repro.core.error_model import (
    ErrorEvent,
    error_events,
    error_probability,
    accuracy_percentage,
    paper_error_probability,
)
from repro.core.correction import CorrectionResult, ErrorCorrector
from repro.core.configspace import (
    enumerate_configs,
    enumerate_gear_points,
    enumerate_gda_points,
    DesignPoint,
)
from repro.core.signed import SignedAdder
from repro.core.multiplier import (
    ApproximateMultiplier,
    make_exact_multiplier,
    make_gear_multiplier,
)
from repro.core.coverage import classify_config

__all__ = [
    "GeArConfig",
    "GeArAdder",
    "ErrorEvent",
    "error_events",
    "error_probability",
    "accuracy_percentage",
    "paper_error_probability",
    "CorrectionResult",
    "ErrorCorrector",
    "enumerate_configs",
    "enumerate_gear_points",
    "enumerate_gda_points",
    "DesignPoint",
    "SignedAdder",
    "ApproximateMultiplier",
    "make_exact_multiplier",
    "make_gear_multiplier",
    "classify_config",
]
