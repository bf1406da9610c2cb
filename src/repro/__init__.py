"""repro — reproduction of the GeAr accuracy-configurable adder (DAC 2015).

Quickstart::

    from repro import ErrorCorrector, GeArAdder, GeArConfig
    from repro import paper_error_probability

    adder = GeArAdder(GeArConfig(12, 4, 4))         # Fig. 3 configuration
    adder.add(0b101010101010, 0b010101010101)       # approximate sum
    paper_error_probability(adder)                  # analytic, §3.2
    ErrorCorrector(adder).add(4095, 1).value        # exact via §3.3 recovery

Package map:

* ``repro.core`` — GeAr model, error probability, correction, design space
* ``repro.adders`` — RCA, CLA, ACA-I/II, ETAI/II/IIM, GDA, LOA baselines
* ``repro.rtl`` — gate-level netlists, STA, LUT estimation, Verilog I/O
* ``repro.metrics`` — ED/MED/NED/ACC/MAA metrics, exhaustive evaluation
* ``repro.timing`` — FPGA characterisation and Table-IV execution model
* ``repro.apps`` — Image Integral, SAD, LPF kernels on synthetic images
* ``repro.analysis`` — sweeps, Pareto fronts, table rendering
"""

from repro.adders import (
    AccuracyConfigurableAdder,
    AdderModel,
    AlmostCorrectAdder,
    CarryLookaheadAdder,
    ErrorTolerantAdderI,
    ErrorTolerantAdderII,
    ErrorTolerantAdderIIM,
    GracefullyDegradingAdder,
    LowerPartOrAdder,
    RippleCarryAdder,
)
from repro.core import (
    ErrorCorrector,
    GeArAdder,
    GeArConfig,
    accuracy_percentage,
    error_probability,
    paper_error_probability,
)

__version__ = "1.0.0"

__all__ = [
    "AdderModel",
    "RippleCarryAdder",
    "CarryLookaheadAdder",
    "AlmostCorrectAdder",
    "AccuracyConfigurableAdder",
    "ErrorTolerantAdderI",
    "ErrorTolerantAdderII",
    "ErrorTolerantAdderIIM",
    "GracefullyDegradingAdder",
    "LowerPartOrAdder",
    "GeArAdder",
    "GeArConfig",
    "ErrorCorrector",
    "accuracy_percentage",
    "error_probability",
    "paper_error_probability",
    "__version__",
]
