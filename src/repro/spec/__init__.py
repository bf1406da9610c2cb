"""The declarative adder IR and its compilers.

One frozen, JSON-round-trippable :class:`AdderSpec` describes an adder —
window geometry, per-window sub-adder architecture, carry-prediction
style, optional LOA truncation — and compiles into every layer:
``to_model()`` (the one behavioural :class:`SpecAdder`, with EP/MED),
``to_netlist()`` (gate level, via the one generic window compiler) and
``fingerprint()`` (engine cache / registry identity).  See ``docs/spec.md``.
"""

from repro.spec.catalog import (
    SPEC_CATALOG,
    SpecFamily,
    aca1_spec,
    aca2_spec,
    catalog_spec,
    cesa_rect_spec,
    etaii_spec,
    etaiim_spec,
    exact_spec,
    gda_spec,
    gear_spec,
    hetero_spec,
    hoeraa_spec,
    loa_spec,
    loa_static_spec,
    spec_adder,
)
from repro.spec.ir import (
    ARCHS,
    KINDS,
    PREDS,
    RECTIFY_KINDS,
    SPEC_VERSION,
    STATIC_APPROX,
    SUPPORTED_SPEC_VERSIONS,
    AdderSpec,
    RectifySpec,
    WindowSpec,
)
from repro.spec.model import SpecAdder

__all__ = [
    "ARCHS",
    "KINDS",
    "PREDS",
    "RECTIFY_KINDS",
    "SPEC_VERSION",
    "STATIC_APPROX",
    "SUPPORTED_SPEC_VERSIONS",
    "AdderSpec",
    "RectifySpec",
    "WindowSpec",
    "SpecAdder",
    "SPEC_CATALOG",
    "SpecFamily",
    "aca1_spec",
    "aca2_spec",
    "catalog_spec",
    "cesa_rect_spec",
    "etaii_spec",
    "etaiim_spec",
    "exact_spec",
    "gda_spec",
    "gear_spec",
    "hetero_spec",
    "hoeraa_spec",
    "loa_spec",
    "loa_static_spec",
    "spec_adder",
]
