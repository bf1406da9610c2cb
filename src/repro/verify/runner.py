"""Conformance run orchestration.

:func:`verify_adder` runs the requested layers for one registry entry;
:func:`verify_registry` sweeps a selection (default: everything) and
returns one :class:`~repro.verify.report.ConformanceReport` per adder.

Parallelism and caching ride on :class:`repro.engine.Engine`: the stats
layer evaluates through the engine, so ``jobs``/``cache`` settings give
multi-process shard execution and warm-start reuse exactly as every other
evaluation in the library.  The stimulus set is shared across the
behavioural and vector layers of one adder, so each run simulates a given
input space once per layer, not once per sub-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro import obs
from repro.engine import fingerprint_adder
from repro.engine.backends import check_backend_name
from repro.utils.distributions import INT64_OPERAND_BITS
from repro.verify.oracles import (
    ANALYTIC_EXHAUSTIVE_WIDTH,
    MAX_SCALAR_PROBES,
    STATS_EXHAUSTIVE_WIDTH,
    check_analytic,
    check_behavioural,
    check_compiled,
    check_stats,
    check_vector,
    check_verilog,
)
from repro.verify.registry import (
    DEFAULT_WIDTH,
    RegisteredAdder,
    select_entries,
)
from repro.verify.report import LAYERS, ConformanceReport, LayerResult
from repro.verify.vectors import (
    DEFAULT_RANDOM_VECTORS,
    MAX_EXHAUSTIVE_BITS,
    operand_vectors,
)


@dataclass(frozen=True)
class VerifyOptions:
    """Tunables of one conformance run (defaults match the CI smoke job)."""

    width: int = DEFAULT_WIDTH
    layers: Sequence[str] = LAYERS
    seed: int = 2015
    samples: int = 50_000
    random_vectors: int = DEFAULT_RANDOM_VECTORS
    max_exhaustive_bits: int = MAX_EXHAUSTIVE_BITS
    stats_exhaustive_cap: int = STATS_EXHAUSTIVE_WIDTH
    analytic_exhaustive_cap: int = ANALYTIC_EXHAUSTIVE_WIDTH
    max_scalar: int = MAX_SCALAR_PROBES
    backend: str = "sampling"

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.width > INT64_OPERAND_BITS:
            raise ValueError(f"width must be at most {INT64_OPERAND_BITS}: "
                             "verify operands and their sums are int64, "
                             f"got {self.width}")
        unknown = [layer for layer in self.layers if layer not in LAYERS]
        if unknown:
            raise ValueError(
                f"unknown layers {unknown}; expected a subset of {list(LAYERS)}"
            )
        object.__setattr__(self, "layers", tuple(self.layers))
        # Refused up front, not by the stats layer after others ran.
        check_backend_name(self.backend)


def verify_adder(entry: RegisteredAdder,
                 options: Optional[VerifyOptions] = None,
                 engine=None) -> ConformanceReport:
    """Run the selected layers for one registered adder family."""
    options = options or VerifyOptions()
    with obs.span("verify.adder"):
        model = entry(options.width)
        vectors = operand_vectors(
            options.width,
            max_exhaustive_bits=options.max_exhaustive_bits,
            random_vectors=options.random_vectors,
            seed=options.seed,
        )
        obs.count("verify.adders")
        obs.count("verify.vectors", vectors.count)
        results: List[LayerResult] = []
        for layer in options.layers:
            with obs.span(f"verify.layer.{layer}"):
                if layer == "behavioural":
                    results.append(check_behavioural(
                        model, vectors, build=entry,
                        min_width=entry.min_width))
                elif layer == "verilog":
                    results.append(check_verilog(
                        model, build=entry, min_width=entry.min_width,
                        random_vectors=options.random_vectors,
                        seed=options.seed))
                elif layer == "stats":
                    results.append(check_stats(
                        model, engine=engine,
                        exhaustive_width_cap=options.stats_exhaustive_cap,
                        samples=options.samples, seed=options.seed,
                        backend=options.backend))
                elif layer == "analytic":
                    results.append(check_analytic(
                        model, engine=engine,
                        exhaustive_width_cap=options.analytic_exhaustive_cap))
                elif layer == "compiled":
                    results.append(check_compiled(
                        model, vectors, build=entry,
                        min_width=entry.min_width))
                else:
                    results.append(check_vector(
                        model, vectors, build=entry,
                        max_scalar=options.max_scalar,
                        min_width=entry.min_width))
    return ConformanceReport(
        key=entry.key,
        adder_name=model.name,
        width=options.width,
        fingerprint=fingerprint_adder(model),
        layers=results,
    )


def verify_registry(adders: Optional[Iterable[str]] = None,
                    options: Optional[VerifyOptions] = None,
                    engine=None) -> List[ConformanceReport]:
    """Run the conformance harness over a registry selection.

    Args:
        adders: registry keys to verify (None = the full registry).
        options: run tunables; ``VerifyOptions()`` when omitted.
        engine: :class:`repro.engine.Engine` used by the stats layer
            (None = the process default — serial, uncached).

    Entries whose family is undefined at the requested width (e.g. ETAII
    at an odd width) are skipped entirely rather than failing the run.
    """
    options = options or VerifyOptions()
    reports: List[ConformanceReport] = []
    for entry in select_entries(list(adders) if adders is not None else None):
        if not entry.supports(options.width):
            continue
        reports.append(verify_adder(entry, options=options, engine=engine))
    return reports


def verify_payload(adders: Optional[Iterable[str]] = None,
                   options: Optional[VerifyOptions] = None,
                   engine=None) -> dict:
    """JSON-safe conformance summary — the service-side verify runner.

    The :mod:`repro.serve` daemon answers ``POST /verify`` with exactly
    this document, so a served verify and ``gear verify --json`` derive
    from the same reports.
    """
    options = options or VerifyOptions()
    reports = verify_registry(adders, options=options, engine=engine)
    return {
        "ok": all(report.ok for report in reports),
        "width": options.width,
        "adders": [report.key for report in reports],
        "reports": [report.to_json() for report in reports],
    }
