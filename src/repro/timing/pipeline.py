"""Discrete-event validation of the Table IV execution-time model.

Table IV *predicts* application runtimes as
``n_ops · delay · (1 + p_err · c)`` without simulating anything — the
paper's argument for having an error model at all.  This module closes the
loop: a cycle-accurate simulation of a variable-latency addition pipeline
(speculative result in one cycle; on detection, the pipeline stalls one
extra cycle per corrected sub-adder, §3.3) measures the *actual* cycles an
operand stream costs, which the benches compare against the formula.

The simulator is intentionally minimal — a single adder stage with
stall-on-correct semantics — because that is exactly the machine the
paper's formula describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.correction import ErrorCorrector
from repro.core.error_model import paper_error_probability
from repro.spec.model import SpecAdder
from repro.timing.latency import correction_cycle_counts
from repro.utils.distributions import OperandDistribution, UniformOperands
from repro.utils.validation import check_pos_int


@dataclass(frozen=True)
class PipelineRun:
    """Measured cost of streaming ``operations`` additions."""

    adder_name: str
    operations: int
    total_cycles: int
    corrected_operations: int
    total_corrections: int

    @property
    def cycles_per_op(self) -> float:
        return self.total_cycles / self.operations

    @property
    def stall_fraction(self) -> float:
        """Fraction of cycles spent in correction stalls."""
        return 1.0 - self.operations / self.total_cycles

    def runtime_seconds(self, delay_ns: float) -> float:
        """Wall time at one pipeline cycle per adder critical path."""
        return self.total_cycles * delay_ns * 1e-9


def simulate_pipeline(
    adder: SpecAdder,
    operations: int,
    seed: Optional[int] = 2015,
    distribution: Optional[OperandDistribution] = None,
    enabled: Optional[list] = None,
) -> PipelineRun:
    """Run ``operations`` additions through the stall-on-correct pipeline.

    Every addition costs one cycle; an addition whose (enabled) detectors
    fire costs one extra cycle per corrected sub-adder, exactly as §3.3's
    sequential correction does.  The returned cycle totals therefore equal
    the sum of the behavioural corrector's per-addition cycle counts.
    """
    check_pos_int("operations", operations)
    dist = distribution or UniformOperands(adder.width)
    a, b = dist.sample_pairs(operations, seed=seed)
    result = ErrorCorrector(adder, enabled=enabled).add(a, b)
    cycles = np.asarray(result.cycles)
    corrections = np.asarray(result.corrections)
    return PipelineRun(
        adder_name=adder.name,
        operations=operations,
        total_cycles=int(cycles.sum()),
        corrected_operations=int(np.count_nonzero(corrections)),
        total_corrections=int(corrections.sum()),
    )


@dataclass(frozen=True)
class ModelComparison:
    """Measured pipeline cost vs the Table IV analytic scenarios."""

    measured_cycles_per_op: float
    predicted_best: float
    predicted_average: float
    predicted_worst: float

    @property
    def within_envelope(self) -> bool:
        """True when the measurement falls inside [best, worst]."""
        return (
            self.predicted_best - 1e-9
            <= self.measured_cycles_per_op
            <= self.predicted_worst + 1e-9
        )


def compare_with_model(
    adder: SpecAdder,
    operations: int = 100_000,
    seed: Optional[int] = 2015,
    distribution: Optional[OperandDistribution] = None,
) -> ModelComparison:
    """Measure the pipeline and evaluate the paper's three scenarios.

    The analytic scenarios cost each erroneous addition 1 (best), k/2
    (average) or k-1 (worst) extra cycles at the paper's error probability
    (:func:`~repro.core.error_model.paper_error_probability`), with ``k``
    the adder's sub-adder count; the measurement uses the actual
    per-addition correction counts.
    """
    run = simulate_pipeline(adder, operations, seed=seed,
                            distribution=distribution)
    k = len(adder.windows)
    p_err = paper_error_probability(adder)
    scenarios = correction_cycle_counts(k)
    return ModelComparison(
        measured_cycles_per_op=run.cycles_per_op,
        predicted_best=1.0 + p_err * scenarios["best"],
        predicted_average=1.0 + p_err * scenarios["average"],
        predicted_worst=1.0 + p_err * scenarios["worst"],
    )
