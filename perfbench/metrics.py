"""Metric names, units and the statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the single list of what the
benchmark prints; ``BENCHMARK.json`` at the repository root must name
exactly these (the self-test checks it).  Every workload prints every
metric: a layer that a workload never crosses reads 0 there.

Which end-to-end metric each layer metric should move, and on which
workload, is written beside it.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

__all__ = ["END_TO_END", "EXPERIMENT_NAMES", "PER_LAYER", "VERIFY_LAYERS",
           "TAIL_BEYOND", "median", "ratio", "tail"]

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),        # launch until the first op can be issued
    ("ops_per_s", "1/s"),    # completed ops per second of the timed phase
    ("op_p50_ms", "ms"),     # median op latency
    ("op_tail_ms", "ms"),    # latency with exactly TAIL_BEYOND ops above it
    ("ok_ratio", "ratio"),   # ops that returned a result / ops attempted
    ("peak_rss_mb", "MB"),   # peak resident memory of every process used
]

#: Ops above the reported tail latency: the highest percentile that
#: still has ten samples beyond it.
TAIL_BEYOND = 10

#: The paper's tables, figures and ablations (``repro.experiments``).
EXPERIMENT_NAMES = (
    "fig1", "fig7", "fig8", "fig9", "table1", "table2", "table3", "table4",
    "ablation-distributions", "ablation-correction", "sweep",
)

#: The six ``gear verify`` layers (``repro.verify.LAYERS``).
VERIFY_LAYERS = ("behavioural", "verilog", "stats", "analytic", "compiled",
                 "vector")

#: (name, unit) of the per-layer metrics of the traced run.
PER_LAYER: List[Tuple[str, str]] = [
    # explore: ops_per_s
    ("spec.resolve.calls", "count"),
    ("spec.resolve.busy_s", "s"),
    # gate_campaign: ops_per_s
    ("spec.to_netlist.calls", "count"),
    ("spec.to_netlist.busy_s", "s"),
    # explore: ops_per_s, op_tail_ms, ok_ratio
    ("engine.analytic.calls", "count"),
    ("engine.analytic.busy_s", "s"),
    ("engine.analytic.p50_ms", "ms"),
    ("engine.analytic.fail", "count"),
    ("engine.analytic.fail_s", "s"),
    # explore: ops_per_s; serve_mix cold tail: op_p50_ms
    ("engine.sampling.calls", "count"),
    ("engine.sampling.busy_s", "s"),
    ("engine.sampling.samples_per_s", "1/s"),
    ("engine.compiled.calls", "count"),
    ("engine.compiled.busy_s", "s"),
    ("engine.compiled.samples_per_s", "1/s"),
    # writes: explore ops_per_s; reads: serve_mix op_p50_ms
    ("engine.cache.hit", "count"),
    ("engine.cache.miss", "count"),
    ("engine.cache.store", "count"),
    ("engine.cache.hit_ratio", "ratio"),
    # explore: ops_per_s, op_tail_ms
    *[(f"experiments.{name}.s", "s") for name in EXPERIMENT_NAMES],
    ("experiments.busy_s", "s"),
    # explore and gate_campaign: ops_per_s
    ("rtl.compile.calls", "count"),
    ("rtl.compile.busy_s", "s"),
    ("rtl.compile.word_ops", "count"),
    # gate_campaign: ops_per_s (faults also op_p50_ms)
    ("rtl.sta.busy_s", "s"),
    ("rtl.faults.calls", "count"),
    ("rtl.faults.busy_s", "s"),
    ("rtl.faults.faults_per_s", "1/s"),
    ("rtl.faults.detected_ratio", "ratio"),
    # gate_campaign: op_tail_ms, ok_ratio
    *[(f"verify.{layer}.busy_s", "s") for layer in VERIFY_LAYERS],
    ("verify.fail", "count"),
    # serve_mix: op_p50_ms, ops_per_s
    ("serve.eval.rtt_p50_ms", "ms"),
    ("serve.verify.rtt_p50_ms", "ms"),
    ("serve.eval.daemon_mean_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.worker.busy_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.coalesce.hit_ratio", "ratio"),
    ("serve.errors", "count"),
    # every workload: traced wall time / untraced wall time
    ("trace.overhead_ratio", "ratio"),
]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` with :data:`TAIL_BEYOND` values above it.

    With no more than ``TAIL_BEYOND`` values the maximum is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    index = n - 1 - TAIL_BEYOND
    if index < 0:
        index = n - 1
    return ordered[index], 100.0 * (index + 1) / n


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
