"""Design-space sweeps, Pareto analysis, carry-chain statistics,
runtime accuracy management and table rendering."""

from repro.analysis.sweep import SweepResult, sweep_gear_configs, sweep_adder_family
from repro.analysis.pareto import pareto_front, dominates, select_config
from repro.analysis.tables import Table, format_table
from repro.analysis.carrychain import (
    chain_coverage_table,
    expected_longest_chain,
    longest_chain_distribution,
    prob_longest_chain_at_most,
    required_chain_for_coverage,
)
from repro.analysis.runtime import (
    AccuracyController,
    ControllerTrace,
    Mode,
    build_mode_ladder,
)
from repro.analysis.export import export_all
from repro.analysis.report import generate_report, write_report

__all__ = [
    "SweepResult",
    "sweep_gear_configs",
    "sweep_adder_family",
    "pareto_front",
    "dominates",
    "select_config",
    "Table",
    "format_table",
    "chain_coverage_table",
    "expected_longest_chain",
    "longest_chain_distribution",
    "prob_longest_chain_at_most",
    "required_chain_for_coverage",
    "AccuracyController",
    "ControllerTrace",
    "Mode",
    "build_mode_ladder",
    "export_all",
    "generate_report",
    "write_report",
]
