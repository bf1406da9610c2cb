"""One-shot Markdown reproduction report.

``generate_report()`` runs every table/figure experiment plus the
ablations and renders a self-contained Markdown document — the artefact a
CI job would archive per commit to watch the reproduction for drift.
Heavier stages (Table I's kernel run, the ablations) can be skipped for a
quick smoke report.
"""

from __future__ import annotations

import io
import pathlib
import time
from typing import List, Optional, Union

PathLike = Union[str, pathlib.Path]

#: Fast artefacts always included.
CORE_SECTIONS = ("fig1", "fig7", "table3", "table4")
#: Heavier artefacts included unless quick=True.
FULL_SECTIONS = ("table2", "fig8", "table1", "fig9")
#: Ablation studies (run unless quick=True) and their headings.
ABLATION_SECTIONS = {
    "ablation-distributions": "Ablation — operand-distribution sensitivity",
    "ablation-correction": "Ablation — selective correction",
}


def _code_block(text: str) -> str:
    return "```\n" + text.rstrip("\n") + "\n```\n"


def generate_report(quick: bool = False,
                    include_ablations: Optional[bool] = None) -> str:
    """Build the reproduction report as a Markdown string.

    Args:
        quick: skip the synthesis-heavy artefacts (Tables I/II, Figs. 8/9)
            and the ablations.
        include_ablations: override the ablation default (run unless quick).
    """
    from repro import __version__
    from repro.experiments import EXPERIMENTS

    run_ablations = (not quick) if include_ablations is None else include_ablations
    out = io.StringIO()
    started = time.time()

    out.write("# GeAr reproduction report\n\n")
    out.write(f"library version: {__version__}\n\n")
    out.write(
        "Regenerates the paper's evaluation artefacts from the current "
        "code. Analytic quantities must match the paper to printed "
        "precision; hardware quantities are compared by ordering (see "
        "EXPERIMENTS.md).\n\n"
    )

    sections: List[str] = list(CORE_SECTIONS)
    if not quick:
        sections += list(FULL_SECTIONS)
    if run_ablations:
        sections += list(ABLATION_SECTIONS)
    for name in sections:
        spec = EXPERIMENTS[name]
        title = ABLATION_SECTIONS.get(name) or (
            name.replace("table", "Table ").replace("fig", "Figure "))
        out.write(f"## {title}\n\n")
        out.write(_code_block(spec.renderer(spec.run())))
        out.write("\n")

    elapsed = time.time() - started
    out.write(f"---\ngenerated in {elapsed:.1f} s\n")
    return out.getvalue()


def write_report(path: PathLike, quick: bool = False) -> pathlib.Path:
    """Generate and save the report; returns the written path."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(generate_report(quick=quick))
    return target
