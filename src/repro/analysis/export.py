"""CSV/JSON export of every registered experiment.

Plotting lives outside this library (no matplotlib dependency); the
exporter writes each :data:`~repro.experiments.EXPERIMENTS` entry's rows
so any tool can regenerate the visuals.  Both formats come from the one
result protocol:

* **CSV** — a header row of ``result.headers``, then ``result.to_rows()``.
  Scalars are written as :mod:`csv` writes them (floats at full ``repr``
  precision), ``None`` as an empty cell, and a ``dict``/``list`` cell as
  compact, key-sorted JSON text.
* **JSON** — ``result.to_json()``, byte-identical to ``gear experiment
  <name> --json``.  The protocol excludes timings and job counts, so a
  re-export at any ``--jobs`` is byte-identical.

``export_all(directory)`` writes ``<name>.csv`` (or ``<name>.json``) per
experiment and returns the paths; the CLI exposes it as ``gear export``.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Dict, Optional, Sequence, TextIO, Union

PathLike = Union[str, pathlib.Path]


def _csv_cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


def _write_csv(result, handle: TextIO) -> None:
    writer = csv.writer(handle)
    writer.writerow(result.headers)
    writer.writerows([_csv_cell(cell) for cell in row] for row in result.to_rows())


def _write_json(result, handle: TextIO) -> None:
    json.dump(result.to_json(), handle, indent=2, sort_keys=True)
    handle.write("\n")


_WRITERS = {"csv": _write_csv, "json": _write_json}


def export_all(directory: PathLike,
               artefacts: Optional[Sequence[str]] = None,
               fmt: str = "csv",
               engine=None,
               backend: Optional[str] = None) -> Dict[str, pathlib.Path]:
    """Write the requested experiments (default: all) as CSV or JSON.

    ``engine`` and ``backend`` reach each runner through
    :meth:`~repro.experiments.ExperimentSpec.run`, exactly as ``gear
    experiment`` passes them.
    """
    from repro.experiments import EXPERIMENTS

    if fmt not in _WRITERS:
        raise ValueError(f"unknown export format: {fmt!r} (csv or json)")
    names = list(artefacts) if artefacts is not None else list(EXPERIMENTS)
    unknown = set(names) - set(EXPERIMENTS)
    if unknown:
        raise ValueError(f"unknown artefacts: {sorted(unknown)}")
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, pathlib.Path] = {}
    for name in names:
        result = EXPERIMENTS[name].run(engine=engine, backend=backend)
        paths[name] = out / f"{name}.{fmt}"
        with open(paths[name], "w", newline="") as handle:
            _WRITERS[fmt](result, handle)
    return paths
