"""Unified result containers for every experiment module.

Each ``run_*`` function historically returned a bare ``list`` of row
dataclasses (or a ``dict`` of panels for the multi-panel figures).  The
engine redesign unifies them: results still *are* lists/dicts — so every
existing caller keeps iterating, indexing and ``.items()``-ing them — but
they additionally implement the result protocol the CLI and exporter rely
on:

* ``to_rows()`` — flat list of cell tuples aligned with ``headers``,
* ``to_json()`` — ``{"experiment", "headers", "rows": [dict, ...]}``,
  deterministic (no timings, no job counts) so ``--json`` output is
  byte-identical however the evaluation was scheduled.

Modules describe their rows once with a ``row_fn`` mapping each item to a
dict keyed by ``headers`` (or a list of such dicts when one item expands
to several rows, as in Fig. 1's per-architecture breakdown).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

RowDict = Dict[str, object]
RowOrRows = Union[RowDict, List[RowDict]]


def _as_row_list(produced: RowOrRows) -> List[RowDict]:
    if isinstance(produced, dict):
        return [produced]
    return list(produced)


class _ResultProtocol:
    """``to_rows``/``to_json`` over a container's ``name``, ``headers``
    and ``json_rows()``."""

    def to_rows(self) -> List[tuple]:
        """Flat cell tuples aligned with ``headers``."""
        return [tuple(row.get(h) for h in self.headers) for row in self.json_rows()]

    def to_json(self) -> dict:
        """Deterministic JSON document for ``--json`` / ``gear export``."""
        return {
            "experiment": self.name,
            "headers": self.headers,
            "rows": self.json_rows(),
        }


class ExperimentResult(_ResultProtocol, list):
    """A list of experiment row objects implementing the result protocol.

    Subclasses ``list`` so the historical contract is intact: iteration,
    indexing (including negative), slicing, ``len`` and equality all see
    the original row dataclasses.
    """

    def __init__(
        self,
        name: str,
        headers: Sequence[str],
        items: Iterable[object],
        row_fn: Callable[[object], RowOrRows],
    ) -> None:
        super().__init__(items)
        self.name = name
        self.headers = list(headers)
        self._row_fn = row_fn

    def json_rows(self) -> List[RowDict]:
        """One JSON-safe dict per output row, keyed by ``headers``."""
        rows: List[RowDict] = []
        for item in self:
            rows.extend(_as_row_list(self._row_fn(item)))
        return rows


class GroupedExperimentResult(_ResultProtocol, dict):
    """A mapping of panel key → row list implementing the result protocol.

    Subclasses ``dict`` so multi-panel figures (Fig. 7's per-R panels,
    Fig. 9's per-application panels) keep their historical ``.items()`` /
    ``.values()`` / ``set(...)`` behaviour.  ``to_rows``/``to_json``
    flatten panels in insertion order; ``row_fn`` receives
    ``(group_key, item)`` so rows can embed their panel identity.
    """

    def __init__(
        self,
        name: str,
        headers: Sequence[str],
        groups: Mapping[object, Iterable[object]],
        row_fn: Callable[[object, object], RowOrRows],
        group_header: Optional[str] = None,
    ) -> None:
        super().__init__(groups)
        self.name = name
        self.headers = list(headers)
        if group_header is not None and group_header not in self.headers:
            self.headers = [group_header] + self.headers
        self._row_fn = row_fn
        self._group_header = group_header

    def json_rows(self) -> List[RowDict]:
        rows: List[RowDict] = []
        for key, items in self.items():
            for item in items:
                for row in _as_row_list(self._row_fn(key, item)):
                    if self._group_header is not None and self._group_header not in row:
                        row = {self._group_header: key, **row}
                    rows.append(row)
        return rows
