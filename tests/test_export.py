"""Unit tests for CSV/JSON export of the registered experiments."""

import csv
import dataclasses
import json
import pathlib

import pytest

from repro.analysis.export import export_all
from repro.cli import main
from repro.experiments import EXPERIMENTS


def _read(path: pathlib.Path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _parse_cell(cell: str, like):
    """Read a CSV cell back as the type of its JSON value ``like``."""
    if like is None:
        return None if cell == "" else cell
    if isinstance(like, bool):
        return {"True": True, "False": False}[cell]
    if isinstance(like, (dict, list)):
        return json.loads(cell)
    return type(like)(cell)


def _memoised(runner):
    """``runner`` run once per keyword set; the engine is left out of the
    key because results are identical on any engine."""
    results = {}

    def run(**kwargs):
        key = tuple(sorted((k, v) for k, v in kwargs.items() if k != "engine"))
        if key not in results:
            results[key] = runner(**kwargs)
        return results[key]

    return run


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Every experiment exported as CSV and as JSON.  Runners are memoised
    for the module, so each experiment runs once for the CSV, the JSON and
    the ``gear experiment`` comparison."""
    root = tmp_path_factory.mktemp("export")
    with pytest.MonkeyPatch.context() as mp:
        for name, spec in EXPERIMENTS.items():
            mp.setitem(EXPERIMENTS, name,
                       dataclasses.replace(spec, runner=_memoised(spec.runner)))
        yield export_all(root / "csv"), export_all(root / "json", fmt="json")


def _experiment_stdout(capsys, *argv) -> str:
    capsys.readouterr()
    assert main(["experiment", *argv, "--json"]) == 0
    return capsys.readouterr().out


class TestExporters:
    def test_fig1_csv(self, exported):
        rows = _read(exported[0]["fig1"])
        assert rows[0] == ["r", "architecture", "configs", "p_values"]
        (gear_r2,) = [r for r in rows[1:] if r[1] == "GeAr" and r[0] == "2"]
        assert len(gear_r2[3].split(",")) == 13

    def test_table3_csv(self, exported):
        rows = _read(exported[0]["table3"])
        assert rows[0][0] == "n"
        assert len(rows) == 5  # header + 4 configurations
        first = rows[1]
        assert first[:3] == ["12", "4", "4"]
        assert float(first[4]) == pytest.approx(2.9297, abs=1e-3)

    def test_export_subset(self, tmp_path):
        paths = export_all(tmp_path, artefacts=["fig1", "table3"])
        assert set(paths) == {"fig1", "table3"}
        assert paths["fig1"] == tmp_path / "fig1.csv"
        for p in paths.values():
            assert p.exists()

    def test_unknown_artefact_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_all(tmp_path, artefacts=["fig42"])

    def test_registry_covers_every_experiment(self, exported):
        csv_paths, json_paths = exported
        assert list(csv_paths) == list(EXPERIMENTS)
        assert list(json_paths) == list(EXPERIMENTS)
        for name in EXPERIMENTS:
            assert csv_paths[name].name == f"{name}.csv"
            assert json_paths[name].name == f"{name}.json"

    def test_fig7_series_monotone(self, exported):
        rows = _read(exported[0]["fig7"])
        r2 = [(int(r[1]), float(r[2])) for r in rows[1:] if r[0] == "2"]
        accs = [acc for _, acc in sorted(r2)]
        assert accs == sorted(accs)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
class TestEveryExperiment:
    def test_csv_matches_json_rows(self, exported, name):
        csv_paths, json_paths = exported
        document = json.loads(json_paths[name].read_text())
        rows = _read(csv_paths[name])
        assert rows[0] == document["headers"]
        assert len(rows) - 1 == len(document["rows"])
        for cells, row in zip(rows[1:], document["rows"]):
            parsed = [_parse_cell(cell, row.get(h))
                      for cell, h in zip(cells, document["headers"])]
            assert parsed == [row.get(h) for h in document["headers"]]

    def test_json_equals_experiment_stdout(self, exported, capsys, name):
        assert exported[1][name].read_text() == _experiment_stdout(capsys, name)


def test_sweep_export_forwards_backend(tmp_path, capsys):
    assert main(["export", "--json", "--backend", "analytic", "--only",
                 "sweep", "--dir", str(tmp_path)]) == 0
    exported = (tmp_path / "sweep.json").read_text()
    assert exported == _experiment_stdout(capsys, "sweep", "--backend",
                                          "analytic")
    assert exported != _experiment_stdout(capsys, "sweep")
