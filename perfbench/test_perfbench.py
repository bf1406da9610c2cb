"""Self-test of the benchmark harness at the ``tiny`` size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every named metric is printed with its unit, that the
output digests match ``digests.json``, that a different seed changes
the script but not the set of metric names, that a traced run's spans
render with ``gear obs report``, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, EXPERIMENT_NAMES, PER_LAYER  # noqa: E402

WORKLOADS = ("explore", "gate_campaign", "serve_mix")


def run_bench(workload: str, seed: int, trace: int = 0, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done, lines


def parse(lines):
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    done, lines = run_bench(workload, seed=1)
    assert done.returncode == 0, done.stderr
    provenance, result = parse(lines)
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == dict(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("git_sha", "python", "numpy", "nproc", "seed",
                "ops_per_repetition"):
        assert key in provenance

    other_done, other_lines = run_bench(workload, seed=2)
    assert other_done.returncode == 0, other_done.stderr
    other_provenance, other_result = parse(other_lines)
    assert other_provenance["script_sha"] != provenance["script_sha"]
    assert other_provenance["digest"] == provenance["digest"]
    assert set(other_result["metrics"]) == set(result["metrics"])


def test_traced_run_prints_every_layer_metric_and_renders():
    done, lines = run_bench("gate_campaign", seed=3, trace=1)
    assert done.returncode == 0, done.stderr
    _, result = parse(lines)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == dict(PER_LAYER)
    assert result["metrics"]["rtl.faults.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    traces = sorted((ROOT / ".perfbench" / "traces").glob(
        "gate_campaign-seed3-*.jsonl"))
    assert traces
    report = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "report", str(traces[-1])],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert report.returncode == 0, report.stderr
    assert "perfbench/gate_campaign.op/rtl.faults" in report.stdout


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_experiment_metrics_cover_the_registry():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import EXPERIMENTS

    assert tuple(EXPERIMENTS) == EXPERIMENT_NAMES


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, lines = run_bench("explore", seed=1, cwd=tmp_path)
    assert done.returncode != 0
    assert not lines
