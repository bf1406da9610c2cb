"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  Each repetition is a fresh process
(``rep.py``) with a fresh shard-cache directory under ``.perfbench/``.
With ``--trace 0`` a run makes ``REPETITIONS[workload]`` repetitions per
20 seconds of ``--seconds`` (at least one), a count fixed by its
arguments; the end-to-end metrics are medians over them, and the last
line of standard output is the end-to-end result.  With
``--trace 1`` the run makes one untraced and one traced repetition, and
the last line carries the traced per-layer metrics plus
``trace.overhead_ratio``.  The traced spans are written to
``.perfbench/traces/`` in the ``repro.obs`` trace format (render one
with ``gear obs report FILE``).

The line before the last records provenance: git sha, Python and NumPy
versions, ``nproc``, the seed, op counts, the output digest and the
tail percentile.  The run exits 1 when an output check or a digest
from ``digests.json`` does not match, and 2 when the program or its
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List

from metrics import END_TO_END, PER_LAYER, median, ratio, tail

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
WORKLOADS = ("explore", "gate_campaign", "serve_mix")

#: Repetitions in a run of NOMINAL_SECONDS; other ``--seconds`` scale it.
REPETITIONS = {"explore": 2, "gate_campaign": 4, "serve_mix": 16}
NOMINAL_SECONDS = 20

#: Set-up samples behind the reported median ``setup_s``.
MIN_SETUPS = 5

#: A repetition that takes longer than this is killed and fails the run.
REP_TIMEOUT_S = 150


def launch(args, workdir: pathlib.Path, index: int, trace: int,
           setup_only: bool = False) -> Dict:
    """Run one repetition in a fresh process and return its result."""
    out = workdir / f"rep{index}.json"
    cmd = [sys.executable, str(HERE / "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(trace),
           "--workdir", str(workdir / f"rep{index}"), "--out", str(out)]
    if trace:
        cmd += ["--trace-file", str(
            STATE_DIR / "traces" / f"{args.workload}-seed{args.seed}"
            f"-rep{index}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    # A session of its own, so a daemon the repetition started dies with
    # it if the repetition has to be killed.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"{args.workload} repetition {index} exited "
                           f"with code {code}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready_at"] - launched
    shutil.rmtree(workdir / f"rep{index}", ignore_errors=True)
    return result


def measure(args, workdir: pathlib.Path):
    """The run's repetitions, plus set-up-only launches up to MIN_SETUPS."""
    if args.trace:
        return ([launch(args, workdir, 0, 0)],
                [launch(args, workdir, 1, 1)], [])
    count = max(1, round(REPETITIONS[args.workload] * args.seconds
                         / NOMINAL_SECONDS))
    reps = [launch(args, workdir, index, 0) for index in range(count)]
    setups = [rep["setup_s"] for rep in reps]
    for index in range(count, MIN_SETUPS):
        setups.append(launch(args, workdir, index, 0,
                             setup_only=True)["setup_s"])
    return reps, [], setups


def end_to_end(reps: List[Dict], setups: List[float]) -> Dict[str, float]:
    """Per-repetition statistics, each reported as a median over reps."""
    latencies = [[latency for _, latency, _ in rep["records"]]
                 for rep in reps]
    outcomes = [outcome for rep in reps for _, _, outcome in rep["records"]]
    return {
        "setup_s": median(setups),
        "ops_per_s": median([len(lat) / rep["wall_s"]
                             for lat, rep in zip(latencies, reps)]),
        "op_p50_ms": 1e3 * median([median(lat) for lat in latencies]),
        "op_tail_ms": 1e3 * median([tail(lat)[0] for lat in latencies]),
        "ok_ratio": ratio(outcomes.count("ok"), len(outcomes)),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }


def per_layer(untraced: Dict, traced: Dict) -> Dict[str, float]:
    out = {name: traced["layers"].get(name, 0.0) for name, _ in PER_LAYER}
    out["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return out


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_digest(size: str, workload: str):
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded.get(size, {}).get(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    workdir = STATE_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced, setups = measure(args, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = untraced + traced
    expected = expected_digest(args.size, args.workload)
    problems = sorted({p for rep in reps for p in rep["problems"]})
    digests = sorted({rep["digest"] for rep in reps})
    if digests != [expected]:
        problems.append(f"output digest {digests} does not match the "
                        f"recorded {expected!r} ({args.size} size)")
    attempted = sum(len(rep["records"]) for rep in reps)
    failed = sum(outcome == "failed" for rep in reps
                 for _, _, outcome in rep["records"])
    known = sum(outcome == "known" for rep in reps
                for _, _, outcome in rep["records"])
    if args.trace:
        metrics, table = per_layer(untraced[0], traced[0]), PER_LAYER
    else:
        metrics, table = end_to_end(untraced, setups), END_TO_END
    ops = len(untraced[0]["records"])
    _, percentile = tail([0.0] * ops)
    provenance = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "git_sha": git_sha(),
        "python": untraced[0]["python"], "numpy": untraced[0]["numpy"],
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
        "repetitions": len(reps), "ops_per_repetition": ops,
        "op_tail_percentile": percentile,
        "rep_wall_s": [rep["wall_s"] for rep in reps],
        "known_defect_ops": known, "fail_ratio": ratio(known + failed,
                                                       attempted),
        "script_sha": untraced[0]["script_sha"], "digest": digests,
        "errors": sorted({e for rep in reps for e in rep["errors"]})[:20],
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in table:
        print(f"{name:36s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
