"""One repetition of a workload in a fresh process.

``run.py`` launches this script once per repetition, so every
repetition starts with empty kernel, plan and shard caches.  It writes
one JSON result file::

    python3 perfbench/rep.py --workload explore --seed 1 --size full \
        --trace 0 --workdir .perfbench/work/x --out rep.json [--setup-only]

``ready_at`` in the result is the ``time.monotonic()`` reading when the
first op could be issued; the launcher subtracts its own launch reading
from it to get the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import NULL_TRACER, Tracer, write_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace-file", type=pathlib.Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else NULL_TRACER
    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir,
                                        tracer)
    result = {"ready_at": time.monotonic()}
    try:
        if not args.setup_only:
            result.update(timed(workload, args, tracer))
    finally:
        workload.close()
    args.out.write_text(json.dumps(result))
    return 0


def timed(workload, args, tracer) -> dict:
    import numpy
    from repro import obs

    collector = obs.Collector() if args.trace else None
    previous = obs.set_collector(collector)
    try:
        start = time.perf_counter()
        records = workload.drive()
        wall = time.perf_counter() - start
    finally:
        obs.set_collector(previous)
    # Read before the output check, whose offline oracle runs in this
    # process and would otherwise count towards the program's memory.
    peak_rss_mb = workload.peak_rss_mb()
    digest, problems = workload.check()
    script = json.dumps(workload.script(), sort_keys=True, default=str)
    result = {
        "records": records,
        "wall_s": wall,
        "digest": digest,
        "problems": problems,
        "errors": workload.errors,
        "peak_rss_mb": peak_rss_mb,
        "script_sha": hashlib.sha256(script.encode()).hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        # serve_mix reads the daemon's telemetry; the others run in-process.
        frame = getattr(workload, "program_frame", collector.snapshot)()
        result["layers"] = workload.layer_metrics(tracer.events, frame)
        if args.trace_file is not None:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            write_trace(args.trace_file, tracer.events, frame,
                        label=f"perfbench {args.workload} seed {args.seed}")
    return result


if __name__ == "__main__":
    sys.exit(main())
