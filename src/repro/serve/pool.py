"""Persistent warm worker pool behind the serve daemon.

Each worker is a long-lived process (or, with ``workers=0``, a single
in-process thread) holding a per-process :class:`~repro.engine.Engine`
plus everything the engine memoises process-wide: compiled bit-sliced
kernels (:mod:`repro.rtl.compile`'s fingerprint-keyed cache), resolved
adder models (:mod:`repro.serve.protocol`'s reference cache) and — when
a cache directory is configured — the content-addressed shard cache as
the tier shared by every worker and the offline CLI alike.  A repeat
request therefore costs deserialisation plus a cache probe, not a model
rebuild or kernel recompile: that is the "warm" in warm pool.

Every task returns ``(payload, frame_dict)``: the JSON-safe response
body plus the worker's :class:`~repro.obs.TelemetryFrame` snapshot.
The daemon folds each frame into its aggregate exactly as the engine's
own pool workers do (``docs/obs.md``), so ``/stats`` reports engine
counters (shards executed, cache hits, backend dispatch) accumulated
across process boundaries — and because frames form a commutative
monoid, the aggregate is independent of request interleaving.

A worker process that dies (OOM killer, SIGKILL, a segfault) breaks a
``ProcessPoolExecutor`` for good: the requests it held fail with
``BrokenProcessPool``, and so would every later submission.  The pool
therefore replaces a broken executor on the next submission, so one
lost worker costs the requests in flight at that moment, not the
daemon.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional, Tuple

from repro import obs
from repro.serve import protocol

__all__ = ["WorkerPool", "run_endpoint"]

#: Engine configuration of the current worker process.
_CONFIG: Dict = {}

#: The worker's persistent engine (None until first use).
_ENGINE = None


def _configure(config: Dict) -> None:
    """Process-pool initializer: record the engine configuration."""
    global _CONFIG, _ENGINE
    _CONFIG = dict(config)
    _ENGINE = None


def _engine():
    """The worker's lazily-built persistent engine."""
    global _ENGINE
    if _ENGINE is None:
        from repro.engine import Engine, ShardCache

        cache = _CONFIG.get("cache")
        if cache is not None and _CONFIG.get("cache_bytes") is not None:
            cache = ShardCache(cache, max_bytes=int(_CONFIG["cache_bytes"]))
        _ENGINE = Engine(jobs=int(_CONFIG.get("jobs", 1)), cache=cache)
    return _ENGINE


def _run_eval(wire: Dict) -> Dict:
    return protocol.offline_eval_payload(wire, _engine())


def _run_verify(wire: Dict) -> Dict:
    from repro.verify.runner import verify_payload

    return verify_payload(*protocol.build_verify_options(wire),
                          engine=_engine())


def _run_experiment(wire: Dict) -> Dict:
    return protocol.run_experiment(wire, _engine()).to_json()


_HANDLERS = {
    "eval": _run_eval,
    "verify": _run_verify,
    "experiment": _run_experiment,
}


def run_endpoint(endpoint: str, wire: Dict) -> Tuple[Dict, Optional[dict]]:
    """Execute one service request in this worker.

    Returns ``(payload, frame)`` where ``frame`` is the worker-side
    telemetry of exactly this request as a JSON-safe dict (the worker
    records into a private collector, so frames never bleed between
    concurrently-executing requests in different workers).
    """
    handler = _HANDLERS[endpoint]
    collector = obs.Collector()
    previous = obs.set_collector(collector)
    try:
        with obs.span(f"serve.worker.{endpoint}"):
            payload = handler(wire)
    finally:
        obs.set_collector(previous)
    return payload, collector.snapshot().to_dict()


class WorkerPool:
    """Fixed pool of persistent evaluation workers.

    Args:
        workers: worker processes.  ``0`` runs everything on one
            in-process thread — no pickling, same warm-state semantics,
            the right choice for tests and single-tenant use.
        jobs: per-request engine parallelism inside each worker.
        cache: shard-cache directory shared by all workers (None
            disables the shared tier).
        cache_bytes: optional size cap for the shared cache.
    """

    def __init__(self, workers: int = 0, jobs: int = 1,
                 cache: Optional[str] = None,
                 cache_bytes: Optional[int] = None) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = int(workers)
        self._config = {
            "jobs": int(jobs),
            "cache": None if cache is None else str(cache),
            "cache_bytes": cache_bytes,
        }
        self._lock = threading.Lock()
        #: Executors replaced after a worker process died.
        self.respawns = 0
        self._executor = self._new_executor()

    def _new_executor(self):
        if self.workers >= 1:
            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_configure, initargs=(self._config,))
        # Single in-process worker thread; max_workers=1 serialises
        # execution, which makes the collector swap in run_endpoint
        # safe without thread-local obs state.
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-worker",
            initializer=_configure, initargs=(self._config,))

    def submit(self, endpoint: str, wire: Dict) -> Future:
        """Schedule one request; the future resolves to (payload, frame).

        A broken process pool is replaced by a fresh one first.
        """
        executor = self._executor
        try:
            return executor.submit(run_endpoint, endpoint, wire)
        except BrokenProcessPool:
            with self._lock:
                if self._executor is executor:
                    executor.shutdown(wait=False)
                    self._executor = self._new_executor()
                    self.respawns += 1
                executor = self._executor
        return executor.submit(run_endpoint, endpoint, wire)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "process" if self.workers >= 1 else "thread"
        return f"WorkerPool(workers={self.workers}, kind={kind!r})"
