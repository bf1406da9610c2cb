"""The work-scheduling engine: shard, execute, cache, merge.

:class:`Engine` turns an :class:`~repro.engine.api.EvalRequest` into an
:class:`~repro.engine.api.EvalResult`.  Dispatch goes through the
backend registry (:mod:`repro.engine.backends`): the ``analytic``
backend answers supported requests from the exact error PMF, while the
default ``sampling`` backend runs the sharded simulator:

1. **Plan** — the request is split into canonical shards
   (:mod:`repro.engine.planner`); the plan never depends on worker count.
2. **Probe** — with a cache attached, the request's one record is looked
   up (:mod:`repro.engine.cache`); a verified record supplies every
   shard's partial and nothing runs.
3. **Execute** — on a miss the shards are batched into tasks and run
   either serially or on a ``ProcessPoolExecutor`` with ``jobs``
   workers, and the merged-in-order partials are stored as one record.
4. **Merge** — partials are folded in shard-index order
   (:mod:`repro.engine.merge`), so the merged floating-point sums are
   bit-identical at any ``jobs``/``chunk`` setting.

The module also owns the process-wide default engine used by
module-level :func:`evaluate` callers; the CLI installs a configured
engine via :func:`use_engine` for the duration of a command.
"""

from __future__ import annotations

import contextlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.engine import api
from repro.engine.api import EvalRequest, EvalResult
from repro.engine.cache import PathLike, ShardCache
from repro.engine.merge import PartialStats, merge_partials
from repro.engine.planner import (
    DEFAULT_SHARD_SAMPLES,
    Shard,
    group_shards,
    plan_exhaustive,
    plan_fixed,
    plan_monte_carlo,
)

def _run_shard(mode: str, shard: Shard, adder, distribution,
               thresholds: Sequence[float],
               approx: Optional[np.ndarray],
               exact: Optional[np.ndarray]) -> PartialStats:
    """Evaluate one shard (runs in the parent or a pool worker)."""
    if mode == "monte_carlo":
        rng = np.random.default_rng(shard.seed_sequence())
        a, b = distribution.sample(shard.count, rng)
        return PartialStats.from_arrays(
            np.asarray(adder.add(a, b)), np.asarray(a + b),
            adder.out_width, thresholds,
        )
    if mode == "exhaustive":
        size = 1 << adder.width
        values = np.arange(size, dtype=np.int64)
        rows = values[shard.start:shard.start + shard.count]
        a = np.repeat(rows, size)
        b = np.tile(values, len(rows))
        return PartialStats.from_arrays(
            np.asarray(adder.add(a, b)), np.asarray(a + b),
            adder.out_width, thresholds,
        )
    # fixed: arrays are pre-sliced per task by the scheduler.
    return PartialStats.from_arrays(approx, exact, adder.out_width, thresholds)


def _decode_partials(body: dict, count: int) -> List[PartialStats]:
    """A cached record's partials; raises ValueError unless one per shard."""
    partials = [PartialStats.from_dict(p) for p in body["partials"]]
    if len(partials) != count:
        raise ValueError(f"record holds {len(partials)} partials, "
                         f"the plan has {count} shards")
    return partials


def _run_task(payload):
    """Evaluate a batch of shards; module-level so it pickles for pools.

    Returns ``(results, frame)`` where ``frame`` is a
    :class:`~repro.obs.TelemetryFrame` of the task's shard telemetry (or
    None when tracing is off).  The task records into a *private*
    collector — the parent's active collector does not exist in a pool
    worker — and the parent folds the frame home, so counters and span
    totals are identical at any ``jobs`` value.
    """
    mode, adder, distribution, thresholds, shards, arrays, trace = payload
    collector = obs.Collector() if trace else None
    out: List[Tuple[int, PartialStats, float]] = []
    for pos, shard in enumerate(shards):
        approx = exact = None
        if arrays is not None:
            approx, exact = arrays[pos]
        t0 = time.perf_counter()
        partial = _run_shard(mode, shard, adder, distribution, thresholds,
                             approx, exact)
        elapsed = time.perf_counter() - t0
        out.append((shard.index, partial, elapsed))
        if collector is not None:
            collector.record_span("engine.shard", elapsed)
            collector.count("engine.shard.samples", partial.samples)
            collector.observe("engine.shard.duration_s", elapsed,
                              bounds=obs.DURATION_BOUNDS)
    return out, (collector.snapshot() if collector is not None else None)


class Engine:
    """Sharded, optionally parallel, optionally cached evaluation engine.

    Args:
        jobs: worker processes (1 = run in-process, no pool).
        cache: record cache — a directory path or a :class:`ShardCache`
            instance; None disables caching.
        shard_samples: canonical Monte-Carlo shard granularity.  Part of
            the determinism contract: two engines agree bit-for-bit iff
            they agree on this value (it is baked into cache keys).

    The cumulative ``shards_executed`` / ``shards_cached`` counters let
    callers assert that a warm-cache rerun did zero simulation work.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[Union[PathLike, ShardCache]] = None,
                 shard_samples: int = DEFAULT_SHARD_SAMPLES) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if shard_samples < 1:
            raise ValueError(f"shard_samples must be >= 1, got {shard_samples}")
        self.jobs = int(jobs)
        self.cache: Optional[ShardCache]
        if cache is None or isinstance(cache, ShardCache):
            self.cache = cache
        else:
            self.cache = ShardCache(cache)
        self.shard_samples = int(shard_samples)
        self.shards_executed = 0
        self.shards_cached = 0

    def reset_counters(self) -> None:
        self.shards_executed = 0
        self.shards_cached = 0

    # -- planning helpers ---------------------------------------------------

    def _plan(self, request: EvalRequest) -> List[Shard]:
        if request.mode == "monte_carlo":
            return plan_monte_carlo(request.samples, request.seed,
                                    self.shard_samples)
        if request.mode == "exhaustive":
            return plan_exhaustive(request.adder.width)
        return plan_fixed(int(np.asarray(request.approx_values).size))

    def _shards_per_task(self, request: EvalRequest, pending: int) -> int:
        if request.chunk is not None:
            if request.chunk < 1:
                raise ValueError(f"chunk must be >= 1, got {request.chunk}")
            if request.mode == "monte_carlo":
                return max(1, request.chunk // self.shard_samples)
            return max(1, request.chunk)
        if self.jobs == 1:
            return max(1, pending)
        # Aim for ~4 tasks per worker so stragglers rebalance.
        return max(1, math.ceil(pending / (self.jobs * 4)))

    def _cacheable(self, request: EvalRequest) -> bool:
        if self.cache is None:
            return False
        # A None seed resolves to fresh OS entropy per call: the key would
        # never be seen again, so caching would only pollute the store.
        if request.mode == "monte_carlo" and request.seed is None:
            return False
        return True

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, request: EvalRequest) -> EvalResult:
        """Run one request to a merged :class:`ErrorStats`.

        The request's ``backend`` field selects who does the mathematics
        (see :mod:`repro.engine.backends`); the engine contributes cache,
        jobs and telemetry plumbing either way.
        """
        from repro.engine.backends import resolve_backend

        with obs.span("engine.evaluate"):
            backend = resolve_backend(request)
            obs.count("engine.requests")
            obs.count(f"engine.backend.{backend.name}.requests")
            with obs.span(f"engine.backend.{backend.name}"):
                return backend.evaluate(request, self)

    def _run_sampling(self, request: EvalRequest,
                      backend_name: str = "sampling") -> EvalResult:
        """The sharded simulator (the ``sampling`` backend's entry point).

        ``backend_name`` qualifies the request's cache key: the
        ``compiled`` backend reuses this whole pipeline with a substituted
        adder, and its records must never collide with plain sampled ones.
        """
        started = time.perf_counter()
        shards = self._plan(request)
        obs.count("engine.shards.planned", len(shards))
        distribution = request.distribution
        if request.mode == "monte_carlo" and distribution is None:
            from repro.utils.distributions import UniformOperands

            distribution = UniformOperands(request.adder.width)

        key = None
        cached: Optional[List[PartialStats]] = None
        if self._cacheable(request):
            key = api.request_key_material(request, backend=backend_name)
            key["granularity"] = self.shard_samples
            entropy = shards[0].entropy
            key["entropy"] = None if entropy is None else str(entropy)
            cached = self.cache.load_record(
                key, lambda body: _decode_partials(body, len(shards)))

        pending = shards if cached is None else []
        partials = {s.index: p for s, p in zip(shards, cached or ())}
        timings: List[float] = []
        if pending:
            tasks = group_shards(pending,
                                 self._shards_per_task(request, len(pending)))
            fixed_approx = fixed_exact = None
            if request.mode == "fixed":
                fixed_approx = np.asarray(request.approx_values,
                                          dtype=np.int64).ravel()
                fixed_exact = np.asarray(request.exact_reference,
                                         dtype=np.int64).ravel()
            payloads = []
            for task in tasks:
                arrays = None
                if request.mode == "fixed":
                    arrays = [
                        (fixed_approx[s.start:s.start + s.count],
                         fixed_exact[s.start:s.start + s.count])
                        for s in task
                    ]
                payloads.append((request.mode, request.adder, distribution,
                                 request.maa_thresholds, task, arrays,
                                 obs.enabled()))

            if self.jobs > 1 and len(payloads) > 1:
                with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(payloads))
                ) as pool:
                    results = list(pool.map(_run_task, payloads))
            else:
                results = [_run_task(p) for p in payloads]

            for task_result, frame in results:
                obs.absorb(frame)
                for index, partial, elapsed in task_result:
                    partials[index] = partial
                    timings.append(elapsed)
        ordered = [partials[s.index] for s in shards]
        if pending and key is not None:
            self.cache.store_record(
                key, {"partials": [p.to_dict() for p in ordered]})

        self.shards_executed += len(pending)
        self.shards_cached += len(shards) - len(pending)
        obs.count("engine.shards.executed", len(pending))
        obs.count("engine.shards.cached", len(shards) - len(pending))

        merged = merge_partials(ordered, request.maa_thresholds)
        stats = merged.finalize(*_error_distance_bounds(request.adder))
        return EvalResult(
            stats=stats,
            mode=request.mode,
            adder_name=request.adder.name,
            adder_fingerprint=api.fingerprint_adder(request.adder),
            shards_total=len(shards),
            shards_executed=len(pending),
            shards_cached=len(shards) - len(pending),
            jobs=self.jobs,
            elapsed_s=time.perf_counter() - started,
            shard_timings=tuple(timings),
        )

    # -- removed conveniences -----------------------------------------------
    #
    # Request construction lives on EvalRequest itself
    # (EvalRequest.monte_carlo / .exhaustive / .fixed).  The old engine
    # methods spent their two deprecation releases as warning shims and
    # are now hard errors with a pointer at the replacement, so stale
    # callers fail loudly instead of silently building the wrong request.

    def monte_carlo(self, *args, **kwargs):
        raise TypeError(
            "Engine.monte_carlo() was removed; build the request with "
            "EvalRequest.monte_carlo(adder, samples, ...) and call "
            "Engine.evaluate(request).stats")

    def exhaustive(self, *args, **kwargs):
        raise TypeError(
            "Engine.exhaustive() was removed; build the request with "
            "EvalRequest.exhaustive(adder, ...) and call "
            "Engine.evaluate(request).stats")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = self.cache.root if self.cache else None
        return (f"Engine(jobs={self.jobs}, cache={str(cache)!r}, "
                f"shard_samples={self.shard_samples})")


def _error_distance_bounds(adder) -> Tuple[int, Optional[int]]:
    """(d_max, max_ed_bound) exactly as compute_error_stats resolves them."""
    bound = getattr(adder, "max_error_distance", None)
    max_bound = int(bound()) if callable(bound) else None
    return (max_bound if max_bound else (1 << adder.width)), max_bound


# -- default engine ---------------------------------------------------------

_default_engine = Engine()


def get_default_engine() -> Engine:
    """The engine used by the legacy metric wrappers."""
    return _default_engine


def set_default_engine(engine: Engine) -> Engine:
    """Install ``engine`` as the process default; returns the previous one."""
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous


@contextlib.contextmanager
def use_engine(engine: Engine) -> Iterator[Engine]:
    """Scope ``engine`` as the default (the CLI wraps commands in this)."""
    previous = set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)


def evaluate(request: EvalRequest, engine: Optional[Engine] = None) -> EvalResult:
    """Evaluate ``request`` on ``engine`` (default: the process engine)."""
    return (engine or get_default_engine()).evaluate(request)
