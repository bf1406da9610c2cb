"""Public request/result types of the evaluation engine.

Every accuracy evaluation in the library — Monte-Carlo sampling,
exhaustive enumeration, or scoring a pair of precomputed output arrays —
is expressed as one :class:`EvalRequest` and answered with one
:class:`EvalResult`.  Convenience helpers such as
:func:`repro.metrics.exhaustive.exhaustive_stats` are thin wrappers that
build a request, hand it to the default :class:`~repro.engine.Engine`
and unpack the result.

``METRICS_VERSION`` participates in every cache key: bump it whenever the
semantics of :class:`~repro.metrics.error_metrics.ErrorStats` or the
shard partials change, and every previously cached shard is invalidated
at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.error_metrics import TABLE1_MAA_THRESHOLDS, ErrorStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adders.base import AdderModel
    from repro.utils.distributions import OperandDistribution

#: Version of the metric definitions baked into cached shard partials.
METRICS_VERSION = 1

#: Evaluation modes understood by the engine.
MODES = ("monte_carlo", "exhaustive", "fixed")

#: The backend pseudo-name that defers the sampling/analytic choice to
#: :func:`repro.engine.backends.resolve_backend`.
AUTO_BACKEND = "auto"


def fingerprint_adder(adder: "AdderModel") -> str:
    """Stable identity of an adder for cache keying.

    Prefers the adder's own :meth:`~repro.adders.base.AdderModel.fingerprint`
    and falls back to class/width/name for foreign model objects.
    """
    fp = getattr(adder, "fingerprint", None)
    if callable(fp):
        return str(fp())
    return f"{type(adder).__module__}.{type(adder).__qualname__}:w{adder.width}:{adder.name}"


def fingerprint_distribution(dist: Optional["OperandDistribution"]) -> str:
    """Stable identity of an operand distribution (``uniform`` if None)."""
    if dist is None:
        return "uniform:default"
    fp = getattr(dist, "fingerprint", None)
    if callable(fp):
        return str(fp())
    return f"{type(dist).__module__}.{type(dist).__qualname__}:w{dist.width}"


def digest_arrays(*arrays: np.ndarray) -> str:
    """Content hash of the fixed-mode output arrays."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class EvalRequest:
    """One unit of evaluation work for the engine.

    Attributes:
        adder: adder model under evaluation.
        mode: ``monte_carlo`` (random operand pairs), ``exhaustive``
            (every operand pair of the adder's width) or ``fixed``
            (score the supplied ``approx_values``/``exact_reference``).
        samples: Monte-Carlo sample count (ignored for other modes).
        seed: root RNG seed; per-shard streams are spawned from it so the
            merged result is independent of worker count and chunking.
        distribution: operand distribution (default: uniform).
        maa_thresholds: MAA acceptance thresholds to evaluate.
        chunk: execution batching hint — maximum samples handed to one
            worker task.  Never affects the result, only scheduling.
        approx_values / exact_reference: fixed-mode output arrays.
        backend: evaluation backend — a name registered in
            :data:`repro.engine.backends.BACKENDS` (``sampling`` runs the
            sharded simulator, ``analytic`` solves the exact error PMF)
            or ``auto``, which picks ``analytic`` whenever the request is
            a block-based spec it can solve and falls back to sampling
            otherwise.
    """

    adder: "AdderModel"
    mode: str = "monte_carlo"
    samples: Optional[int] = 10_000
    seed: Optional[int] = 2015
    distribution: Optional["OperandDistribution"] = None
    maa_thresholds: Tuple[float, ...] = TABLE1_MAA_THRESHOLDS
    chunk: Optional[int] = None
    approx_values: Optional[np.ndarray] = None
    exact_reference: Optional[np.ndarray] = None
    backend: str = "sampling"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        from repro.engine.backends import check_backend_name

        check_backend_name(self.backend)
        object.__setattr__(self, "maa_thresholds", tuple(self.maa_thresholds))
        if self.mode == "monte_carlo":
            if self.samples is None or self.samples <= 0:
                raise ValueError("monte_carlo mode needs a positive sample count")
        if self.mode == "fixed":
            if self.approx_values is None or self.exact_reference is None:
                raise ValueError(
                    "fixed mode needs both approx_values and exact_reference"
                )
            a = np.asarray(self.approx_values)
            e = np.asarray(self.exact_reference)
            if a.shape != e.shape:
                raise ValueError("approximate and exact outputs must align")
            if a.size == 0:
                raise ValueError("no samples provided")

    @property
    def width(self) -> int:
        return self.adder.width

    # -- constructors -------------------------------------------------------
    #
    # The classmethods below are the supported way to build requests for
    # the three modes; they replaced the old ``Engine.monte_carlo()`` /
    # ``Engine.exhaustive()`` convenience methods (removed after their
    # deprecation window — the engine raises TypeError pointing here)
    # so that request construction is independent of any engine instance.

    @classmethod
    def monte_carlo(
        cls,
        adder: "AdderModel",
        samples: int,
        *,
        seed: Optional[int] = 2015,
        distribution: Optional["OperandDistribution"] = None,
        maa_thresholds: Sequence[float] = TABLE1_MAA_THRESHOLDS,
        chunk: Optional[int] = None,
        backend: str = "sampling",
    ) -> "EvalRequest":
        """Request for ``samples`` random operand pairs."""
        return cls(adder=adder, mode="monte_carlo", samples=samples,
                   seed=seed, distribution=distribution,
                   maa_thresholds=tuple(maa_thresholds), chunk=chunk,
                   backend=backend)

    @classmethod
    def exhaustive(
        cls,
        adder: "AdderModel",
        *,
        maa_thresholds: Sequence[float] = TABLE1_MAA_THRESHOLDS,
        chunk: Optional[int] = None,
        backend: str = "sampling",
    ) -> "EvalRequest":
        """Request covering every operand pair of the adder's width."""
        return cls(adder=adder, mode="exhaustive",
                   maa_thresholds=tuple(maa_thresholds), chunk=chunk,
                   backend=backend)

    @classmethod
    def fixed(
        cls,
        adder: "AdderModel",
        approx_values: np.ndarray,
        exact_reference: np.ndarray,
        *,
        maa_thresholds: Sequence[float] = TABLE1_MAA_THRESHOLDS,
        chunk: Optional[int] = None,
    ) -> "EvalRequest":
        """Request scoring precomputed approximate/exact output arrays.

        Fixed mode replays recorded data, so it has no analytic form and
        always runs on the sampling backend.
        """
        return cls(adder=adder, mode="fixed", approx_values=approx_values,
                   exact_reference=exact_reference,
                   maa_thresholds=tuple(maa_thresholds), chunk=chunk)


@dataclass(frozen=True)
class EvalResult:
    """Merged statistics plus the engine's execution trace for one request.

    ``shards_executed + shards_cached == shards_total`` always holds; a
    fully warm cache shows ``shards_executed == 0``.
    """

    stats: ErrorStats
    mode: str
    adder_name: str
    adder_fingerprint: str
    shards_total: int
    shards_executed: int
    shards_cached: int
    jobs: int
    elapsed_s: float
    shard_timings: Tuple[float, ...] = field(default_factory=tuple)

    @property
    def cache_hit_rate(self) -> float:
        if self.shards_total == 0:
            return 0.0
        return self.shards_cached / self.shards_total

    def to_json(self) -> dict:
        """JSON-safe summary (deterministic fields only; no timings)."""
        stats = self.stats
        return {
            "mode": self.mode,
            "adder": self.adder_name,
            "samples": stats.samples,
            "error_rate": stats.error_rate,
            "med": stats.med,
            "ned": stats.ned,
            "mred": stats.mred,
            "max_ed_observed": stats.max_ed_observed,
            "max_ed_bound": stats.max_ed_bound,
            "acc_amp_avg": stats.acc_amp_avg,
            "acc_inf_avg": stats.acc_inf_avg,
            "maa_acceptance": {str(t): v for t, v in
                               sorted(stats.maa_acceptance.items())},
            "shards": self.shards_total,
        }


def request_key_material(request: EvalRequest,
                         backend: str = "sampling") -> dict:
    """The seed-free identity of a request under a backend (JSON-safe dict).

    It is the analytic backend's cache key as is; the sharded backends add
    the shard granularity and root seed entropy (:mod:`repro.engine.cache`).

    ``backend`` is the *resolved* backend name (an ``auto`` request keys
    under whichever backend actually answers it), so analytic PMFs and
    sampled partials can never collide; analytic entries additionally
    carry :data:`~repro.engine.analytic.ANALYTIC_VERSION` so a change to
    the DP formulation invalidates them without touching sampled shards.
    """
    material = {
        "v": METRICS_VERSION,
        "backend": backend,
        "mode": request.mode,
        "adder": fingerprint_adder(request.adder),
        "thresholds": [float(t) for t in request.maa_thresholds],
    }
    if backend == "analytic":
        from repro.engine.analytic import ANALYTIC_VERSION

        material["analytic_v"] = ANALYTIC_VERSION
    if request.mode == "monte_carlo":
        material["dist"] = fingerprint_distribution(request.distribution)
        material["samples"] = int(request.samples or 0)
    if request.mode == "fixed":
        material["data"] = digest_arrays(request.approx_values,
                                         request.exact_reference)
    return material


def key_digest(material: dict) -> str:
    """Content address of a cache key dict."""
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()


def request_digest(request: EvalRequest,
                   backend: str = "sampling") -> Optional[str]:
    """Full result identity of a request under a *resolved* backend.

    Like the sharded backends' cache keys this folds the root seed in,
    so two requests share a digest iff the engine is guaranteed to
    merge them to the same :class:`EvalResult` statistics — the
    coalescing key of the :mod:`repro.serve` daemon.  Returns None when
    the request has no stable identity (``monte_carlo`` with a None seed
    draws fresh OS entropy per evaluation, so nothing may be coalesced
    or reused).
    """
    if request.mode == "monte_carlo" and request.seed is None:
        return None
    material = request_key_material(request, backend=backend)
    if request.mode == "monte_carlo":
        material["seed"] = int(request.seed)
    return key_digest(material)
