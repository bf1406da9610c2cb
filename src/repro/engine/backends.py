"""Pluggable evaluation backends behind :meth:`Engine.evaluate`.

A *backend* answers an :class:`~repro.engine.api.EvalRequest` with an
:class:`~repro.engine.api.EvalResult`; the engine owns scheduling,
caching and telemetry plumbing, the backend owns the mathematics:

* ``sampling`` — the sharded simulator (Monte-Carlo / exhaustive /
  fixed replay) that has always backed the engine.  Supports every
  request.
* ``analytic`` — the exact error-PMF solver of
  :mod:`repro.engine.analytic`.  Supports block-based adders (anything
  carrying an :class:`~repro.spec.ir.AdderSpec`, plus non-overridden
  :class:`~repro.adders.base.WindowedSpeculativeAdder` subclasses) in
  Monte-Carlo mode with a per-bit-independent distribution, or in
  exhaustive mode; ``fixed`` replay has no analytic form.
* ``compiled`` — the same sharded simulator, but every sum computed by
  the bit-sliced gate-level kernel of :mod:`repro.rtl.compile` instead
  of the behavioural model.  Supports any netlist-bearing adder outside
  ``fixed`` mode.

Requests name their backend (``EvalRequest.backend``); the pseudo-name
``auto`` resolves to ``analytic`` when the request is solvable and falls
back to ``sampling``.  Asking explicitly for a backend that cannot serve
the request raises :class:`~repro.engine.analytic.AnalyticUnsupported`
rather than silently degrading.

Third-party backends plug in through :func:`register_backend`; the
registry key becomes a valid ``EvalRequest.backend`` value and is folded
into every cache key via :func:`repro.engine.api.request_key_material`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Dict, Optional, Protocol, runtime_checkable

from repro import obs
from repro.engine import api
from repro.engine.analytic import (
    ANALYTIC_VERSION,
    AnalyticUnsupported,
    ErrorPMF,
    adder_error_pmf,
    analytic_layout,
    bit_probability_profile,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.api import EvalRequest, EvalResult
    from repro.engine.core import Engine

__all__ = [
    "BACKENDS",
    "AnalyticBackend",
    "Backend",
    "CompiledBackend",
    "SamplingBackend",
    "register_backend",
    "resolve_backend",
]


@runtime_checkable
class Backend(Protocol):
    """What the engine needs from an evaluation backend."""

    name: str

    def supports(self, request: "EvalRequest") -> bool:
        """Can this backend answer the request exactly as posed?"""
        ...

    def evaluate(self, request: "EvalRequest",
                 engine: "Engine") -> "EvalResult":
        """Answer the request, using the engine for cache/jobs plumbing."""
        ...


class SamplingBackend:
    """The sharded simulator — universal fallback for every request."""

    name = "sampling"

    def supports(self, request: "EvalRequest") -> bool:
        return True

    def evaluate(self, request: "EvalRequest",
                 engine: "Engine") -> "EvalResult":
        return engine._run_sampling(request)


class AnalyticBackend:
    """Exact error-PMF evaluation for block-based adders.

    The PMF itself is cached as a single entry under the request's
    backend-qualified digest (see
    :func:`repro.engine.api.request_key_material`), so a warm cache
    answers repeat analytic requests without re-running the DP — and can
    never be confused with sampled shard partials.
    """

    name = "analytic"

    def supports(self, request: "EvalRequest") -> bool:
        return self.why_unsupported(request) is None

    def why_unsupported(self, request: "EvalRequest") -> Optional[str]:
        """Human-readable reason the request has no analytic form (or None)."""
        if request.mode == "fixed":
            return ("fixed mode replays recorded output arrays; there is "
                    "nothing to solve analytically")
        if analytic_layout(request.adder) is None:
            return (f"adder {request.adder.name!r} is not a pure block-based "
                    "windowed adder")
        if (request.mode == "monte_carlo" and request.distribution is not None
                and request.distribution.bit_probabilities() is None):
            return (f"{type(request.distribution).__name__} has no per-bit "
                    "independent form")
        return None

    def evaluate(self, request: "EvalRequest",
                 engine: "Engine") -> "EvalResult":
        start = time.perf_counter()
        reason = self.why_unsupported(request)
        if reason is not None:
            raise AnalyticUnsupported(reason)
        cacheable = engine.cache is not None and engine._cacheable(request)
        digest = None
        pmf: Optional[ErrorPMF] = None
        cached = False
        if cacheable:
            material = api.request_key_material(request, backend=self.name)
            digest = api.key_digest(material)
            payload = engine.cache.load_payload(digest)
            if (payload is not None
                    and payload.get("analytic_v") == ANALYTIC_VERSION):
                try:
                    pmf = ErrorPMF.from_dict(payload["pmf"])
                    cached = True
                except (KeyError, TypeError, ValueError):
                    pmf = None
        if pmf is None:
            profile = bit_probability_profile(
                request.distribution, request.width, request.mode)
            with obs.span("engine.analytic.solve"):
                pmf = adder_error_pmf(request.adder, bit_one=profile)
            if cacheable:
                engine.cache.store_payload(digest, {
                    "version": api.METRICS_VERSION,
                    "analytic_v": ANALYTIC_VERSION,
                    "pmf": pmf.to_dict(),
                })
        obs.observe("engine.analytic.support", float(len(pmf.support)),
                    bounds=obs.SIZE_BOUNDS)
        from repro.engine.core import _error_distance_bounds

        _, max_bound = _error_distance_bounds(request.adder)
        stats = pmf.to_error_stats(maa_thresholds=request.maa_thresholds,
                                   max_ed_bound=max_bound)
        return api.EvalResult(
            stats=stats,
            mode=request.mode,
            adder_name=request.adder.name,
            adder_fingerprint=api.fingerprint_adder(request.adder),
            shards_total=1,
            shards_executed=0 if cached else 1,
            shards_cached=1 if cached else 0,
            jobs=1,
            elapsed_s=time.perf_counter() - start,
        )


class CompiledBackend:
    """Sampling over the bit-sliced compiled netlist kernel.

    Substitutes a :class:`repro.rtl.compile.CompiledAdder` for the
    behavioural model and reuses the entire sharded sampling pipeline —
    shard planning, per-shard seed streams, partial merging, the on-disk
    cache — so results are ``--jobs``-invariant exactly like plain
    sampling.  Shard partials are keyed under ``backend="compiled"`` (and
    the proxy's own ``compiled/v…`` fingerprint), so they can never be
    confused with behavioural sampling partials.
    """

    name = "compiled"

    def supports(self, request: "EvalRequest") -> bool:
        return self.why_unsupported(request) is None

    def why_unsupported(self, request: "EvalRequest") -> Optional[str]:
        """Why the request cannot run on the compiled kernel (or None)."""
        if request.mode == "fixed":
            return ("fixed mode replays recorded output arrays; there is "
                    "no netlist to simulate")
        from repro.rtl.compile import compiled_kernel

        # Compiling is the support check: the kernel is cached under the
        # adder's fingerprint, so evaluate() and every shard reuse it.
        try:
            compiled_kernel(request.adder)
        except ValueError as exc:
            return str(exc)
        return None

    def evaluate(self, request: "EvalRequest",
                 engine: "Engine") -> "EvalResult":
        reason = self.why_unsupported(request)
        if reason is not None:
            raise AnalyticUnsupported(reason)
        from repro.rtl.compile import CompiledAdder

        proxied = dataclasses.replace(request,
                                      adder=CompiledAdder(request.adder))
        return engine._run_sampling(proxied, backend_name=self.name)


#: Registered backends by name; ``EvalRequest.backend`` validates against
#: this mapping (plus the ``auto`` pseudo-name).
BACKENDS: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add a backend to the registry (overwriting any same-named one)."""
    if backend.name == api.AUTO_BACKEND:
        raise ValueError(f"{api.AUTO_BACKEND!r} is reserved for deferred "
                         "backend resolution")
    BACKENDS[backend.name] = backend
    return backend


register_backend(SamplingBackend())
register_backend(AnalyticBackend())
register_backend(CompiledBackend())


def resolve_backend(request: "EvalRequest") -> Backend:
    """Map a request to the backend that will answer it.

    ``auto`` prefers ``analytic`` whenever it supports the request and
    falls back to ``sampling``; a named backend must support the request
    or :class:`AnalyticUnsupported` is raised.
    """
    if request.backend == api.AUTO_BACKEND:
        analytic = BACKENDS["analytic"]
        if analytic.supports(request):
            return analytic
        return BACKENDS["sampling"]
    backend = BACKENDS[request.backend]
    if not backend.supports(request):
        why = getattr(backend, "why_unsupported", None)
        reason = why(request) if callable(why) else None
        detail = f": {reason}" if reason else ""
        raise AnalyticUnsupported(
            f"backend {backend.name!r} cannot evaluate this request{detail}")
    return backend
