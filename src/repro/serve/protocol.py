"""Wire protocol of the evaluation service.

Every body on the wire is JSON; the daemon's canonical encoding
(:func:`canonical_bytes` — two-space indent, sorted keys, trailing
newline) matches the CLI's ``--json`` output byte for byte, so a served
``/eval`` response can be ``cmp``-ed directly against the offline
engine's JSON for the same request at any worker count.

An ``/eval`` request names its adder by *reference* instead of shipping
a model object:

* ``{"adder": "gear_r2p2"}`` — a conformance-registry key at the
  default width,
* ``{"adder": {"family": "etaii", "width": 16}}`` — a registry key at
  an explicit width,
* ``{"adder": {"gear": [12, 4, 4]}}`` — an arbitrary GeAr(N, R, P)
  configuration,
* ``{"adder": {"spec": {...}}}`` — a full round-trippable
  :class:`~repro.spec.ir.AdderSpec` document (version 1 or 2; v2
  documents may declare static windows and a rectify stage, and a
  rectified spec's request digest never coalesces with its unrectified
  twin because the two fingerprints differ).

The remaining fields mirror :class:`~repro.engine.api.EvalRequest`:
``mode`` (``monte_carlo``/``exhaustive`` — ``fixed`` replays local
arrays and has no wire form), ``samples``, ``seed``, ``backend`` and
``thresholds``.  Resolution is memoised per process, so a warm worker
answers repeat references without rebuilding models or recompiling
kernels.

Malformed or unsupported requests raise :class:`ProtocolError`, which
the daemon maps to HTTP 400 with an ``{"error": ...}`` body.  An adder
wider than :data:`MAX_WIDTH` is one: references are resolved on the
daemon's event loop, and building a model costs time linear in its
width.

``gear verify`` and ``gear experiment`` call the same builders on argv,
so the CLI and the wire share every default and every refusal.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import api
from repro.spec.ir import _int_field
from repro.utils.validation import positive_count, seed_value

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_WIDTH",
    "MAX_WIDTH",
    "ProtocolError",
    "build_experiment",
    "build_request",
    "build_verify_options",
    "canonical_bytes",
    "eval_coalesce_key",
    "offline_eval_payload",
    "resolve_adder",
    "run_experiment",
    "wire_coalesce_key",
]

#: Version stamped into ``/healthz`` so clients can detect drift.
PROTOCOL_VERSION = 1

#: Adder width used when a reference does not name one.
DEFAULT_WIDTH = 8

#: Widest adder a wire body may name: four times the widest adder the
#: paper and the spec catalog evaluate (64 bits).
MAX_WIDTH = 256

#: Evaluation modes that have a wire form.
WIRE_MODES = ("monte_carlo", "exhaustive")

_EVAL_KEYS = {"adder", "mode", "samples", "seed", "backend", "thresholds"}
_VERIFY_KEYS = {"adders", "width", "layers", "samples", "seed", "backend"}
_EXPERIMENT_KEYS = {"name", "samples", "seed", "backend"}


class ProtocolError(ValueError):
    """A malformed or unsupported wire request (answered with HTTP 400)."""


def canonical_bytes(payload: Any) -> bytes:
    """The service's canonical JSON encoding of a response payload."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _integer_field(wire: Dict, key: str, default: Optional[int],
                   rule: Optional[Callable[[int], int]] = None) -> int:
    """An integer wire field under the spec IR's one integer rule
    (:func:`repro.spec.ir._int_field`): a bool or a non-integral number
    is a 400, an integral float such as ``6.0`` reads as 6.  ``rule`` is
    a count or seed rule the CLI's argparse types apply too.
    """
    try:
        value = _int_field(wire, key, default)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    if rule is not None:
        try:
            rule(value)
        except ValueError as exc:
            raise ProtocolError(f"field {key!r} {exc}") from None
    return value


def _width_field(wire: Dict, key: str, default: Optional[int]) -> int:
    """An integer width field no larger than :data:`MAX_WIDTH`."""
    width = _integer_field(wire, key, default)
    if width > MAX_WIDTH:
        raise ProtocolError(f"{key!r} must be at most {MAX_WIDTH}, "
                            f"got {width}")
    return width


def _backend_field(wire: Dict, key: str) -> str:
    from repro.engine.backends import check_backend_name

    try:
        return check_backend_name(str(wire[key]))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


#: The one reading of each optional request field; a field left out takes
#: the default of the ``EvalRequest``, ``VerifyOptions`` or ``run`` built.
_FIELDS: Dict[str, Callable[[Dict, str], Any]] = {
    "width": lambda wire, key: _width_field(wire, key, None),
    "samples": lambda wire, key: _integer_field(wire, key, None,
                                                positive_count),
    "seed": lambda wire, key: _integer_field(wire, key, None, seed_value),
    "backend": _backend_field,
}


def _given_fields(wire: Dict, *keys: str) -> Dict[str, Any]:
    return {key: _FIELDS[key](wire, key) for key in keys if key in wire}


# -- adder references --------------------------------------------------------

@functools.lru_cache(maxsize=512)
def _family_adder(key: str, width: int):
    from repro.verify.registry import registry_adder

    return registry_adder(key, width)


@functools.lru_cache(maxsize=512)
def _gear_adder(n: int, r: int, p: int):
    from repro.core.gear import GeArAdder, GeArConfig

    return GeArAdder(GeArConfig.from_triple(n, r, p))


@functools.lru_cache(maxsize=512)
def _spec_adder(document: str):
    from repro.spec.ir import AdderSpec

    spec = AdderSpec.from_dict(json.loads(document))
    if spec.width > MAX_WIDTH:
        raise ProtocolError(f"spec width must be at most {MAX_WIDTH}, "
                            f"got {spec.width}")
    return spec.to_model()


def resolve_adder(ref: Any):
    """Build (memoised) the adder model named by a wire reference."""
    try:
        if isinstance(ref, str):
            return _family_adder(ref, DEFAULT_WIDTH)
        if isinstance(ref, dict):
            if "family" in ref:
                return _family_adder(
                    str(ref["family"]),
                    _width_field(ref, "width", DEFAULT_WIDTH))
            if "gear" in ref:
                n, r, p = ref["gear"]
                gear = {"n": n, "r": r, "p": p}
                n = _width_field(gear, "n", None)
                r, p = (_integer_field(gear, key, None) for key in "rp")
                return _gear_adder(n, r, p)
            if "spec" in ref:
                return _spec_adder(json.dumps(ref["spec"], sort_keys=True))
    except ProtocolError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise ProtocolError(f"bad adder reference {ref!r}: {exc}") from exc
    raise ProtocolError(
        f"bad adder reference {ref!r}: expected a registry key, "
        "{'family': ..., 'width': ...}, {'gear': [n, r, p]} or "
        "{'spec': {...}}")


def _check_keys(wire: Dict, allowed: set, what: str) -> None:
    if not isinstance(wire, dict):
        raise ProtocolError(f"{what} body must be a JSON object, "
                            f"got {type(wire).__name__}")
    unknown = sorted(set(wire) - allowed)
    if unknown:
        raise ProtocolError(f"unknown {what} fields {unknown}; "
                            f"expected a subset of {sorted(allowed)}")


# -- /eval -------------------------------------------------------------------

def _thresholds_field(value: Any) -> Tuple[float, ...]:
    """MAA thresholds: a JSON list of finite numbers, booleans excluded.

    ``abs(t) <= float max`` also refuses NaN, infinities and integers
    too large to convert.
    """
    if isinstance(value, list) and all(
            type(t) in (int, float) and abs(t) <= sys.float_info.max
            for t in value):
        return tuple(float(t) for t in value)
    raise ProtocolError(f"bad thresholds: expected a list of finite "
                        f"numbers, got {value!r}")


def build_request(wire: Dict) -> "api.EvalRequest":
    """Turn an ``/eval`` wire body into an :class:`EvalRequest`."""
    _check_keys(wire, _EVAL_KEYS, "eval")
    if "adder" not in wire:
        raise ProtocolError("eval body needs an 'adder' reference")
    adder = resolve_adder(wire["adder"])
    mode = str(wire.get("mode", "monte_carlo"))
    if mode not in WIRE_MODES:
        raise ProtocolError(f"unknown mode {mode!r}; the wire protocol "
                            f"supports {WIRE_MODES}")
    kwargs = dict(_given_fields(wire, "backend"), adder=adder, mode=mode)
    if "thresholds" in wire:
        kwargs["maa_thresholds"] = _thresholds_field(wire["thresholds"])
    if mode == "monte_carlo":
        kwargs.update(_given_fields(wire, "samples"))
        # An explicit null seed asks for an unseeded draw.
        if "seed" in wire:
            kwargs["seed"] = (None if wire["seed"] is None
                              else _FIELDS["seed"](wire, "seed"))
    try:
        return api.EvalRequest(**kwargs)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def eval_coalesce_key(request: "api.EvalRequest") -> Optional[str]:
    """In-flight identity of an eval request: ``(fingerprint, backend, plan)``.

    The key is the engine's :func:`~repro.engine.api.request_digest`
    under the *resolved* backend, so two wire bodies coalesce exactly
    when the engine would compute identical statistics for both — and an
    ``auto`` request coalesces with the explicit spelling of whichever
    backend answers it.  None (an unseeded Monte-Carlo draw) disables
    coalescing for the request.
    """
    from repro.engine.backends import resolve_backend

    backend = resolve_backend(request)  # raises for unsupported requests
    digest = api.request_digest(request, backend=backend.name)
    return None if digest is None else f"eval:{digest}"


def offline_eval_payload(wire: Dict, engine=None) -> Dict:
    """Evaluate an ``/eval`` wire body: the worker's runner and the oracle.

    ``canonical_bytes(offline_eval_payload(wire))`` is byte-identical to
    the daemon's response body for the same wire request at any
    ``--workers`` value (the benchmark and the CI smoke job assert
    exactly this).
    """
    from repro.engine import evaluate

    return evaluate(build_request(wire), engine).to_json()


# -- /verify -----------------------------------------------------------------

def build_verify_options(wire: Dict) -> Tuple[Optional[List[str]], object]:
    """Turn a ``/verify`` wire body into ``(adder keys, VerifyOptions)``.

    Every request that could only verify nothing, or fail after some
    layers ran, is refused here: an empty ``adders`` list, named adders
    none of which is defined at ``width``, ``layers`` that is not a
    non-empty list of distinct layer names, an unknown ``backend``, and
    a ``width``/``seed``/``samples`` outside its rule (a bool, a fraction,
    a width above 62, a negative seed, a sample count below 1).
    """
    from repro.verify import LAYERS, VerifyOptions, default_registry

    _check_keys(wire, _VERIFY_KEYS, "verify")
    adders = wire.get("adders")
    if adders is not None:
        if (not isinstance(adders, list) or not adders
                or not all(isinstance(a, str) for a in adders)):
            raise ProtocolError("'adders' must be a non-empty list of "
                                "registry keys (omit it to verify them all)")
        registry = default_registry()
        unknown = sorted(set(adders) - set(registry))
        if unknown:
            raise ProtocolError(f"unknown adders {unknown}; known: "
                                f"{', '.join(sorted(registry))}")
    fields = _given_fields(wire, "width", "seed", "samples", "backend")
    if "layers" in wire:
        layers = wire["layers"]
        if (not isinstance(layers, list) or not layers
                or not all(isinstance(layer, str) for layer in layers)
                or len(set(layers)) != len(layers)):
            raise ProtocolError(f"'layers' must be a non-empty list of "
                                f"distinct layer names from {list(LAYERS)}")
        fields["layers"] = tuple(layers)
    try:
        options = VerifyOptions(**fields)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from exc
    if adders is not None and not any(
            registry[key].supports(options.width) for key in adders):
        raise ProtocolError(
            f"no registered adder supports width {options.width}")
    return adders, options


# -- /experiment -------------------------------------------------------------

def build_experiment(wire: Dict) -> Tuple[str, Dict]:
    """Turn an ``/experiment`` wire body into ``(name, run kwargs)``;
    a null field counts as absent."""
    from repro.experiments import EXPERIMENTS

    _check_keys(wire, _EXPERIMENT_KEYS, "experiment")
    name = wire.get("name")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ProtocolError(f"unknown experiment {name!r}; registered: "
                            f"{', '.join(sorted(EXPERIMENTS))}")
    given = {key: value for key, value in wire.items() if value is not None}
    return name, _given_fields(given, "samples", "seed", "backend")


def run_experiment(wire: Dict, engine):
    """Run an ``/experiment`` wire body: the one experiment runner,
    whose result the CLI renders and the daemon encodes."""
    from repro.engine import use_engine
    from repro.experiments import EXPERIMENTS

    name, kwargs = build_experiment(wire)
    with use_engine(engine):
        return EXPERIMENTS[name].run(engine=engine, **kwargs)


# -- generic coalescing ------------------------------------------------------

def wire_coalesce_key(endpoint: str, wire: Dict) -> str:
    """Coalescing key for endpoints keyed by their literal wire body.

    ``/verify`` and ``/experiment`` runs are deterministic functions of
    their normalized body, so the canonical-JSON digest is a sound
    in-flight identity (two spellings of the same work that differ
    textually simply coalesce separately — a missed optimisation, never
    a wrong answer).
    """
    digest = hashlib.sha256(
        json.dumps(wire, sort_keys=True).encode()).hexdigest()
    return f"{endpoint}:{digest}"
