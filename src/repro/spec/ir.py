"""The declarative adder IR: one frozen description compiled into every layer.

The paper's central observation (§2, Eq. 1-3) is that GeAr, ACA-I/II,
ETAII and GDA are all *the same object* — an ordered layout of speculative
sub-adder windows over the operand word.  :class:`AdderSpec` freezes that
object into data:

* an ordered tuple of :class:`WindowSpec` (geometry + per-window sub-adder
  architecture + carry-prediction realisation).  Since version 2 a window
  has a ``kind``: ``speculative`` windows predict their carry-in,
  ``static`` windows carry a fixed gate-level approximation of the low
  bits (LOA's OR reduction, HOERAA's OR-plus-half-adder) instead,
* an optional LOA-style truncation (low bits reduced to OR gates — the
  version-1 spelling of a ``static``/``or`` window, kept for
  compatibility),
* an error-detection flag (§3.3 ``ERR`` outputs in the compiled netlist),
* an optional :class:`RectifySpec` stage (version 2): a declared
  post-correction that adds each enabled window's §3.3 flag back at its
  ``result_low``, generalising :class:`repro.core.correction.ErrorCorrector`
  into a pipeline stage with its own gate-level latency/area contribution.

One spec compiles into each layer of the library:

* :meth:`AdderSpec.to_model` — the behavioural/vectorised
  :class:`~repro.spec.model.SpecAdder`, the one model class of every spec,
* :meth:`AdderSpec.to_netlist` — the gate-level netlist, through the one
  generic window compiler :func:`repro.rtl.builders.build_spec`,
* :meth:`AdderSpec.max_error_distance` — the worst-case error bound
  (EP/MED come from the model; the exact error PMF of any spec is
  :func:`repro.engine.analytic.adder_error_pmf` of its model),
* :meth:`AdderSpec.fingerprint` — the stable identity the engine's shard
  cache and the conformance registry key on.  Specs that use no
  version-2 feature keep their byte-identical ``spec/v1:`` fingerprint
  across the version bump; static windows and rectify stages mint
  disjoint ``spec/v2:`` keys.

Specs are JSON round-trippable (:meth:`AdderSpec.to_json` /
:meth:`AdderSpec.from_json`); version-1 documents migrate forward
transparently.  See ``docs/spec.md`` for the field reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.utils.validation import check_pos_int

#: IR schema version, embedded in JSON documents and fingerprints.  A spec
#: only stamps (and fingerprints) version 2 when it uses a version-2
#: feature, so unchanged version-1 shapes keep their cache identity.
SPEC_VERSION = 2

#: Document versions :meth:`AdderSpec.from_dict` understands.
SUPPORTED_SPEC_VERSIONS = (1, 2)

#: Window kinds.  ``speculative`` windows compute a sub-adder sum with a
#: (possibly empty) carry prediction; ``static`` windows replace their bits
#: with a fixed gate-level approximation and exist only as the first
#: window of a spec.
KINDS = ("speculative", "static")

#: Fixed approximations a static window can carry.  ``or`` is LOA's rule
#: (every sum bit is ``a | b``); ``hoeraa`` keeps OR for all but the top
#: static bit, which becomes a half-adder sum ``a ^ b`` (Balasubramanian &
#: Maskell's HOERAA).  Both feed ``a & b`` of the top static bit into the
#: window part as its carry-in.
STATIC_APPROX = ("or", "hoeraa")

#: Rectification realisations.  ``ripple`` adds the flag word with a sparse
#: ripple chain from the lowest enabled tap to the sum MSB.
RECTIFY_KINDS = ("ripple",)


def _document(data: Any, what: str) -> Dict[str, Any]:
    """``data`` as a JSON object, or a ValueError naming ``what``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, "
                         f"got {type(data).__name__}")
    return data


def _int_field(data: Dict[str, Any], key: str, *default: Any) -> int:
    """The integer ``data[key]``: a missing field, a bool or a non-integral
    number is a ValueError.  An integral float such as ``6.0`` reads as 6.
    """
    value = _typed_field(data, key, object, *default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _typed_field(data: Dict[str, Any], key: str, kind: type,
                 *default: Any) -> Any:
    """``data[key]``, which must be a ``kind``; a missing or mistyped field
    is a ValueError."""
    if key not in data and not default:
        raise ValueError(f"missing field {key!r}")
    value = data.get(key, *default)
    if not isinstance(value, kind):
        raise ValueError(
            f"field {key!r} must be a {kind.__name__}, got {value!r}")
    return value


#: Sub-adder architectures the window compiler knows how to build.
ARCHS = ("rca", "cla", "ksa")

#: Carry-prediction realisations.  ``fused`` folds the prediction bits into
#: the window's own sub-adder (GeAr/ACA style: one chain, low sums dropped);
#: ``gen_rca``/``gen_cla`` build a physically separate carry generator over
#: the prediction bits feeding a sum unit (ETAII's ripple generators, GDA's
#: lookahead predictors).  The choice never changes the computed sum — only
#: the hardware structure (and therefore area/delay, Table I/II).
PREDS = ("fused", "gen_rca", "gen_cla")

_GEN_PREDS = ("gen_rca", "gen_cla")


@dataclass(frozen=True)
class WindowSpec:
    """One window of an :class:`AdderSpec`.

    The geometry fields say which operand bits the window reads
    (``low``/``high``) and which sum bits it drives (``result_low``/
    ``result_high``); ``result_low - low`` is the carry-prediction depth.
    The window adds ``A[high:low] + B[high:low]`` with carry-in 0 (or the
    fixed low part's carry, for the first window above one) and drives
    its local sum bits ``[result_low-low .. result_high-low]``.  ``arch``
    selects the sub-adder implementation and ``pred`` how the prediction
    bits are realised in hardware.

    ``kind`` distinguishes ordinary ``speculative`` windows from ``static``
    ones: a static window drives exactly the bits it reads with the fixed
    approximation named by ``approx`` and has no sub-adder at all.

    Constraints beyond the plain geometry:

    * ``high == result_high`` — a window never reads above the bits it
      drives (reading more would compile to dead logic),
    * ``pred != "fused"`` requires ``prediction_bits >= 1`` (a separate
      generator over zero bits is meaningless) and ``arch == "rca"`` (only
      the ripple sum unit accepts an external carry-in),
    * exact windows (``prediction_bits == 0``) are always ``fused``,
    * static windows have ``prediction_bits == 0``, a valid ``approx`` and
      default ``arch``/``pred`` (there is no sub-adder to configure);
      speculative windows must leave ``approx`` unset.
    """

    low: int
    high: int
    result_low: int
    result_high: int
    arch: str = "rca"
    pred: str = "fused"
    kind: str = "speculative"
    approx: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.result_low <= self.result_high <= self.high:
            raise ValueError(
                f"inconsistent window: low={self.low}, high={self.high}, "
                f"result=[{self.result_low}, {self.result_high}]"
            )
        if self.high != self.result_high:
            raise ValueError(
                f"window reads up to bit {self.high} but drives only up to "
                f"{self.result_high}; the extra bits would be dead logic"
            )
        if self.kind not in KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}; "
                             f"use one of {KINDS}")
        if self.arch not in ARCHS:
            raise ValueError(f"unknown arch {self.arch!r}; use one of {ARCHS}")
        if self.pred not in PREDS:
            raise ValueError(f"unknown pred {self.pred!r}; use one of {PREDS}")
        if self.kind == "static":
            if self.approx not in STATIC_APPROX:
                raise ValueError(
                    f"unknown static approximation {self.approx!r}; "
                    f"use one of {STATIC_APPROX}"
                )
            if self.prediction_bits:
                raise ValueError(
                    "a static window drives exactly the bits it reads; "
                    "result_low must equal low"
                )
            if self.arch != "rca" or self.pred != "fused":
                raise ValueError(
                    "a static window has no sub-adder; leave arch and pred "
                    "at their defaults"
                )
        elif self.approx is not None:
            raise ValueError(
                f"approx={self.approx!r} applies only to kind='static' windows"
            )
        if self.pred in _GEN_PREDS:
            if self.prediction_bits == 0:
                raise ValueError(
                    f"pred={self.pred!r} needs at least one prediction bit"
                )
            if self.arch != "rca":
                raise ValueError(
                    f"pred={self.pred!r} needs arch='rca': only the ripple "
                    "sum unit accepts the generator's carry-in"
                )

    # -- derived geometry (paper notation) ----------------------------------

    @property
    def length(self) -> int:
        """Operand bits the window reads (the sub-adder length L)."""
        return self.high - self.low + 1

    @property
    def prediction_bits(self) -> int:
        """Carry-prediction depth (paper's P; 0 for the first window)."""
        return self.result_low - self.low

    @property
    def result_bits(self) -> int:
        """Result bits the window contributes (paper's R)."""
        return self.result_high - self.result_low + 1

    @property
    def is_static(self) -> bool:
        """True for a fixed-approximation (non-speculative) window."""
        return self.kind == "static"

    def to_dict(self) -> Dict[str, Any]:
        data = {"low": self.low, "high": self.high,
                "result_low": self.result_low,
                "result_high": self.result_high,
                "arch": self.arch, "pred": self.pred}
        if self.kind != "speculative":
            data["kind"] = self.kind
            data["approx"] = self.approx
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WindowSpec":
        known = {"low", "high", "result_low", "result_high", "arch", "pred",
                 "kind", "approx"}
        unknown = set(_document(data, "a window")) - known
        if unknown:
            raise ValueError(f"unknown window fields {sorted(unknown)}")
        approx = data.get("approx")
        return cls(low=_int_field(data, "low"), high=_int_field(data, "high"),
                   result_low=_int_field(data, "result_low"),
                   result_high=_int_field(data, "result_high"),
                   arch=_typed_field(data, "arch", str, "rca"),
                   pred=_typed_field(data, "pred", str, "fused"),
                   kind=_typed_field(data, "kind", str, "speculative"),
                   approx=None if approx is None
                   else _typed_field(data, "approx", str))


@dataclass(frozen=True)
class RectifySpec:
    """A declared post-correction stage fed by the §3.3 ``ERR`` flags.

    Rectification adds each enabled window's detection flag back into the
    sum at that window's ``result_low`` — exactly the repair
    :class:`repro.core.correction.ErrorCorrector` performs behaviourally,
    but declared in the IR so the netlist compiler emits it as a pipeline
    stage (a sparse ripple increment with its own latency and area) and
    the analytic DP models it exactly.

    ``enabled`` names the rectified speculative window indices (``1`` is
    the first window that can err); ``None`` rectifies every speculative
    window, which provably makes an ``error_detect`` spec exact.
    """

    kind: str = "ripple"
    enabled: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in RECTIFY_KINDS:
            raise ValueError(f"unknown rectify kind {self.kind!r}; "
                             f"use one of {RECTIFY_KINDS}")
        if self.enabled is not None:
            object.__setattr__(
                self, "enabled", tuple(int(i) for i in self.enabled))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.enabled is not None:
            data["enabled"] = list(self.enabled)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RectifySpec":
        known = {"kind", "enabled"}
        unknown = set(_document(data, "rectify")) - known
        if unknown:
            raise ValueError(f"unknown rectify fields {sorted(unknown)}")
        enabled = data.get("enabled")
        if enabled is not None:
            enabled = tuple(
                _int_field({"enabled": i}, "enabled")
                for i in _typed_field(data, "enabled", list))
        return cls(kind=_typed_field(data, "kind", str, "ripple"),
                   enabled=enabled)


@dataclass(frozen=True)
class AdderSpec:
    """A complete declarative adder description (frozen, hashable).

    Attributes:
        name: identifier used for the compiled netlist module, the
            behavioural model and the fingerprint.  Must be a valid
            Verilog/netlist identifier.
        width: operand width N.
        windows: ordered window layout driving bits ``truncation..N-1``.
            A ``static`` window may appear only first, anchors at bit 0,
            and replaces ``truncation`` (the two spellings are mutually
            exclusive).
        truncation: LOA-style approximation — the low ``truncation`` sum
            bits are ``a | b`` and the carry into the window part is
            ``a & b`` of the top truncated bit.  0 disables.
        error_detect: compile the §3.3 ``ERR`` detection flags into the
            netlist (one AND of predicted-carry and previous carry-out per
            speculative window).  Requires a truncation-free, static-free,
            all-``fused`` speculative layout.
        rectify: optional declared post-correction stage adding enabled
            windows' flags back into the sum (requires ``error_detect``).
    """

    name: str
    width: int
    windows: Tuple[WindowSpec, ...]
    truncation: int = 0
    error_detect: bool = False
    rectify: Optional[RectifySpec] = None

    def __post_init__(self) -> None:
        check_pos_int("width", self.width)
        object.__setattr__(self, "windows", tuple(self.windows))
        if not all(isinstance(w, WindowSpec) for w in self.windows):
            raise TypeError("windows must be WindowSpec instances")
        if not self.name or not all(c.isalnum() or c == "_" for c in self.name):
            raise ValueError(
                f"spec name {self.name!r} is not a valid identifier"
            )
        t = self.truncation
        if not 0 <= t < self.width:
            raise ValueError(
                f"truncation must be in [0, {self.width}), got {t}"
            )
        if not self.windows:
            raise ValueError("at least one window is required")
        if any(w.is_static for w in self.windows[1:]):
            raise ValueError(
                "only the first window may be static (it is the fixed "
                "approximation of the low bits)"
            )
        static = self.windows[0] if self.windows[0].is_static else None
        if static is not None:
            if t:
                raise ValueError(
                    "a static window and truncation both approximate the "
                    "low bits; declare one or the other"
                )
            if static.low != 0:
                raise ValueError("a static window must start at bit 0")
            if len(self.windows) < 2:
                raise ValueError(
                    "a static window needs at least one speculative window "
                    "above it"
                )
        body = self.body
        boundary = self.low_bits
        if min(w.low for w in body) < boundary:
            where = "static" if static else "truncation"
            raise ValueError(
                f"windows must not read below the {where} boundary {boundary}"
            )
        expected_low = boundary
        for i, w in enumerate(body):
            if w.result_low != expected_low:
                raise ValueError(
                    f"window {i} drives bits from {w.result_low}, "
                    f"expected {expected_low}"
                )
            if w.high >= self.width:
                raise ValueError(f"window {i} reads bit {w.high} beyond "
                                 f"width {self.width}")
            expected_low = w.result_high + 1
        if expected_low != self.width:
            raise ValueError(f"windows drive bits up to {expected_low - 1}, "
                             f"need {self.width - 1}")
        first = body[0]
        if first.prediction_bits != 0:
            raise ValueError("the first window must not predict a carry")
        if boundary and first.arch != "rca":
            raise ValueError(
                "the approximated low part feeds its carry into the first "
                "window, which must therefore be a ripple ('rca') sub-adder"
            )
        if self.error_detect:
            if t:
                raise ValueError("error_detect is incompatible with truncation")
            if static is not None:
                raise ValueError(
                    "error_detect is incompatible with a static low part "
                    "(an OR-reduced window has no carry-out to check)"
                )
            if len(self.windows) < 2:
                raise ValueError(
                    "error_detect needs at least one speculative window"
                )
            for i, w in enumerate(self.windows[1:], start=1):
                if w.pred != "fused" or w.prediction_bits < 1:
                    raise ValueError(
                        f"error_detect needs fused speculative windows with "
                        f"prediction bits (window {i} is {w.pred!r} with "
                        f"P={w.prediction_bits})"
                    )
        if self.rectify is not None:
            if not isinstance(self.rectify, RectifySpec):
                raise TypeError("rectify must be a RectifySpec")
            if not self.error_detect:
                raise ValueError(
                    "rectify consumes the §3.3 flags; it requires "
                    "error_detect=True"
                )
            enabled = self.rectify.enabled
            if enabled is not None:
                k = len(self.windows)
                if (not enabled
                        or tuple(sorted(set(enabled))) != tuple(enabled)
                        or not all(1 <= i < k for i in enabled)):
                    raise ValueError(
                        f"rectify.enabled must be a non-empty strictly "
                        f"increasing tuple of speculative window indices in "
                        f"[1, {k - 1}], got {enabled!r}"
                    )

    # -- identity -----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable identity for engine shard-cache keys and the registry.

        Includes the spec name: two families may share a geometry (ACA-II
        and a GeAr coverage point, §3.1) yet must stay distinguishable in
        registries; equal fingerprints still imply identical sums because
        the geometry fully determines behaviour.  Specs are immutable, so
        the string is built once and memoised.

        Version-1 shapes keep the byte-identical ``spec/v1:`` string they
        had before the IR bump (shard-cache hits survive); any spec using
        a static window or a rectify stage mints a disjoint ``spec/v2:``
        key (``static`` is not a valid arch, and the ``:r[...]`` suffix
        never appears on v1 strings).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        layout = ";".join(
            f"{w.low}.{w.high}.{w.result_low}.{w.result_high}"
            + (f".static.{w.approx}" if w.is_static
               else f".{w.arch}.{w.pred}")
            for w in self.windows
        )
        detect = 1 if self.error_detect else 0
        version = 2 if self.uses_v2 else 1
        rect = ""
        if self.rectify is not None:
            taps = ",".join(str(i) for i in self.rectified_windows())
            rect = f":r[{self.rectify.kind}:{taps}]"
        cached = (f"spec/v{version}:{self.name}:w{self.width}"
                  f":t{self.truncation}:d{detect}:[{layout}]{rect}")
        object.__setattr__(self, "_fingerprint", cached)
        return cached

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "version": 2 if self.uses_v2 else 1,
            "name": self.name,
            "width": self.width,
            "truncation": self.truncation,
            "error_detect": self.error_detect,
            "windows": [w.to_dict() for w in self.windows],
        }
        if self.rectify is not None:
            data["rectify"] = self.rectify.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AdderSpec":
        """Parse a spec document; a malformed one raises ValueError."""
        version = _int_field(_document(data, "a spec document"), "version",
                             SPEC_VERSION)
        if version not in SUPPORTED_SPEC_VERSIONS:
            known_versions = " and ".join(map(str, SUPPORTED_SPEC_VERSIONS))
            raise ValueError(
                f"unsupported spec version {version} (this library "
                f"understands versions {known_versions})"
            )
        known = {"version", "name", "width", "truncation", "error_detect",
                 "windows", "rectify"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec fields {sorted(unknown)}")
        if not isinstance(data.get("windows"), list):
            raise ValueError("'windows' must be a list of window objects")
        windows = []
        for i, wd in enumerate(data["windows"]):
            try:
                windows.append(WindowSpec.from_dict(wd))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"window {i}: {exc}") from None
        rectify = None
        if data.get("rectify") is not None:
            try:
                rectify = RectifySpec.from_dict(data["rectify"])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"rectify: {exc}") from None
        if version == 1 and (rectify is not None
                             or any(w.is_static for w in windows)):
            raise ValueError(
                'version 1 documents cannot declare static windows or a '
                'rectify stage; set "version": 2'
            )
        return cls(
            name=_typed_field(data, "name", str),
            width=_int_field(data, "width"),
            windows=tuple(windows),
            truncation=_int_field(data, "truncation", 0),
            error_detect=_typed_field(data, "error_detect", bool, False),
            rectify=rectify,
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AdderSpec":
        return cls.from_dict(json.loads(text))

    def renamed(self, name: str) -> "AdderSpec":
        """The same spec under a different name (and fingerprint)."""
        return replace(self, name=name)

    # -- derived structure --------------------------------------------------

    @property
    def static_window(self) -> Optional[WindowSpec]:
        """The fixed low-part window, or ``None`` for plain layouts."""
        first = self.windows[0]
        return first if first.is_static else None

    @property
    def low_bits(self) -> int:
        """Bits of the fixed low part (truncation or static window), or 0."""
        static = self.static_window
        return static.length if static is not None else self.truncation

    @property
    def body(self) -> Tuple[WindowSpec, ...]:
        """The speculative windows: every window above the fixed low part."""
        return self.windows[1:] if self.static_window is not None \
            else self.windows

    @property
    def uses_v2(self) -> bool:
        """True when the spec needs a version-2 document/fingerprint."""
        return self.static_window is not None or self.rectify is not None

    def rectified_windows(self) -> Tuple[int, ...]:
        """Resolved indices of the rectified windows (empty if none)."""
        if self.rectify is None:
            return ()
        if self.rectify.enabled is not None:
            return self.rectify.enabled
        return tuple(range(1, len(self.windows)))

    def stage_tag(self) -> str:
        """Compact stage/kind tag for CLI listings.

        One of ``exact``/``windowed``/``truncated``/``static:<approx>``,
        with ``+err`` and ``+rect`` suffixes for the detection and
        rectification stages.
        """
        static = self.static_window
        if static is not None:
            tag = f"static:{static.approx}"
        elif self.truncation:
            tag = "truncated"
        elif self.is_exact:
            tag = "exact"
        else:
            tag = "windowed"
        if self.error_detect:
            tag += "+err"
        if self.rectify is not None:
            tag += "+rect"
        return tag

    # -- compilers ----------------------------------------------------------

    def to_model(self):
        """Behavioural/vectorised :class:`~repro.spec.model.SpecAdder`."""
        from repro.spec.model import SpecAdder

        with obs.span("spec.to_model"):
            return SpecAdder(self)

    def to_netlist(self):
        """Gate-level :class:`~repro.rtl.netlist.Netlist` of this spec."""
        from repro.rtl.builders import build_spec

        with obs.span("spec.to_netlist"):
            return build_spec(self)

    def max_error_distance(self) -> int:
        """Upper bound on ``|approx - exact|`` over all operand pairs.

        Each speculative window can miss an incoming carry worth
        ``2**result_low``; windows anchored at bit 0 see every lower bit
        and cannot err, and *rectified* windows repair their own miss
        exactly (the flag fires precisely on the missed carry) so they
        contribute nothing either.  An OR-reduced low part of ``t`` bits
        contributes ``2**(t+1) - 1`` (wrong low sum bits plus the
        approximated carry into the exact part); HOERAA's half-adder top
        bit cancels the boundary terms, leaving at most ``2**t - 1``.
        """
        static = self.static_window
        t = self.low_bits
        if not t:
            bound = 0
        elif static is not None and static.approx == "hoeraa":
            bound = (1 << t) - 1
        else:
            bound = (1 << (t + 1)) - 1
        rectified = set(self.rectified_windows())
        return bound + sum(1 << w.result_low
                           for i, w in enumerate(self.body[1:], start=1)
                           if w.low > 0 and i not in rectified)

    @property
    def is_exact(self) -> bool:
        """True when the spec can never err (single full window, no OR part)."""
        return (self.truncation == 0 and len(self.windows) == 1
                and self.windows[0].low == 0
                and not self.windows[0].is_static)

    def describe(self) -> str:
        """Compact human-readable summary for CLI listings."""
        parts = []
        if self.truncation:
            parts.append(f"or[0:{self.truncation - 1}]")
        for w in self.windows:
            if w.is_static:
                parts.append(f"{w.approx}[{w.low}:{w.high}]")
                continue
            tag = w.arch if w.pred == "fused" else f"{w.arch}+{w.pred}"
            parts.append(f"[{w.low}:{w.high}]->[{w.result_low}:{w.result_high}]{tag}")
        detect = " +err" if self.error_detect else ""
        rect = ""
        if self.rectify is not None:
            taps = ",".join(str(i) for i in self.rectified_windows())
            rect = f" +rect[{taps}]"
        return f"{self.name}: N={self.width} {' '.join(parts)}{detect}{rect}"
