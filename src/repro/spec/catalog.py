"""Spec constructors for every adder family, and the shared catalog.

Each ``*_spec`` function maps a family's historical parameters onto the
declarative IR — the §3.1 coverage relations turned into code exactly
once, and the only way to build their netlists (``spec.to_netlist()``).
:data:`SPEC_CATALOG` is the single enumeration the CLI name table
(:data:`repro.rtl.builders.NAMED_BUILDERS`, which also fixes these
factories to each family's historical parameter list), the conformance
registry (:mod:`repro.verify.registry`) and the CLI all derive their
family lists from, so the layers can no longer drift apart.

Structural fidelity matters as much as function: ETAII compiles to
separate carry generators (``gen_rca``), GDA to lookahead predictors
(``gen_cla``), GeAr/ACA to fused windows — the distinctions that produce
the paper's Table I/II area and delay orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.spec.ir import AdderSpec, RectifySpec, WindowSpec
from repro.utils.validation import check_pos_int


def exact_spec(width: int, arch: str = "rca",
               name: Optional[str] = None) -> AdderSpec:
    """An exact adder: one window spanning the whole word."""
    check_pos_int("width", width)
    return AdderSpec(
        name or f"{arch}_{width}", width,
        (WindowSpec(0, width - 1, 0, width - 1, arch=arch),),
    )


def gear_spec(n: int, r: int, p: int, allow_partial: bool = False,
              arch: str = "rca", error_detect: bool = True,
              name: Optional[str] = None) -> AdderSpec:
    """GeAr(N, R, P) per §3.1 — fused windows, §3.3 ERR flags by default.

    The one derivation of a GeAr window layout.  Window 0 covers
    ``[0, L-1]`` and drives all L bits (Eq. 2); window ``i`` covers
    ``[R·i, R·i + L - 1]`` and drives its top R bits (Eq. 3), except that
    with ``allow_partial`` a last window that would overrun the word keeps
    its length L, anchors at ``high = N-1`` and drives the remaining bits.
    """
    # Lazy: the adder factories import this module, and repro.core's
    # package __init__ pulls the multiplier, which needs the adders.
    from repro.core.gear import GeArConfig

    cfg = GeArConfig(n, r, p, allow_partial=allow_partial)
    length = cfg.L
    windows = [WindowSpec(0, length - 1, 0, length - 1, arch=arch)]
    for i in range(1, cfg.k):
        low = r * i
        high = low + length - 1
        result_low = low + p
        if high > n - 1:
            high = n - 1
            low = high - length + 1
            result_low = windows[-1].result_high + 1
        windows.append(WindowSpec(low, high, result_low, high, arch=arch))
    return AdderSpec(name or f"gear_{n}_{r}_{p}", n, tuple(windows),
                     error_detect=error_detect and cfg.k > 1)


def aca1_spec(n: int, sub_adder_len: int,
              name: Optional[str] = None) -> AdderSpec:
    """ACA-I [8] == GeAr(N, 1, L-1): one-bit-shifted overlapping windows."""
    if sub_adder_len < 2:
        raise ValueError("ACA-I needs sub_adder_len >= 2")
    if sub_adder_len > n:
        raise ValueError(
            f"sub_adder_len {sub_adder_len} exceeds operand width {n}"
        )
    return gear_spec(n, 1, sub_adder_len - 1,
                     name=name or f"aca1_{n}_{sub_adder_len}")


def aca2_spec(n: int, sub_adder_len: int, allow_partial: bool = False,
              name: Optional[str] = None) -> AdderSpec:
    """ACA-II [10] == GeAr(N, L/2, L/2) — the windows *are* the hardware."""
    if sub_adder_len % 2 != 0:
        raise ValueError("ACA-II needs an even sub-adder length")
    if sub_adder_len > n:
        raise ValueError(
            f"sub_adder_len {sub_adder_len} exceeds operand width {n}"
        )
    half = sub_adder_len // 2
    return gear_spec(n, half, half, allow_partial=allow_partial,
                     name=name or f"aca2_{n}_{sub_adder_len}")


def etaii_spec(n: int, sub_adder_len: int, allow_partial: bool = False,
               name: Optional[str] = None) -> AdderSpec:
    """ETAII [9] in its native structure: sum units + carry generators.

    Functionally equal to ACA-II (§3.1) but declared the way Zhu et al.
    build it: non-overlapping L/2-bit sum-unit windows, each with a
    physically separate ripple carry generator (``gen_rca``) over the L/2
    bits below — the duplication that costs ETAII its extra LUTs in
    Table I.  With ``allow_partial``, widths not divisible by the segment
    size anchor a final length-L window at the top of the word, mirroring
    GeAr's partial mode bit-for-bit.
    """
    if sub_adder_len % 2 != 0:
        raise ValueError("ETAII needs an even sub-adder length")
    if sub_adder_len > n:
        raise ValueError(
            f"sub_adder_len {sub_adder_len} exceeds operand width {n}"
        )
    half = sub_adder_len // 2
    segments, rem = divmod(n, half)
    if rem and not allow_partial:
        raise ValueError(
            f"ETAII needs N divisible by the segment size {half}, got {n}"
        )
    windows: List[WindowSpec] = [WindowSpec(0, half - 1, 0, half - 1)]
    for seg in range(1, segments):
        lo = (seg - 1) * half
        windows.append(WindowSpec(lo, lo + sub_adder_len - 1, lo + half,
                                  lo + sub_adder_len - 1, pred="gen_rca"))
    if rem:
        result_low = segments * half
        windows.append(WindowSpec(n - sub_adder_len, n - 1, result_low,
                                  n - 1, pred="gen_rca"))
    return AdderSpec(name or f"etaii_{n}_{sub_adder_len}", n, tuple(windows))


def etaiim_spec(n: int, sub_adder_len: int, connected: int = 2,
                name: Optional[str] = None) -> AdderSpec:
    """ETAIIM [9]: ETAII with the top ``connected`` segments' carry chains
    linked into one accurate block (its carry-in still generated over the
    L/2 bits below)."""
    if sub_adder_len % 2 != 0:
        raise ValueError("ETAIIM needs an even sub-adder length")
    half = sub_adder_len // 2
    if n % half != 0:
        raise ValueError(
            f"width {n} must be a multiple of the segment size {half}"
        )
    segments = n // half
    if not 1 <= connected <= segments:
        raise ValueError(
            f"connected must be in [1, {segments}], got {connected}"
        )
    plain = segments - connected
    spec_name = name or f"etaiim_{n}_{sub_adder_len}_{connected}"
    if plain == 0:
        # Every carry chain linked: one exact ripple block.
        return AdderSpec(spec_name, n, (WindowSpec(0, n - 1, 0, n - 1),))
    windows: List[WindowSpec] = [WindowSpec(0, half - 1, 0, half - 1)]
    for seg in range(1, plain):
        lo = (seg - 1) * half
        windows.append(WindowSpec(lo, lo + sub_adder_len - 1, lo + half,
                                  lo + sub_adder_len - 1, pred="gen_rca"))
    result_low = plain * half
    windows.append(WindowSpec(result_low - half, n - 1, result_low, n - 1,
                              pred="gen_rca"))
    return AdderSpec(spec_name, n, tuple(windows))


def gda_spec(n: int, mb: int, mc: int, enforce_multiple: bool = True,
             name: Optional[str] = None) -> AdderSpec:
    """GDA [13], uniform approximate mode: M_B-bit ripple blocks, each
    carry-in predicted by a carry-*lookahead* unit (``gen_cla``) over the
    M_C bits below the boundary — the CLA that costs GDA its delay
    (§4.2)."""
    check_pos_int("n", n)
    check_pos_int("mb", mb)
    check_pos_int("mc", mc)
    if n % mb != 0:
        raise ValueError(f"GDA needs width divisible by M_B: {n} % {mb} != 0")
    if mc > n - mb:
        raise ValueError(f"M_C must be in [1, {n - mb}], got {mc}")
    if enforce_multiple and mc % mb != 0:
        raise ValueError(
            f"GDA's hierarchical CLA needs M_C to be a multiple of M_B "
            f"(got M_C={mc}, M_B={mb}); pass enforce_multiple=False to override"
        )
    windows: List[WindowSpec] = []
    for base in range(0, n, mb):
        lo = max(0, base - mc)
        pred = "fused" if base == 0 else "gen_cla"
        windows.append(WindowSpec(lo, base + mb - 1, base, base + mb - 1,
                                  pred=pred))
    return AdderSpec(name or f"gda_{n}_{mb}_{mc}", n, tuple(windows))


def loa_spec(n: int, approx_bits: int,
             name: Optional[str] = None) -> AdderSpec:
    """LOA [12]: OR gates for the low bits, exact ripple part above."""
    check_pos_int("n", n)
    if not 0 <= approx_bits < n:
        raise ValueError(f"approx_bits must be in [0, {n}), got {approx_bits}")
    spec_name = name or f"loa_{n}_{approx_bits}"
    window = WindowSpec(approx_bits, n - 1, approx_bits, n - 1)
    return AdderSpec(spec_name, n, (window,), truncation=approx_bits)


def loa_static_spec(n: int, approx_bits: int,
                    name: Optional[str] = None) -> AdderSpec:
    """LOA declared through the IR v2 static-window spelling.

    Behaviourally the twin of :func:`loa_spec` (same OR rule, same carry
    into the exact part), but the approximated low bits are a first-class
    ``static`` window instead of the legacy ``truncation`` field — the
    form every other fixed low-part rule (HOERAA, ...) uses.
    """
    check_pos_int("n", n)
    if not 1 <= approx_bits < n:
        raise ValueError(f"approx_bits must be in [1, {n}), got {approx_bits}")
    windows = (
        WindowSpec(0, approx_bits - 1, 0, approx_bits - 1,
                   kind="static", approx="or"),
        WindowSpec(approx_bits, n - 1, approx_bits, n - 1),
    )
    return AdderSpec(name or f"loa_static_{n}_{approx_bits}", n, windows)


def hoeraa_spec(n: int, approx_bits: int,
                name: Optional[str] = None) -> AdderSpec:
    """HOERAA (Balasubramanian & Maskell): OR low bits, half-adder top.

    The low ``approx_bits - 1`` sum bits are ``a | b``; the top static
    bit is the half-adder sum ``a ^ b`` whose carry ``a & b`` feeds the
    exact ripple part above — confining the static error to the bits
    strictly below the boundary (|error| < ``2**(approx_bits-1)``),
    where LOA's plain OR rule can also miss the boundary carry itself.
    """
    check_pos_int("n", n)
    if not 1 <= approx_bits < n:
        raise ValueError(f"approx_bits must be in [1, {n}), got {approx_bits}")
    windows = (
        WindowSpec(0, approx_bits - 1, 0, approx_bits - 1,
                   kind="static", approx="hoeraa"),
        WindowSpec(approx_bits, n - 1, approx_bits, n - 1),
    )
    return AdderSpec(name or f"hoeraa_{n}_{approx_bits}", n, windows)


def cesa_rect_spec(n: int, r: int = 2, p: int = 2,
                   name: Optional[str] = None) -> AdderSpec:
    """A carry-estimating speculative adder with partial rectification.

    GeAr(N, R, P) geometry with the §3.3 flags compiled in, plus an IR v2
    ``rectify`` stage that adds the flags of the *top half* of the
    speculative windows back into the sum (à la Bhattacharjya et al.,
    arXiv 2008.11591: spend the correction hardware where a missed carry
    costs the most).  The untouched low windows keep their error events,
    so the family still exercises the full analytic DP.
    """
    base = gear_spec(n, r, p, allow_partial=True, error_detect=True)
    k = len(base.windows)
    if k < 2:
        raise ValueError(
            f"cesa_rect needs a speculative window to rectify; "
            f"GeAr({n}, {r}, {p}) has only one window"
        )
    spec_count = k - 1
    enabled = tuple(range(k - (spec_count + 1) // 2, k))
    return replace(base, name=name or f"cesa_rect_{n}_{r}_{p}",
                   rectify=RectifySpec(kind="ripple", enabled=enabled))


#: Result-chunk cycle of the heterogeneous family: (result bits, sub-adder
#: architecture, prediction realisation, prediction depth).  Mixes every
#: arch and every prediction style the compiler supports, so one family
#: exercises the whole IR with zero family-specific code.
_HETERO_CHUNKS = (
    (2, "cla", "fused", 2),
    (3, "rca", "gen_rca", 2),
    (2, "ksa", "fused", 1),
    (3, "rca", "gen_cla", 2),
)


def hetero_spec(n: int, name: Optional[str] = None) -> AdderSpec:
    """A heterogeneous block-based adder à la Farahmand et al.
    (arXiv:2106.08800): per-window mixed sub-adder lengths, architectures
    and carry-prediction styles, expressed purely as data."""
    if n < 6:
        raise ValueError(f"the heterogeneous family needs width >= 6, got {n}")
    windows: List[WindowSpec] = [WindowSpec(0, 2, 0, 2, arch="ksa")]
    cursor = 3
    chunk = 0
    while cursor < n:
        result_bits, arch, pred, depth = _HETERO_CHUNKS[chunk % len(_HETERO_CHUNKS)]
        chunk += 1
        result_high = min(cursor + result_bits - 1, n - 1)
        p = min(depth, cursor)
        windows.append(WindowSpec(cursor - p, result_high, cursor,
                                  result_high, arch=arch, pred=pred))
        cursor = result_high + 1
    return AdderSpec(name or f"hetero_{n}", n, tuple(windows))


@dataclass(frozen=True)
class SpecFamily:
    """One catalog entry: a named, width-parameterised spec constructor."""

    key: str
    description: str
    spec: Callable[[int], AdderSpec]
    min_width: int = 2

    def __call__(self, width: int) -> AdderSpec:
        if width < self.min_width:
            raise ValueError(
                f"{self.key} needs width >= {self.min_width}, got {width}"
            )
        return self.spec(width)


def _catalog_entries() -> List[SpecFamily]:
    return [
        SpecFamily("rca", "exact ripple-carry baseline",
                   lambda w: exact_spec(w, "rca"), min_width=1),
        SpecFamily("cla", "exact carry-lookahead baseline",
                   lambda w: exact_spec(w, "cla"), min_width=1),
        SpecFamily("ksa", "exact Kogge-Stone parallel prefix",
                   lambda w: exact_spec(w, "ksa"), min_width=1),
        SpecFamily("gear_r1p3", "GeAr(N, 1, 3) — ACA-I coverage point",
                   lambda w: gear_spec(w, 1, 3, allow_partial=True),
                   min_width=5),
        SpecFamily("gear_r2p2", "GeAr(N, 2, 2) — ETAII/ACA-II point",
                   lambda w: gear_spec(w, 2, 2, allow_partial=True),
                   min_width=6),
        SpecFamily("gear_r2p4", "GeAr(N, 2, 4) — deeper prediction",
                   lambda w: gear_spec(w, 2, 4, allow_partial=True),
                   min_width=8),
        SpecFamily("cesa_rect", "GeAr(N, 2, 2) + rectified top windows",
                   lambda w: cesa_rect_spec(w, 2, 2), min_width=6),
        SpecFamily("aca1_l4", "ACA-I with L=4 sub-adders",
                   lambda w: aca1_spec(w, 4), min_width=5),
        SpecFamily("aca2_l4", "ACA-II with L=4 sub-adders",
                   lambda w: aca2_spec(w, 4), min_width=6),
        SpecFamily("etaii_l4", "ETAII with L=4 windows",
                   lambda w: etaii_spec(w, 4), min_width=6),
        SpecFamily("etaiim_l4c2", "ETAIIM, L=4, two merged top segments",
                   lambda w: etaiim_spec(w, 4, 2), min_width=6),
        SpecFamily("gda_b2c2", "GDA with M_B=2, M_C=2",
                   lambda w: gda_spec(w, 2, 2), min_width=4),
        SpecFamily("loa_half", "LOA, lower half approximated",
                   lambda w: loa_spec(w, w // 2), min_width=2),
        SpecFamily("loa_static", "LOA as an IR v2 static window",
                   lambda w: loa_static_spec(w, w // 2), min_width=2),
        SpecFamily("hoeraa", "HOERAA: OR low part, half-adder top bit",
                   lambda w: hoeraa_spec(w, w // 2), min_width=2),
        SpecFamily("hetero", "heterogeneous mixed-architecture windows",
                   hetero_spec, min_width=6),
    ]


def _build_catalog() -> Dict[str, SpecFamily]:
    catalog: Dict[str, SpecFamily] = {}
    for entry in _catalog_entries():
        if entry.key in catalog:  # pragma: no cover - defensive
            raise ValueError(f"duplicate catalog key {entry.key!r}")
        catalog[entry.key] = entry
    return catalog


#: The one shared family enumeration (key-ordered, read-only by convention).
SPEC_CATALOG: Dict[str, SpecFamily] = _build_catalog()


def catalog_spec(key: str, width: int) -> AdderSpec:
    """Resolve a catalog family to its spec at ``width``."""
    try:
        family = SPEC_CATALOG[key]
    except KeyError:
        raise ValueError(
            f"unknown spec family {key!r}; known: "
            f"{', '.join(sorted(SPEC_CATALOG))}"
        ) from None
    return family(width)


def spec_adder(key: str, width: int):
    """Build the behavioural model of a catalog family at ``width``."""
    return catalog_spec(key, width).to_model()
