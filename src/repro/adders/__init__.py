"""Behavioural models of every adder the paper evaluates.

All adders share the :class:`~repro.adders.base.AdderModel` interface:
``add(a, b)`` computes the (approximate) sum for scalars or NumPy arrays,
``build_netlist()`` returns the gate-level implementation, and
``error_probability()`` returns the exact uniform-operand error rate (the
paper's §3.2 model is :func:`repro.core.error_model.paper_error_probability`).

Baselines: RCA, CLA (exact); ACA-I [8]; ETAI, ETAII, ETAIIM [9];
ACA-II [10]; GDA [13]; LOA [12].  The GeAr adder itself lives in
:mod:`repro.core`.

RCA, CLA, KSA, ACA-I, ACA-II, ETAII, ETAIIM, GDA and LOA are factories,
not classes: each maps its family's parameters onto the catalog spec
(:mod:`repro.spec.catalog`) and returns ``spec.to_model()`` — a
:class:`~repro.spec.model.SpecAdder` — under the paper's label.  The
§3.1 coverage points (ACA-I = GeAr(N, 1, L-1),
ACA-II = ETAII = GeAr(N, L/2, L/2), GDA = GeAr(N, M_B, M_C) per §4.4)
also carry their :class:`~repro.core.gear.GeArConfig` as ``config``.
"""

from typing import Optional, Sequence

from repro.adders.base import (
    AdderModel,
    ExactAdder,
    IntLike,
    _validate_operand,
)
from repro.adders.etai import ErrorTolerantAdderI
from repro.adders.prefix import CarrySelectAdder, CarrySkipAdder
from repro.core.gear import GeArConfig, labelled_model
from repro.spec.catalog import (
    aca1_spec,
    aca2_spec,
    etaii_spec,
    etaiim_spec,
    exact_spec,
    gda_spec,
    loa_spec,
)
from repro.spec.model import SpecAdder, require_windowed


def RippleCarryAdder(width: int):
    """Exact N-bit ripple-carry adder — the paper's exact benchmark
    (Table I, RCA).

    The carry chain spans all N bits, so this adder anchors the delay
    comparison: every approximate adder must beat its critical path to be
    worthwhile.
    """
    return labelled_model(exact_spec(width, "rca"), f"RCA(N={width})")


def CarryLookaheadAdder(width: int):
    """Exact N-bit single-level carry-lookahead adder.

    Functionally identical to RCA; structurally it trades the serial carry
    chain for wide AND-OR trees.  On FPGAs those trees map to general LUTs
    rather than the dedicated carry chain, which is why GDA (whose
    prediction units are CLAs) is *slower* than RCA in Table I — the
    netlist compiled from the spec reproduces that inversion.
    """
    return labelled_model(exact_spec(width, "cla"), f"CLA(N={width})")


def KoggeStoneAdder(width: int):
    """Exact N-bit Kogge-Stone log-depth parallel-prefix adder."""
    return labelled_model(exact_spec(width, "ksa"), f"KSA(N={width})")


def AlmostCorrectAdder(width: int, sub_adder_len: int):
    """ACA-I [8]: overlapping L-bit sub-adders shifted by one bit, each
    contributing a single resultant bit — GeAr(N, 1, L-1).

    The one-bit shift means N - L + 1 sub-adders and large input fan-out —
    the area overhead the paper notes in §2.
    """
    return labelled_model(aca1_spec(width, sub_adder_len),
                          f"ACA-I(N={width},L={sub_adder_len})",
                          GeArConfig(width, 1, sub_adder_len - 1))


def AccuracyConfigurableAdder(width: int, sub_adder_len: int,
                              allow_partial: bool = False):
    """ACA-II [10]: overlapping L-bit sub-adders (L even), each
    contributing its top L/2 bits — GeAr(N, L/2, L/2)."""
    half = sub_adder_len // 2
    return labelled_model(
        aca2_spec(width, sub_adder_len, allow_partial=allow_partial),
        f"ACA-II(N={width},L={sub_adder_len})",
        GeArConfig(width, half, half, allow_partial=allow_partial))


def ErrorTolerantAdderII(width: int, sub_adder_len: int,
                         allow_partial: bool = False):
    """ETAII [9]: non-overlapping L/2-bit segments, each summed with a
    carry from a separate generator over the L/2 bits below it.

    Functionally GeAr(N, L/2, L/2), like ACA-II (§3.1); the spec declares
    ETAII's native structure (``gen_rca`` carry generators), which is what
    costs it its extra LUTs in Table I.
    """
    half = sub_adder_len // 2
    return labelled_model(
        etaii_spec(width, sub_adder_len, allow_partial=allow_partial),
        f"ETAII(N={width},L={sub_adder_len})",
        GeArConfig(width, half, half, allow_partial=allow_partial))


def ErrorTolerantAdderIIM(width: int, sub_adder_len: int, connected: int = 2):
    """ETAIIM [9]: ETAII with the carry chains of the top ``connected``
    segments linked into one accurate block, whose carry-in is still
    generated over the L/2 bits below it (1 leaves it identical to ETAII).

    ``width`` must be a multiple of the segment size L/2.  Not a GeAr
    point, so it carries no ``config``.
    """
    return labelled_model(etaiim_spec(width, sub_adder_len, connected),
                          f"ETAIIM(N={width},L={sub_adder_len},conn={connected})")


def GracefullyDegradingAdder(width: int, mb: int, mc: int,
                             enforce_multiple: bool = True):
    """GDA(M_B, M_C) [13] in uniform approximate mode.

    M_B-bit blocks, each carry-in predicted by a carry-lookahead unit over
    the M_C bits below the block boundary.  ``width`` must be a multiple of
    ``mb``.  GDA's hierarchical CLA restricts M_C to multiples of M_B; pass
    ``enforce_multiple=False`` to explore points outside the architecture.
    §4.4 applies the GeAr error model at (R=M_B, P=M_C), which is the
    ``config`` the model carries.  :func:`add_with_selects` models the
    per-block carry muxes that make the degradation graceful.
    """
    spec = gda_spec(width, mb, mc, enforce_multiple=enforce_multiple)
    strict = (width - mb - mc) % mb == 0
    return labelled_model(spec, f"GDA(N={width},MB={mb},MC={mc})",
                          GeArConfig(width, mb, mc, allow_partial=not strict))


def LowerPartOrAdder(width: int, approx_bits: int):
    """LOA [12]: the low ``approx_bits`` sum bits are ``a | b``; the exact
    upper part takes ``a & b`` of the top approximate bit as carry-in.

    ``approx_bits=0`` is an exact adder.  Cited by the paper as a
    precision-truncating design, to show where segmentation-based adders
    beat magnitude-truncating ones.
    """
    return labelled_model(loa_spec(width, approx_bits),
                          f"LOA(N={width},approx={approx_bits})")


def add_with_selects(adder: SpecAdder, a: IntLike, b: IntLike,
                     accurate: Optional[Sequence[bool]] = None) -> IntLike:
    """Addition with per-block carry-source selection ([13]'s muxes).

    Block ``i`` computes window ``i``'s result field.  Its carry-in is
    either the previous block's actual carry-out (accurate, slower path)
    or the window's prediction: the carry out of its operand bits
    ``[w.low, w.result_low)`` (approximate).  For a GDA that is the M_C
    lookahead below the block boundary.

    Args:
        adder: a speculative spec model, e.g. a
            :func:`GracefullyDegradingAdder`; a spec with a fixed low part
            (truncation or a static window) raises :class:`ValueError`.
        a, b: operands (scalars or integer arrays).
        accurate: one flag per block boundary (``len(adder.windows) - 1``
            entries, block 1 upward): True chains the true carry, False
            uses the prediction.  ``None`` selects accurate everywhere —
            the exact result.

    The mux taps the previous block's *actual* carry-out, which may itself
    be tainted if that block ran on a prediction — the hardware-faithful
    semantics.  All-accurate selects chain into the exact sum, and all
    approximate ones reproduce ``adder.add``.  It is the window walk of
    :class:`~repro.spec.model.SpecAdder` with the accurate blocks chained,
    the same pass as :class:`~repro.core.correction.ErrorCorrector`.
    """
    require_windowed(adder, "add_with_selects")
    a = _validate_operand("a", a, adder.width)
    b = _validate_operand("b", b, adder.width)
    boundaries = len(adder.windows) - 1
    if accurate is None:
        accurate = [True] * boundaries
    if len(accurate) != boundaries:
        raise ValueError(f"need {boundaries} select flags, got {len(accurate)}")

    return adder._walk(a, b, accurate)[0]


__all__ = [
    "AdderModel",
    "ExactAdder",
    "RippleCarryAdder",
    "CarryLookaheadAdder",
    "AlmostCorrectAdder",
    "AccuracyConfigurableAdder",
    "ErrorTolerantAdderI",
    "ErrorTolerantAdderII",
    "ErrorTolerantAdderIIM",
    "GracefullyDegradingAdder",
    "LowerPartOrAdder",
    "KoggeStoneAdder",
    "CarrySelectAdder",
    "CarrySkipAdder",
    "add_with_selects",
]
