"""Exact analytic error statistics for block-based approximate adders.

Every accuracy number in the repo can be obtained by simulation, but for
pure *block-based* adders — those whose approximate sum is fully described
by a window layout plus an optional OR-truncated low part, i.e. the
:class:`~repro.spec.model.SpecAdder` of every
:class:`~repro.spec.ir.AdderSpec` — the full signed
error PMF is computable exactly in closed form (Wu, Li, Ge & Qian,
arXiv 1703.03522).  The key observation is that the error of such an
adder depends on the operands only through the per-bit generate /
propagate / kill sequence, so a dynamic program over

    ``(carry into next bit, trailing propagate-run length)``

states, with the accumulated signed error carried alongside, visits each
bit once and yields the exact distribution:

* scanning bit ``i`` multiplies in the per-bit transition probabilities
  ``rho_g = alpha_i^2`` (generate), ``rho_p = 2 alpha_i (1 - alpha_i)``
  (propagate) and ``rho_k = (1 - alpha_i)^2`` (kill), where ``alpha_i``
  is the probability that bit ``i`` of an operand is one (both operands
  i.i.d. per bit);
* a *miss* of window ``w`` — the window computing its field with local
  carry-in 0 while the true carry into ``result_low`` is 1 — fires at
  the end of bit ``result_low - 1`` exactly when ``carry == 1`` and the
  propagate run covers the window's prediction bits, and subtracts
  ``2**result_low``;
* a *wrap* of a non-last window — the missing carry would have rippled
  out of the window's top — fires at the end of bit ``result_high`` when
  ``carry == 1`` and the whole window propagated, and adds
  ``2**(result_high + 1)``;
* an OR-truncated low part emits ``-2**i`` on the generate branch of
  each truncated bit and a ``+2**truncation`` correction whenever the
  true carry into the first window is one; the first window above a
  truncation misses with threshold 1 and wraps with threshold
  ``length + 1`` because its local carry-in is the generate of bit
  ``truncation - 1``;
* a ``hoeraa`` static low part is the OR rule with the top static bit
  computed as a half-adder sum: on that bit's generate branch the
  output loses ``2**(t-1)`` *more* than the OR rule, so its generate
  delta doubles to ``-2**t`` (which the ``+2**t`` carry correction then
  cancels exactly — HOERAA's static error is confined to the bits below
  the boundary);
* a *rectified* window (IR v2 ``rectify`` stage) adds its §3.3 flag back
  at ``result_low``, repairing exactly the misses its flag observes: the
  flag is ``AND(prediction propagates) & previous local carry-out``, so
  the window's residual miss condition tightens from ``run >=
  prediction_bits`` to ``run >= result_low - previous.low`` — the full
  span whose propagation defeats the previous window's local carry-out
  too.  That threshold equals the previous window's wrap threshold, so
  for interior windows the wrap/miss pair fuses into a no-op (the wrap
  is always re-missed in full) and for the first speculative window the
  event is unreachable: a fully rectified ``error_detect`` spec is
  provably exact;
* the last window emits nothing at the top: its wrap (``+2**N``) and the
  flipped carry-out bit (``-2**N``) occur under the identical condition
  and cancel exactly;
* windows anchored at bit 0 cannot miss or wrap (their local carry-in
  *is* the true carry), so they are exempt from the schedule.

EP, MED, max-ED, NED and the MAA acceptance at threshold 1.0 are then
plain reductions of the PMF; MRED and the amplitude/information accuracy
averages depend on the joint (error, exact sum) distribution and remain
``None`` in analytic results.

The DP is vectorised in two passes.  A *symbolic* pass walks the event
bits only, tracking for every error value an upper bound on its trailing
propagate run; that discovers the full error support and compiles the
scan into a short op list (segment matmuls + index-planned emissions).
The pass itself runs on arrays: the error values and their run bounds
are growable NumPy arrays, and each emission is one masked update plus a
batched sorted lookup of its target errors.  Unseen errors are appended
in the order the emission reaches them, so rows are numbered exactly as a
one-row-at-a-time walk would number them.  Errors are ``int64`` while the
schedule's summed ``|delta|`` stays below ``2**62`` and Python ints in an
``object`` array beyond that, so wide layouts never wrap.
Runs of event-free bits never need per-bit scanning: the ``(carry, run)``
distribution after ``g`` homogeneous bits has a closed form (the run is
geometric in the propagate probability, the carry chain is a two-state
Markov chain), so each gap collapses into a single precomputed segment
matrix.  The *numeric* pass then replays the op list over one
preallocated ``(support, states)`` array.  See ``docs/analytic.md`` for
the full formulation and the supported-spec rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.error_metrics import TABLE1_MAA_THRESHOLDS, ErrorStats

__all__ = [
    "ANALYTIC_VERSION",
    "MAX_SUPPORT",
    "AnalyticUnsupported",
    "ErrorPMF",
    "adder_error_pmf",
    "analytic_layout",
    "bit_probability_profile",
]

#: Version of the analytic formulation; folded into cache keys so stored
#: PMFs are invalidated whenever the DP changes.  2: static-approximation
#: kinds (HOERAA) and rectified windows joined the formulation.
ANALYTIC_VERSION = 2

#: Hard cap on the tracked error-support size.  Real block-based layouts
#: stay far below this (support is bounded by the realisable subset sums
#: of per-window deltas); the cap turns a pathological layout into a
#: clean :class:`AnalyticUnsupported` instead of an OOM.
MAX_SUPPORT = 1 << 20


class AnalyticUnsupported(ValueError):
    """Raised when a request cannot be answered by the analytic backend."""


@dataclass(frozen=True)
class ErrorPMF:
    """Exact distribution of the signed error ``approx - exact``.

    ``support`` is sorted ascending and every probability is strictly
    positive; an exact adder has the single entry ``{0: 1.0}``.
    """

    width: int
    support: Tuple[int, ...]
    probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities must align")
        if not self.support:
            raise ValueError("an error PMF cannot be empty")

    @property
    def total_mass(self) -> float:
        return math.fsum(self.probabilities)

    @property
    def error_rate(self) -> float:
        """Exact error probability ``P(error != 0)``."""
        return math.fsum(p for e, p in zip(self.support, self.probabilities)
                         if e != 0)

    @property
    def med(self) -> float:
        """Exact mean error distance ``E[|error|]``."""
        return math.fsum(abs(e) * p
                         for e, p in zip(self.support, self.probabilities))

    @property
    def max_abs(self) -> int:
        """Largest error magnitude with non-zero probability."""
        return max(abs(e) for e in self.support)

    def probability(self, error: int) -> float:
        for e, p in zip(self.support, self.probabilities):
            if e == error:
                return p
        return 0.0

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "support": list(self.support),
            "probabilities": list(self.probabilities),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ErrorPMF":
        return cls(
            width=int(payload["width"]),
            support=tuple(int(e) for e in payload["support"]),
            probabilities=tuple(float(p) for p in payload["probabilities"]),
        )

    def to_error_stats(
        self,
        maa_thresholds: Sequence[float] = TABLE1_MAA_THRESHOLDS,
        max_ed_bound: Optional[int] = None,
    ) -> ErrorStats:
        """Reduce the PMF to an :class:`ErrorStats` record.

        ``samples`` is 0 to mark the result as analytic.  MRED and the
        accuracy averages need the joint (error, exact-sum) distribution
        and stay ``None``; the MAA curve is exact only at threshold 1.0
        (amplitude accuracy >= 1 iff the error is zero), so other
        thresholds are omitted from the acceptance map.
        """
        d_max = max_ed_bound if max_ed_bound else (1 << self.width)
        # One pass over the support feeds all three reductions.
        err_terms = []
        med_terms = []
        max_abs = 0
        for e, p in zip(self.support, self.probabilities):
            a = abs(e)
            med_terms.append(a * p)
            if e:
                err_terms.append(p)
            if a > max_abs:
                max_abs = a
        error_rate = math.fsum(err_terms)
        med = math.fsum(med_terms)
        acceptance = {
            float(threshold): (1.0 - error_rate) * 100.0
            for threshold in maa_thresholds
            if threshold >= 1.0 - 1e-12
        }
        return ErrorStats(
            samples=0,
            error_rate=error_rate,
            med=med,
            ned=med / d_max,
            mred=None,
            max_ed_observed=max_abs,
            max_ed_bound=max_ed_bound,
            acc_amp_avg=None,
            acc_inf_avg=None,
            maa_acceptance=acceptance,
        )


def analytic_layout(
    adder,
) -> Optional[Tuple[int, Tuple[object, ...], int, Optional[str],
                    Tuple[int, ...]]]:
    """Extract ``(width, windows, truncation, static_kind, rectified)``.

    ``static_kind`` names the fixed low part's gate rule (``or`` /
    ``hoeraa``; ``None`` when ``truncation`` is 0) and ``rectified`` the
    indices of the windows whose flags are added back by a rectify stage
    (empty for none).  Returns ``None`` when the adder's arithmetic is
    not fully described by a window layout — i.e. when it overrides
    ``_add_impl`` (ETAI's segment OR, or any custom model), including a
    :class:`~repro.spec.model.SpecAdder` subclass.  Spec models answer
    from ``adder.spec`` alone; non-spec models only when exact.

    Adders are immutable, so the answer is memoised on the instance —
    backend dispatch asks once to route the request and once to solve it.
    """
    cached = getattr(adder, "_analytic_layout", None)
    if cached is not None:
        return cached[0]

    from repro.spec.ir import AdderSpec
    from repro.spec.model import SpecAdder

    layout = None
    spec = getattr(adder, "spec", None)
    if not isinstance(spec, AdderSpec):
        if getattr(adder, "is_exact", False):
            layout = (adder.width, (), 0, None, ())
    elif type(adder)._add_impl is SpecAdder._add_impl:
        # (An override computes sums the spec does not declare.)
        if spec.is_exact:
            layout = (spec.width, (), 0, None, ())
        else:
            static = spec.static_window
            kind = static.approx if static is not None else "or"
            layout = (spec.width, spec.body, spec.low_bits,
                      kind if spec.low_bits else None,
                      spec.rectified_windows())
    try:
        adder._analytic_layout = (layout,)
    except (AttributeError, TypeError):  # slotted/frozen foreign models
        pass
    return layout


def bit_probability_profile(distribution, width: int,
                            mode: str) -> Optional[Tuple[float, ...]]:
    """Per-bit one-probabilities for an evaluation request.

    Exhaustive evaluation enumerates the full operand space uniformly,
    so the profile is uniform regardless of the request's distribution;
    Monte-Carlo requests use the distribution's per-bit independent form
    when it has one (``None`` otherwise — the analytic backend cannot
    serve such a request).
    """
    if mode == "exhaustive" or distribution is None:
        return (0.5,) * width
    return distribution.bit_probabilities()


def _emission_schedule(
    windows: Sequence[object], truncation: int,
    rectified: Tuple[int, ...] = (),
) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """Map ``bit -> ((run_threshold, error_delta), ...)``.

    Each entry fires at the end of the named bit for states with
    ``carry == 1`` and ``run >= run_threshold``, adding ``error_delta``
    to the accumulated error.  A threshold of 0 conditions on the carry
    alone.
    """
    schedule: Dict[int, List[Tuple[int, int]]] = {}
    rect = set(rectified)

    def put(bit: int, threshold: int, delta: int) -> None:
        schedule.setdefault(bit, []).append((threshold, delta))

    if truncation > 0:
        # The OR'd low part never produces the true carry into the first
        # window; whenever that carry is one the approximate sum is short
        # one unit at bit `truncation` before window effects.
        put(truncation - 1, 0, 1 << truncation)
    last = len(windows) - 1
    for idx, window in enumerate(windows):
        if window.low == 0:
            # The window's local carry-in is the true carry: exact.
            continue
        if idx == 0:
            if truncation == 0:
                continue
            # Local carry-in is generate(truncation - 1): a miss needs the
            # boundary bit to propagate under a true carry, and a wrap
            # additionally needs the whole window to propagate.
            miss_threshold = 1
            wrap_threshold = window.length + 1
        else:
            if idx in rect:
                # Rectification repairs exactly the misses the window's
                # flag sees, so only misses *invisible* to the flag
                # survive: those where the previous window's local
                # carry-out is 0 too, i.e. the propagate run reaches all
                # the way down past the previous window's low bit.
                miss_threshold = window.result_low - windows[idx - 1].low
            else:
                miss_threshold = window.prediction_bits
            wrap_threshold = window.length
        put(window.result_low - 1, miss_threshold, -(1 << window.result_low))
        if idx != last:
            put(window.result_high, wrap_threshold,
                1 << (window.result_high + 1))
    return {bit: tuple(entries) for bit, entries in schedule.items()}


def _segment_matrix(n_states: int, cap: int, alpha: float, g: int,
                    with_generate: bool = True) -> np.ndarray:
    """Closed-form ``(carry, run)`` transition for ``g`` homogeneous bits.

    Equal to the one-bit transition raised to the ``g``-th power, but
    built directly: a trailing run of length ``r < g`` ends at the last
    non-propagate bit, whose kind alone fixes the carry, so those states
    get the start-independent geometric weights ``rho_p**r * rho_g`` /
    ``rho_p**r * rho_k``; the only start-dependent mass is the
    all-propagate branch (probability ``rho_p**g``), which keeps the
    carry and advances the run by ``g`` (saturating at ``cap``).

    ``with_generate=False`` is the single-bit transition without the
    generate branch — truncated bits move error mass on generate, so
    that branch cannot be error-preserving matrix algebra.
    """
    rho_g = alpha * alpha
    rho_p = 2.0 * alpha * (1.0 - alpha)
    rho_k = (1.0 - alpha) ** 2
    M = np.zeros((n_states, n_states), dtype=np.float64)
    if with_generate:
        fresh = min(g, cap)
        lam = rho_p ** np.arange(fresh)
        M[:, :fresh] = rho_k * lam
        M[:, cap + 1:cap + 1 + fresh] = rho_g * lam
        if g > cap:
            # In-gap runs that already saturated: the run ends at a
            # non-propagate bit cap..g-1 places back.
            if rho_p == 1.0:  # pragma: no cover - 2a(1-a) < 1 always
                tail = float(g - cap)
            else:
                tail = (rho_p ** cap - rho_p ** g) / (1.0 - rho_p)
            M[:, cap] += rho_k * tail
            M[:, 2 * cap + 1] += rho_g * tail
    else:
        if g != 1:
            raise ValueError("generate-free segments are single bits")
        M[:, 0] = rho_k
    src = np.arange(n_states)
    run = src % (cap + 1)
    M[src, src - run + np.minimum(run + g, cap)] += rho_p ** g
    return M


@lru_cache(maxsize=512)
def _cached_segment_matrix(n_states: int, cap: int, alpha: float, g: int,
                           with_generate: bool) -> np.ndarray:
    """Process-wide segment-matrix cache.

    The matrix depends only on ``(cap, alpha, g)``, not on the layout, so
    sweeps over many same-width configurations share entries — helped
    along by :func:`_compile_plan` rounding ``cap`` up to a power of two.
    Callers must treat the returned array as read-only.
    """
    return _segment_matrix(n_states, cap, alpha, g, with_generate)


def _normalize_profile(
    width: int, bit_one: Optional[Sequence[float]]
) -> Tuple[float, ...]:
    """Validate a per-bit one-probability profile (None means uniform)."""
    if bit_one is None:
        return (0.5,) * width
    profile = tuple(map(float, bit_one))
    if len(profile) != width:
        raise ValueError(
            f"bit_one has {len(profile)} entries for width {width}")
    if min(profile) < 0.0 or max(profile) > 1.0:
        bad = next(a for a in profile if not 0.0 <= a <= 1.0)
        raise ValueError(f"bit probability {bad} outside [0, 1]")
    return profile


def _compile_plan(
    width: int,
    windows: Tuple[object, ...],
    truncation: int,
    bit_one: Tuple[float, ...],
    max_support: int,
    static_kind: Optional[str] = None,
    rectified: Tuple[int, ...] = (),
) -> Tuple[Tuple[int, ...], Tuple[Tuple, ...], int, int]:
    """Symbolic pass: plan a layout's DP as ``(errors, ops, cap, n_states)``.

    The plan is a pure function of its arguments and holds no probability
    mass, so callers may compile once and replay many times (see
    :func:`adder_error_pmf`).
    """
    schedule = _emission_schedule(windows, truncation, rectified)
    if not schedule and truncation == 0:
        return ((0,), (), 1, 4)

    cap = max((threshold for entries in schedule.values()
               for threshold, _ in entries), default=0)
    cap = max(cap, 1)
    if cap & (cap - 1):
        # Round the saturation point up to a power of two: a few spare
        # states, but the segment matrices of a sweep's many
        # configurations collide in _cached_segment_matrix.
        cap = 1 << cap.bit_length()
    n_states = 2 * (cap + 1)  # state index = carry * (cap + 1) + run

    # -- symbolic pass -------------------------------------------------------
    #
    # Walk the event bits only, tracking per error value an upper bound on
    # its trailing propagate run (-1 == carry-1 block certainly empty).
    # That is enough to know which rows an emission *can* move, so the
    # full support and every emission's index plan are known before any
    # probability mass is touched; rows whose bound is loose just move
    # zero mass in the numeric replay.  Errors and bounds are growable
    # arrays whose first ``n`` rows are live, updated one whole emission
    # at a time.
    tbit_delta = {}
    for bit in range(min(truncation, width)):
        # Generate under the truncation: the OR'd result bit stays at one
        # while the exact sum bit drops to zero, costing 2**bit.  HOERAA's
        # top static bit is a half-adder sum instead of an OR, so its
        # generate branch additionally drops the bit itself — the loss
        # doubles to 2**(bit+1).
        tbit_delta[bit] = 1 << (bit + 1 if static_kind == "hoeraa"
                                and bit == truncation - 1 else bit)
    # Every error is a sum of distinct deltas, so it is bounded by their
    # total; past int64's reach the same code runs on Python ints.
    reach = sum(abs(delta) for entries in schedule.values()
                for _, delta in entries) + sum(tbit_delta.values())
    errors = np.zeros(64, dtype=np.int64 if reach < 1 << 62 else object)
    maxrun = np.full(64, -1, dtype=np.int64)
    n = 1
    ops: List[Tuple] = []

    def rows(values: np.ndarray) -> np.ndarray:
        """Row of each (distinct) error value, appending unseen values.

        New rows are numbered in ``values`` order, which keeps the row
        order of a one-value-at-a-time walk.
        """
        nonlocal errors, maxrun, n
        order = np.argsort(errors[:n])
        known = errors[order]
        at = np.minimum(np.searchsorted(known, values), n - 1)
        dst = order[at]
        new = np.flatnonzero(known[at] != values)
        if len(new):
            total = n + len(new)
            if total > max_support:
                raise AnalyticUnsupported(
                    f"error support exceeds {max_support} values; layout is "
                    "too irregular for the analytic backend")
            if total > len(errors):
                size = max(2 * len(errors), total)
                errors = np.concatenate(
                    [errors[:n], np.zeros(size - n, dtype=errors.dtype)])
                maxrun = np.concatenate(
                    [maxrun[:n], np.full(size - n, -1, dtype=np.int64)])
            errors[n:total] = values[new]
            dst[new] = np.arange(n, total)
            n = total
        return dst

    def matrix(alpha: float, g: int, with_generate: bool = True) -> np.ndarray:
        return _cached_segment_matrix(n_states, cap, alpha, g, with_generate)

    def advance_gap(start: int, stop: int) -> None:
        """Plan the event-free bits [start, stop) as segment matmuls."""
        i = start
        while i < stop:
            j = i + 1
            while j < stop and bit_one[j] == bit_one[i]:
                j += 1
            g = j - i
            ops.append(("mat", matrix(bit_one[i], g)))
            run = maxrun[:n]
            run[:] = np.minimum(cap, np.where(run >= 0, run + g, g - 1))
            i = j

    def emit(threshold: int, delta: int, keep_from: int,
             lo: int, hi: int) -> None:
        """Move state columns [lo, hi) of every row whose run can reach
        ``threshold`` to ``error + delta``; runs >= ``keep_from`` stay."""
        hot = np.flatnonzero(maxrun[:n] >= threshold)
        if not len(hot):
            return
        peak = maxrun[hot]
        maxrun[hot] = np.where(peak < keep_from, threshold - 1, peak)
        dst = rows(errors[hot] + delta)
        maxrun[dst] = np.maximum(maxrun[dst], np.minimum(peak, keep_from - 1))
        ops.append(("emit", hot, dst, lo, hi))

    event_bits = sorted(set(schedule) | set(tbit_delta))
    pos = 0
    for bit in event_bits:
        if bit in tbit_delta:
            if bit > pos:
                advance_gap(pos, bit)
            # Distinct errors shift to distinct errors, so the target rows
            # are unique and a direct indexed add is safe.
            alpha = bit_one[bit]
            n0 = n
            dst = rows(errors[:n0] - tbit_delta[bit])
            ops.append(("tbit", matrix(alpha, 1, with_generate=False), n0,
                        dst, alpha * alpha))
            run = maxrun[:n0]
            run[:] = np.where(run >= 0, np.minimum(cap, run + 1), -1)
            maxrun[dst] = np.maximum(maxrun[dst], 0)
        else:
            # The bit's own transition is an ordinary segment bit: fold it
            # into the preceding gap so the pair plans as one matmul.
            advance_gap(pos, bit + 1)
        entries = schedule.get(bit, ())
        j = 0
        while j < len(entries):
            threshold, delta = entries[j]
            # Peephole: a wrap (t1, +d) chased at the same bit by the next
            # window's miss (t2, -d) with t2 <= t1 composes to a pure range
            # move — every row's columns [t2, t1-1] shift to error - d and
            # columns >= t1 stay put (the wrapped mass is re-missed in
            # full).  Fusing skips the transient wrap rows entirely.
            if j + 1 < len(entries):
                t2, d2 = entries[j + 1]
                if d2 == -delta and t2 <= threshold:
                    j += 2
                    if t2 < threshold:  # else the pair is a no-op
                        emit(t2, d2, threshold, cap + 1 + t2,
                             cap + 1 + threshold)
                    continue
            j += 1
            # -1 for threshold 0: the carry-1 block is certainly empty.
            emit(threshold, delta, cap + 1, cap + 1 + threshold, n_states)
        pos = bit + 1
    # Segment matmuls are row-stochastic, so anything after the last
    # emission preserves every row's mass and cannot change the PMF.
    while ops and ops[-1][0] == "mat":
        ops.pop()
    return (tuple(errors[:n].tolist()), tuple(ops), cap, n_states)


def _execute_plan(
    width: int,
    plan: Tuple[Tuple[int, ...], Tuple[Tuple, ...], int, int],
) -> ErrorPMF:
    """Numeric pass: replay a compiled plan into the error PMF."""
    errors, ops, cap, n_states = plan
    probs = np.zeros((len(errors), n_states), dtype=np.float64)
    probs[0, 0] = 1.0  # carry 0, run 0, error 0
    first = True
    for op in ops:
        tag = op[0]
        if tag == "mat":
            if first:
                # Still the initial point mass: the product is one row.
                probs[0] = op[1][0]
                first = False
            else:
                probs = probs @ op[1]
        elif tag == "emit":
            _, src, dst, lo, hi = op
            moved = probs[src, lo:hi]
            probs[src, lo:hi] = 0.0
            probs[dst, lo:hi] += moved
            first = False
        else:  # "tbit": generate mass is pre-transition, lands post.
            _, M, n0, dst, rho_g = op
            gen = rho_g * probs[:n0].sum(axis=1)
            probs = probs @ M
            probs[dst, cap + 1] += gen
            first = False
    mass = probs.sum(axis=1)
    pairs = sorted((e, float(p)) for e, p in zip(errors, mass) if p > 0.0)
    return ErrorPMF(
        width=width,
        support=tuple(e for e, _ in pairs),
        probabilities=tuple(p for _, p in pairs),
    )


def adder_error_pmf(
    adder,
    bit_one: Optional[Sequence[float]] = None,
    max_support: int = MAX_SUPPORT,
) -> ErrorPMF:
    """Exact error PMF of a supported adder model.

    Raises :class:`AnalyticUnsupported` when the adder is not purely
    block-based (see :func:`analytic_layout`).

    The symbolic plan depends only on the (immutable) layout and the bit
    profile, so it is memoised on the adder instance per profile; repeat
    evaluations of the same configuration pay only the numeric replay.
    A support-cap verdict is memoised the same way and re-raised.
    """
    layout = analytic_layout(adder)
    if layout is None:
        raise AnalyticUnsupported(
            f"adder {getattr(adder, 'name', adder)!r} is not a pure "
            "block-based windowed adder; its arithmetic cannot be derived "
            "from a window layout")
    width, windows, truncation, static_kind, rectified = layout
    profile = _normalize_profile(width, bit_one)
    plans = getattr(adder, "_analytic_plans", None)
    if plans is None:
        plans = {}
        try:
            adder._analytic_plans = plans
        except (AttributeError, TypeError):
            pass
    key = (profile, max_support)
    plan = plans.get(key)
    if plan is None:
        try:
            plan = _compile_plan(width, tuple(windows), truncation, profile,
                                 max_support, static_kind, rectified)
        except AnalyticUnsupported as exc:
            # An over-cap verdict is as final as a plan: keep its message
            # so repeat requests re-raise instead of recompiling.
            plans[key] = str(exc)
            raise
        plans[key] = plan
    if isinstance(plan, str):
        raise AnalyticUnsupported(plan)
    return _execute_plan(width, plan)
