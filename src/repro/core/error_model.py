"""Error-probability models for GeAr configurations (§3.2, Eqs. 4–7).

The paper's model and the exact chains it is checked against:

1. :func:`error_probability` — the paper's analytic model.  Every
   speculative sub-adder ``s`` (window base ``b_s = R·s``) contributes R
   error-generating events ``Z_{s,m}``: a carry *generated* at bit
   ``b_s - R + (m-1)`` that *propagates* through every bit up to the top of
   the prediction window (Eq. 5, probability ``ρ[Gr]·ρ[Pr]^(L-m)``).
   Two events are mutually exclusive when one's generate position lies in
   the other's propagate span (Eq. 6), which makes compatible event sets
   *disjoint on the bit line*; their joint probability is then the product
   of the individual probabilities.  The inclusion–exclusion sum of Eq. 7
   therefore collapses to a O(k²·R²) dynamic program over "which window
   hosts the most recent selected event".

2. :func:`error_probability_brute` — literal depth-first evaluation of
   Eq. 7 (one term per compatible event subset).  Exponentially slower;
   used to validate the DP in tests.

3. :func:`error_probability_windows` — the exact error probability of any
   window layout, computed from first principles (a dynamic program over
   bit positions with state (carry into the next bit, trailing
   propagate-run length)) with no reference to the paper's event set, for
   uniform operands or per-bit (generate, propagate) rates.  An adder
   model's ``error_probability()`` runs it over the model's own windows,
   so ``GeArAdder(cfg).error_probability()`` is the exact rate of a GeAr
   point.

:func:`mean_error_distance_windows` is the matching O(N) closed form of
the mean error distance, behind a model's ``mean_error_distance()``;
``max_error_distance()`` comes from the spec.  These closed forms
describe plain speculative layouts; the exact error PMF of any layout,
including static low parts and rectify stages, is
:func:`repro.engine.analytic.adder_error_pmf`.

A noteworthy reproduction finding: engines 1 and 3 agree to machine
precision on every strict configuration (integer ``(N-L)/R``).  The paper's event set looks truncated
(each window only lists generates within the R bits below it), but it is
actually *complete*: a carry generated deeper down that propagates into a
window's prediction span necessarily fires the event of the window owning
that generate position, because the windows' generate ranges tile every
lower bit position.  So Eq. 5-7 is an exact formula, not an
approximation, for uniform operands — the chain is kept as an
independent derivation that validates this, and the ablation bench
instead quantifies how far *non-uniform* operand distributions pull the
true error rate away from the model.

For *partial* configurations (``(N-L) % R != 0``, used by Table IV's
R = 3, 6, 7 rows) the model stays on the paper's nominal arithmetic — a
full-R last window — while hardware anchors a shortened last sub-adder at
the top of the word, which errs strictly less.  The model is therefore
conservative there; engine 3 uses the actual window geometry and matches
functional simulation.

All engines assume ρ[generate] = 1/4 and ρ[propagate] = 1/2 per bit
(uniform operands), exactly as §3.2 does, unless rates are passed.

Adder models report the exact rate of their windows from
``error_probability()``; :func:`paper_error_probability` is the value the
paper reports for an adder, engine 1 wherever the adder is a GeAr point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.gear import GeArConfig


@dataclass(frozen=True)
class ErrorEvent:
    """One error-generating event Z_{s,m} of Eq. 5.

    Attributes:
        window: speculative sub-adder index s (1-based, 1..k-1).
        m: resultant-bit index within the sub-adder (1..R).
        generate_pos: absolute bit that must generate a carry.
        propagate_low / propagate_high: inclusive absolute span of bits that
            must all propagate.
    """

    window: int
    m: int
    generate_pos: int
    propagate_low: int
    propagate_high: int

    @property
    def propagate_count(self) -> int:
        """Number of propagate bits, equal to L - m in Eq. 5."""
        return self.propagate_high - self.propagate_low + 1

    @property
    def probability(self) -> float:
        """ρ[Z] = ρ[Gr] · ρ[Pr]^(L-m) with ρ[Gr]=1/4, ρ[Pr]=1/2 (Eq. 5)."""
        return 0.25 * 0.5 ** self.propagate_count

    def excludes(self, other: "ErrorEvent") -> bool:
        """Mutual exclusivity per Eq. 6.

        True when the two events demand contradictory states of some bit:
        a shared generate position is fine (same demand), but a generate
        inside the other event's propagate span is a contradiction.
        """
        if self.generate_pos == other.generate_pos:
            return self.window != other.window or self.m != other.m
        if other.propagate_low <= self.generate_pos <= other.propagate_high:
            return True
        if self.propagate_low <= other.generate_pos <= self.propagate_high:
            return True
        return False


def error_events(config: GeArConfig) -> List[ErrorEvent]:
    """All R·(k-1) error-generating events of a configuration.

    Positions follow the paper's nominal arithmetic (window base ``R·s``)
    even in partial mode, matching how Table IV applies the model to
    non-divisible (N-L)/R configurations.
    """
    events: List[ErrorEvent] = []
    for s in range(1, config.k):
        base = config.r * s
        span_high = base + config.p - 1
        for m in range(1, config.r + 1):
            q = base - config.r + (m - 1)
            events.append(
                ErrorEvent(
                    window=s,
                    m=m,
                    generate_pos=q,
                    propagate_low=q + 1,
                    propagate_high=span_high,
                )
            )
    return events


def error_probability(config: GeArConfig) -> float:
    """ρ[Error] per the paper's model (Eq. 7), evaluated by dynamic program.

    Compatible event subsets contain at most one event per window and have
    pairwise-disjoint supports, so ``1 - ρ[Error]`` equals the sum over
    compatible subsets of ``∏(-ρ[Z])`` — computed in O(k²·R²) by tracking
    the most recent window that hosts a selected event.
    """
    if config.is_exact:
        return 0.0
    r, p = config.r, config.p
    windows = config.k - 1

    def allowed_sum(s: int, prev_end: int) -> float:
        """Σ over events of window s with generate position > prev_end."""
        total = 0.0
        base = r * s
        for m in range(1, r + 1):
            q = base - r + (m - 1)
            if q > prev_end:
                total += 0.25 * 0.5 ** (base + p - 1 - q)
        return total

    # signed[s] = Σ ∏(-ρ) over subsets whose last (highest) event window is s
    signed: List[float] = [0.0] * (windows + 1)
    total = 1.0  # the empty subset
    for s in range(1, windows + 1):
        acc = -allowed_sum(s, -1)  # subsets where s is the only/first window
        for s_prev in range(1, s):
            prev_end = r * s_prev + p - 1
            contribution = -allowed_sum(s, prev_end)
            acc += signed[s_prev] * contribution
        signed[s] = acc
        total += acc
    probability = 1.0 - total
    # Clamp away floating-point dust.
    return min(1.0, max(0.0, probability))


def paper_error_probability(adder) -> Optional[float]:
    """The error probability the paper reports for ``adder``.

    Adders that are GeAr points — GeAr itself, ACA-I, ACA-II, ETAII and
    GDA (§4.4) — carry their :class:`GeArConfig` as ``config`` and get the
    §3.2 model, :func:`error_probability`.  Any other adder reports its
    own ``error_probability()``: the exact rate of its window layout, or
    ``None`` when it has no analytic model.  The two differ only on
    partial configurations, where the model keeps the paper's nominal
    full-R last window and is conservative.
    """
    config = getattr(adder, "config", None)
    if isinstance(config, GeArConfig):
        return error_probability(config)
    return adder.error_probability()


def error_probability_brute(config: GeArConfig, max_events: int = 22) -> float:
    """Literal Eq. 7: inclusion–exclusion over all compatible event subsets.

    Exponential in the event count; refuses configurations with more than
    ``max_events`` events.  Exists to cross-check :func:`error_probability`.
    """
    events = error_events(config)
    if len(events) > max_events:
        raise ValueError(
            f"{len(events)} events exceed max_events={max_events}; "
            "use error_probability() instead"
        )

    def recurse(index: int, chosen: List[ErrorEvent]) -> float:
        if index == len(events):
            if not chosen:
                return 0.0
            sign = -1.0 if len(chosen) % 2 == 0 else 1.0
            joint = 1.0
            for e in chosen:
                joint *= e.probability
            return sign * joint
        total = recurse(index + 1, chosen)
        event = events[index]
        if all(not event.excludes(c) for c in chosen):
            chosen.append(event)
            total += recurse(index + 1, chosen)
            chosen.pop()
        return total

    return recurse(0, [])


def error_probability_windows(
    windows, n: int, rates: Optional[Sequence[Tuple[float, float]]] = None,
) -> float:
    """Exact ρ[Error] of an arbitrary windowed speculative adder.

    Works from the actual window geometry (``WindowSpec``), so it covers
    ETAIIM's fused segments and GDA's zero-anchored blocks as well as plain
    GeAr configurations.  Windows anchored at bit 0 see every lower bit and
    cannot err, so they contribute no check.

    A window errs iff the true carry entering its lowest read bit is 1
    *and* all its prediction bits propagate — then and only then does its
    result field miss an incoming carry.  The probability of that is a
    forward DP over bit positions with state ``(carry into the next bit,
    trailing propagate-run length)``, the run length capped at the largest
    prediction depth.  When every P prediction bits propagate, the carry
    leaving the prediction span equals the carry entering it, so the check
    at the span's top bit sees exactly the quantities needed.

    ``rates`` gives each bit's ``(generate, propagate)`` probabilities,
    LSB first; ``None`` is the paper's uniform-operand ``(1/4, 1/2)``.
    The result is exact whenever operand bits are independent across
    positions (see :mod:`repro.core.bitwise_model` for measured rates).
    """
    if rates is None:
        rates = ((0.25, 0.5),) * n
    elif len(rates) != n:
        raise ValueError(f"rates cover {len(rates)} bits, the adder has {n}")
    if len(windows) == 1:
        return 0.0
    checks = {}
    max_pred = 0
    for w in windows[1:]:
        if w.low == 0:
            continue  # sees all lower bits: exact
        pred = w.prediction_bits
        max_pred = max(max_pred, pred)
        checks.setdefault(w.result_low - 1, []).append(pred)
    if not checks:
        return 0.0

    cap = max_pred
    # state[(carry, run)] = probability mass; run capped at `cap`.
    state = {(0, 0): 1.0}
    error_mass = 0.0
    for bit, (g, p) in enumerate(rates):
        kill = max(0.0, 1.0 - g - p)
        nxt: dict = {}

        def put(key, value):
            if value:
                nxt[key] = nxt.get(key, 0.0) + value

        for (carry, run), mass in state.items():
            put((carry, min(run + 1, cap)), mass * p)  # propagate
            put((1, 0), mass * g)  # generate
            put((0, 0), mass * kill)
        if bit in checks:
            for pred in sorted(checks[bit], reverse=True):
                for (carry, run) in list(nxt):
                    if carry == 1 and run >= pred:
                        error_mass += nxt.pop((carry, run))
        state = nxt
    return error_mass


def accuracy_percentage(config: GeArConfig) -> float:
    """(1 - ρ[Error]) · 100 — the quantity plotted in Fig. 7."""
    return (1.0 - error_probability(config)) * 100.0


def mean_error_distance_windows(windows, n: int) -> float:
    """Exact E[|approx - exact|] of a windowed speculative adder.

    A window that misses its carry-in loses ``2^{result_low}``, unless its
    result field was all ones: then the lost carry would have overflowed
    into the next window, which misses it too, so one ``2^{result_high+1}``
    is counted twice and comes back (the wrap identity,
    ``docs/error_model.md`` §5).  The last window has no successor; its
    overflow is the speculative carry out.  With ``c(q)`` the probability
    of a carry into bit ``q``, by linearity of expectation

        MED = Σ_s c(low_s)·(ρ[Pr]^{P_s}·2^{result_low_s}
                            - [s not last]·ρ[Pr]^{P_s+R_s}·2^{result_high_s+1})

    over the speculative windows with ``low_s > 0`` — O(N), at any width.
    The error is never negative, so its mean is the MED.

    Args:
        windows: the adder's speculative ``WindowSpec`` layout.
        n: operand width.
    """
    carry = [0.0]  # c(q+1) = ρ[Gr] + ρ[Pr]·c(q)
    for _ in range(n):
        carry.append(0.25 + 0.5 * carry[-1])
    last = len(windows) - 1
    med = 0.0
    for s, w in enumerate(windows[1:], start=1):
        if w.low == 0:
            continue  # sees all lower bits: exact
        miss = carry[w.low] * 0.5 ** w.prediction_bits
        med += miss * 2.0 ** w.result_low
        if s < last:
            med -= miss * 0.5 ** w.result_bits * 2.0 ** (w.result_high + 1)
    return med
