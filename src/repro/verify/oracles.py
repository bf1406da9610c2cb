"""The six differential layer checks.

Each oracle compares two independent descriptions of the same adder and
returns a :class:`~repro.verify.report.LayerResult`:

* :func:`check_behavioural` — behavioural ``add()`` (and, where both sides
  model it, the §3.3 ``ERR`` detection flags) against gate-level netlist
  simulation,
* :func:`check_verilog` — the netlist against its emitted-then-re-parsed
  Verilog via :mod:`repro.rtl.equivalence`,
* :func:`check_compiled` — interpreted netlist simulation against the
  compiled bit-sliced kernel (:mod:`repro.rtl.compile`), exact
  bit-equality on every output bus,
* :func:`check_stats` — measured error statistics (through
  :mod:`repro.engine`, so sharding/caching/parallelism apply) against the
  analytic ``error_probability()`` / ``mean_error_distance()`` /
  ``max_error_distance()`` models, with confidence bounds in the sampled
  regime,
* :func:`check_analytic` — the exact error-PMF backend
  (:mod:`repro.engine.analytic`) against exhaustively measured
  statistics: EP/MED/max-ED must agree to ``ANALYTIC_TOL`` at widths up
  to the exhaustive cap (an equality proof over every operand pair);
  above the cap the PMF invariants and the closed-form window models are
  checked instead,
* :func:`check_vector` — the scalar and NumPy-vectorised ``_add_impl``
  paths against each other (plus ``error_distance`` and
  ``detection_flags`` where exposed).

On any mismatch the failing pair is greedily shrunk
(:mod:`repro.verify.shrink`) before it is reported.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro import obs
from repro.adders.base import AdderModel
from repro.metrics.confidence import wilson_interval
from repro.rtl.compile import compile_netlist
from repro.rtl.equivalence import check_equivalence
from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate_bus
from repro.rtl.verilog import to_verilog
from repro.rtl.verilog_parser import parse_verilog
from repro.verify.report import Counterexample, LayerResult, LayerStatus
from repro.verify.shrink import shrink_counterexample
from repro.verify.vectors import VectorSet

#: Builds one family member at a width (raises ValueError when undefined).
AdderFactory = Callable[[int], AdderModel]

#: z for the sampled-regime consistency interval.  Deliberately far out in
#: the tail (~1e-5 two-sided): the oracle must flag real model divergence,
#: not sampling noise, across a whole registry of adders per run.
CONFIDENCE_Z = 4.5

#: Width cap for measuring stats exhaustively (2^{2N} pairs).
STATS_EXHAUSTIVE_WIDTH = 10

#: Width cap for proving the analytic PMF against exhaustive statistics.
ANALYTIC_EXHAUSTIVE_WIDTH = 12

#: Relative/absolute tolerance for exhaustive-vs-analytic float compares.
ANALYTIC_TOL = 1e-9

#: Scalar invocations per adder in the scalar-vs-vector layer.
MAX_SCALAR_PROBES = 4096


def _flags_source(model: AdderModel) -> Optional[Callable]:
    """The model's ``detection_flags``, or None where the ERR bus has none."""
    flags_fn = getattr(model, "detection_flags", None)
    spec = getattr(model, "spec", None)
    if not callable(flags_fn) or (spec is not None and spec.low_bits):
        # The §3.3 flags do not cover a fixed low part (they raise).
        return None
    return flags_fn


def _pack_flags(flags) -> Optional[object]:
    """Pack flag entries 1..k-1 into an ERR-bus word (None when k == 1)."""
    word = None
    for i, flag in enumerate(flags[1:]):
        contribution = (np.asarray(flag, dtype=np.int64) << i
                        if isinstance(flag, np.ndarray) else int(flag) << i)
        word = contribution if word is None else word | contribution
    return word


def _flags_word(model: AdderModel, a, b) -> Optional[object]:
    """Pack ``detection_flags`` (entries 1..k-1) into an ERR-bus word."""
    flags_fn = _flags_source(model)
    return None if flags_fn is None else _pack_flags(flags_fn(a, b))


def _plain_spec(model: AdderModel) -> bool:
    """A spec model with neither a fixed low part nor a rectify stage."""
    spec = getattr(model, "spec", None)
    return spec is not None and not spec.low_bits and spec.rectify is None


def _first_mismatch(expected: np.ndarray, got: np.ndarray) -> Optional[int]:
    bad = np.nonzero(np.asarray(expected) != np.asarray(got))[0]
    return int(bad[0]) if bad.size else None


def _shrink(model: AdderModel, build: Optional[AdderFactory], a: int, b: int,
            min_width: int, detail: str, predicate: Callable,
            bus: Optional[str] = None, netlist: bool = True) -> Counterexample:
    """Greedily shrink a failing pair across the family's widths.

    Each width resolves one candidate: ``model`` at its own width,
    ``build(width)`` otherwise, and none without a factory.  With
    ``netlist`` set, a candidate without a gate-level netlist (or without
    output ``bus``, when one is named) is skipped too.  ``predicate``
    receives the candidate and its netlist (None when ``netlist`` is off)
    and returns the ``fails(a, b)`` test at that width.
    """
    def fails_at(width: int):
        if width == model.width:
            candidate = model
        elif build is None:
            return None
        else:
            candidate = build(width)
        if not netlist:
            return predicate(candidate, None)
        built = candidate.build_netlist()
        if built is None or (bus is not None
                             and bus not in built.output_buses):
            return None
        return predicate(candidate, built)

    return shrink_counterexample(a, b, model.width, fails_at,
                                 min_width=min_width, detail=detail)


def check_behavioural(model: AdderModel, vectors: VectorSet,
                      build: Optional[AdderFactory] = None,
                      min_width: int = 1) -> LayerResult:
    """Layer (a): behavioural ``add()`` vs gate-level netlist simulation."""
    netlist = model.build_netlist()
    if netlist is None:
        return LayerResult("behavioural", LayerStatus.SKIP,
                           message="adder has no gate-level netlist model")

    stimulus = {"A": vectors.a, "B": vectors.b}
    expected = np.asarray(model.add(vectors.a, vectors.b))
    got = simulate_bus(netlist, stimulus, "S")
    index = _first_mismatch(expected, got)
    bus = "S"
    if index is None and "ERR" in netlist.output_buses:
        flags = _flags_word(model, vectors.a, vectors.b)
        if flags is not None:
            index = _first_mismatch(np.asarray(flags),
                                    simulate_bus(netlist, stimulus, "ERR"))
            bus = "ERR"
    if index is None:
        return LayerResult("behavioural", LayerStatus.PASS,
                           exhaustive=vectors.exhaustive,
                           vectors=vectors.count)

    a0, b0 = int(vectors.a[index]), int(vectors.b[index])
    cex = _shrink(model, build, a0, b0, min_width, f"netlist bus {bus}",
                  lambda m, nl: _behavioural_predicate(m, nl, bus), bus=bus)
    return LayerResult(
        "behavioural", LayerStatus.FAIL,
        exhaustive=vectors.exhaustive, vectors=vectors.count,
        message=f"behavioural add() and netlist bus {bus!r} disagree",
        counterexample=cex,
        details={"bus": bus},
    )


def _behavioural_predicate(model: AdderModel,
                           netlist: Netlist, bus: str):
    def fails(a: int, b: int) -> bool:
        if bus == "ERR":
            expected = _flags_word(model, a, b)
            if expected is None:
                return False
        else:
            expected = model.add(a, b)
        got = int(simulate_bus(netlist, {"A": a, "B": b}, bus)[()])
        return int(expected) != got

    return fails


def check_compiled(model: AdderModel, vectors: VectorSet,
                   build: Optional[AdderFactory] = None,
                   min_width: int = 1) -> LayerResult:
    """Layer: interpreted netlist simulation vs the compiled bit-sliced kernel.

    Exact bit-equality on *every* output bus between the gate-by-gate
    interpreter (:func:`repro.rtl.sim.simulate_bus`) and the word-level
    level program of :mod:`repro.rtl.compile` over the shared vector
    set — exhaustive at the default verify width, so the kernel compiler
    is proven, not sampled, for every registry family.
    """
    netlist = model.build_netlist()
    if netlist is None:
        return LayerResult("compiled", LayerStatus.SKIP,
                           message="adder has no gate-level netlist model")
    kernel = compile_netlist(netlist)
    stimulus = {"A": vectors.a, "B": vectors.b}
    outputs = kernel.run(stimulus)
    index = None
    bad_bus = ""
    for bus in sorted(netlist.output_buses):
        index = _first_mismatch(simulate_bus(netlist, stimulus, bus),
                                outputs[bus])
        if index is not None:
            bad_bus = bus
            break
    if index is None:
        return LayerResult(
            "compiled", LayerStatus.PASS,
            exhaustive=vectors.exhaustive, vectors=vectors.count,
            details={"gates": kernel.gate_count, "levels": kernel.levels,
                     "buses": sorted(netlist.output_buses)},
        )

    a0, b0 = int(vectors.a[index]), int(vectors.b[index])
    cex = _shrink(model, build, a0, b0, min_width,
                  f"compiled kernel bus {bad_bus}",
                  lambda m, nl: _compiled_predicate(nl, bad_bus), bus=bad_bus)
    return LayerResult(
        "compiled", LayerStatus.FAIL,
        exhaustive=vectors.exhaustive, vectors=vectors.count,
        message=("interpreted and compiled netlist simulation disagree "
                 f"on bus {bad_bus!r}"),
        counterexample=cex,
        details={"bus": bad_bus},
    )


def _compiled_predicate(netlist: Netlist, bus: str):
    kernel = compile_netlist(netlist)

    def fails(a: int, b: int) -> bool:
        stimulus = {"A": a, "B": b}
        return (int(simulate_bus(netlist, stimulus, bus)[()])
                != int(kernel.run(stimulus)[bus][()]))

    return fails


def check_verilog(model: AdderModel, build: Optional[AdderFactory] = None,
                  min_width: int = 1, max_exhaustive: int = 22,
                  random_vectors: int = 50_000,
                  seed: int = 2015) -> LayerResult:
    """Layer (b): netlist vs its Verilog emit→parse round-trip."""
    netlist = model.build_netlist()
    if netlist is None:
        return LayerResult("verilog", LayerStatus.SKIP,
                           message="adder has no gate-level netlist model")
    parsed = parse_verilog(to_verilog(netlist))
    report = check_equivalence(netlist, parsed,
                               max_exhaustive=max_exhaustive,
                               random_vectors=random_vectors, seed=seed)
    if report.equivalent:
        return LayerResult("verilog", LayerStatus.PASS,
                           exhaustive=report.exhaustive,
                           vectors=report.vectors_checked)

    raw = report.counterexample or {}
    cex = _shrink(model, build, int(raw.get("A", 0)), int(raw.get("B", 0)),
                  min_width, "verilog round-trip",
                  lambda m, nl: _roundtrip_predicate(
                      nl, parse_verilog(to_verilog(nl))))
    return LayerResult(
        "verilog", LayerStatus.FAIL,
        exhaustive=report.exhaustive, vectors=report.vectors_checked,
        message=("emitted Verilog re-parses to a non-equivalent netlist "
                 f"(bus {report.mismatched_bus!r})"),
        counterexample=cex,
        details={"bus": report.mismatched_bus},
    )


def _roundtrip_predicate(netlist: Netlist, parsed: Netlist):
    shared = sorted(set(netlist.output_buses) & set(parsed.output_buses))

    def fails(a: int, b: int) -> bool:
        stimulus = {"A": a, "B": b}
        return any(
            int(simulate_bus(netlist, stimulus, bus)[()])
            != int(simulate_bus(parsed, stimulus, bus)[()])
            for bus in shared
        )

    return fails


def check_stats(model: AdderModel, engine=None,
                exhaustive_width_cap: int = STATS_EXHAUSTIVE_WIDTH,
                samples: int = 50_000, seed: int = 2015,
                z: float = CONFIDENCE_Z,
                backend: str = "sampling") -> LayerResult:
    """Layer (c): measured error statistics vs the analytic models.

    Exhaustive through the engine when the width permits (equalities are
    then exact up to float tolerance); Monte-Carlo with a wide Wilson
    consistency interval otherwise.
    """
    from repro.engine import EvalRequest, evaluate

    exhaustive = model.width <= exhaustive_width_cap
    if exhaustive:
        request = EvalRequest.exhaustive(model, backend=backend)
    else:
        request = EvalRequest.monte_carlo(model, samples, seed=seed,
                                          backend=backend)
    stats = evaluate(request, engine=engine).stats
    # An analytic-backend answer (samples == 0) is the infinite-sample
    # limit: compare exactly even when the width is past the cap.
    exact = exhaustive or stats.samples == 0

    details: dict = {"mode": request.mode, "samples": stats.samples,
                     "measured_error_rate": stats.error_rate}
    failures: List[str] = []

    analytic_ep = model.error_probability()
    if analytic_ep is None:
        details["error_probability"] = "skip (no analytic model)"
    else:
        details["analytic_error_rate"] = analytic_ep
        if exact:
            if abs(stats.error_rate - analytic_ep) > ANALYTIC_TOL:
                failures.append(
                    f"measured error rate {stats.error_rate:.10f} != "
                    f"analytic {analytic_ep:.10f}")
        else:
            errors = int(round(stats.error_rate * stats.samples))
            interval = wilson_interval(errors, stats.samples, z=z)
            details["wilson_interval"] = [interval.lower, interval.upper]
            if analytic_ep not in interval:
                failures.append(
                    f"analytic error rate {analytic_ep:.8f} outside the "
                    f"[{interval.lower:.8f}, {interval.upper:.8f}] "
                    f"consistency interval (z={z})")

    mean_fn = getattr(model, "mean_error_distance", None)
    if callable(mean_fn) and exact:
        analytic_med = float(mean_fn())
        details["measured_med"] = stats.med
        details["analytic_med"] = analytic_med
        scale = max(1.0, abs(analytic_med))
        if abs(stats.med - analytic_med) > ANALYTIC_TOL * scale:
            failures.append(
                f"exhaustive MED {stats.med:.10f} != analytic "
                f"{analytic_med:.10f}")

    bound_fn = getattr(model, "max_error_distance", None)
    if callable(bound_fn):
        bound = int(bound_fn())
        details["max_ed_observed"] = stats.max_ed_observed
        details["max_ed_bound"] = bound
        if stats.max_ed_observed > bound:
            failures.append(
                f"observed max ED {stats.max_ed_observed} exceeds the "
                f"analytic bound {bound}")
        elif (exhaustive and _plain_spec(model)
              and len(model.windows) == 2 and model.windows[1].low > 0
              and stats.max_ed_observed != bound):
            # k = 2 plain layout: the bound is documented tight — demand
            # attainment.
            failures.append(
                f"k=2 max ED bound {bound} not attained "
                f"(observed {stats.max_ed_observed})")

    if model.is_exact and stats.error_rate != 0.0:
        failures.append(
            f"exact adder measured a nonzero error rate {stats.error_rate}")

    if failures:
        return LayerResult("stats", LayerStatus.FAIL, exhaustive=exhaustive,
                           vectors=stats.samples,
                           message="; ".join(failures), details=details)
    return LayerResult("stats", LayerStatus.PASS, exhaustive=exhaustive,
                       vectors=stats.samples, details=details)


def check_analytic(model: AdderModel, engine=None,
                   exhaustive_width_cap: int = ANALYTIC_EXHAUSTIVE_WIDTH
                   ) -> LayerResult:
    """Layer: the exact error-PMF backend vs exhaustively measured stats.

    For block-based adders the :mod:`repro.engine.analytic` DP claims the
    *full* signed error distribution.  At widths up to
    ``exhaustive_width_cap`` this oracle enumerates every operand pair
    through the sampling engine and demands EP, MED and max-ED agree to
    ``ANALYTIC_TOL`` — an equality proof over ``4**N`` patterns.  Above
    the cap it checks the PMF invariants (non-negative, sums to one,
    support within the max-ED bound) and the closed-form window models
    where they exist.  Adders without a block-based layout (overridden
    ``_add_impl`` and no spec) are skipped.
    """
    import math

    from repro.engine import EvalRequest, evaluate
    from repro.engine.analytic import (
        AnalyticUnsupported,
        adder_error_pmf,
        analytic_layout,
    )

    if analytic_layout(model) is None:
        return LayerResult(
            "analytic", LayerStatus.SKIP,
            message="adder is not a pure block-based windowed model")
    try:
        pmf = adder_error_pmf(model)
    except AnalyticUnsupported as exc:
        return LayerResult("analytic", LayerStatus.SKIP, message=str(exc))

    failures: List[str] = []
    total = math.fsum(pmf.probabilities)
    details: dict = {
        "support": len(pmf.support),
        "total_mass": total,
        "analytic_error_rate": pmf.error_rate,
        "analytic_med": pmf.med,
        "analytic_max_ed": pmf.max_abs,
    }
    if abs(total - 1.0) > ANALYTIC_TOL:
        failures.append(f"PMF mass {total!r} != 1")
    if any(p <= 0.0 for p in pmf.probabilities):
        failures.append("PMF carries non-positive probabilities")

    bound_fn = getattr(model, "max_error_distance", None)
    if callable(bound_fn):
        bound = int(bound_fn())
        details["max_ed_bound"] = bound
        if pmf.max_abs > bound:
            failures.append(f"PMF support reaches {pmf.max_abs}, beyond "
                            f"the analytic bound {bound}")

    exhaustive = model.width <= exhaustive_width_cap
    if exhaustive:
        stats = evaluate(EvalRequest.exhaustive(model), engine=engine).stats
        details["measured_error_rate"] = stats.error_rate
        details["measured_med"] = stats.med
        details["measured_max_ed"] = stats.max_ed_observed
        vectors = stats.samples
        if abs(pmf.error_rate - stats.error_rate) > ANALYTIC_TOL:
            failures.append(
                f"PMF error rate {pmf.error_rate:.12f} != exhaustive "
                f"{stats.error_rate:.12f}")
        scale = max(1.0, abs(stats.med))
        if abs(pmf.med - stats.med) > ANALYTIC_TOL * scale:
            failures.append(
                f"PMF MED {pmf.med:.12f} != exhaustive {stats.med:.12f}")
        if pmf.max_abs != stats.max_ed_observed:
            failures.append(
                f"PMF max ED {pmf.max_abs} != exhaustive "
                f"{stats.max_ed_observed}")
    else:
        vectors = len(pmf.support)
        ep_fn = model.error_probability()
        if ep_fn is not None and abs(pmf.error_rate - ep_fn) > ANALYTIC_TOL:
            failures.append(
                f"PMF error rate {pmf.error_rate:.12f} != closed-form "
                f"{ep_fn:.12f}")
        mean_fn = getattr(model, "mean_error_distance", None)
        try:
            closed_med = mean_fn() if callable(mean_fn) else None
        except (ArithmeticError, RuntimeError, ValueError):
            closed_med = None  # closed form undefined at this geometry
        if closed_med is not None:
            scale = max(1.0, abs(float(closed_med)))
            if abs(pmf.med - float(closed_med)) > ANALYTIC_TOL * scale:
                failures.append(
                    f"PMF MED {pmf.med:.12f} != closed-form "
                    f"{float(closed_med):.12f}")

    if failures:
        return LayerResult("analytic", LayerStatus.FAIL,
                           exhaustive=exhaustive, vectors=vectors,
                           message="; ".join(failures), details=details)
    return LayerResult("analytic", LayerStatus.PASS, exhaustive=exhaustive,
                       vectors=vectors, details=details)


def check_vector(model: AdderModel, vectors: VectorSet,
                 build: Optional[AdderFactory] = None,
                 max_scalar: int = MAX_SCALAR_PROBES,
                 min_width: int = 1) -> LayerResult:
    """Layer (d): scalar vs vectorised code paths of the same model.

    The vectorised path runs over the full stimulus; the scalar path is
    probed on an evenly-strided subset (``max_scalar`` pairs) since each
    probe is a Python-level call.  ``error_distance`` and
    ``detection_flags`` ride along wherever the model exposes them.
    """
    a_vec = np.asarray(model.add(vectors.a, vectors.b))
    ed_vec = np.asarray(model.error_distance(vectors.a, vectors.b))
    flags_fn = _flags_source(model)
    flags_vec = (None if flags_fn is None
                 else _pack_flags(flags_fn(vectors.a, vectors.b)))

    if vectors.count <= max_scalar:
        indices = np.arange(vectors.count)
    else:
        indices = np.unique(
            np.linspace(0, vectors.count - 1, max_scalar).astype(np.int64))
    probed = int(indices.size)
    exhaustive = vectors.exhaustive and probed == vectors.count

    # Python ints once, up front; each probe still makes its own scalar
    # add, error_distance and detection_flags call.
    a_list = vectors.a[indices].tolist()
    b_list = vectors.b[indices].tolist()
    sums = a_vec[indices].tolist()
    distances = ed_vec[indices].tolist()
    words = (None if flags_vec is None
             else np.asarray(flags_vec)[indices].tolist())

    mismatch: Optional[int] = None
    what = ""
    for j, (a0, b0) in enumerate(zip(a_list, b_list)):
        if int(model.add(a0, b0)) != sums[j]:
            mismatch, what = j, "add"
            break
        if int(model.error_distance(a0, b0)) != distances[j]:
            mismatch, what = j, "error_distance"
            break
        if words is not None:
            if int(_pack_flags(flags_fn(a0, b0))) != words[j]:
                mismatch, what = j, "detection_flags"
                break
    obs.count("verify.vector.probes",
              probed if mismatch is None else mismatch + 1)

    if mismatch is None:
        return LayerResult("vector", LayerStatus.PASS, exhaustive=exhaustive,
                           vectors=probed,
                           details={"vectorised_over": vectors.count})

    a0, b0 = a_list[mismatch], b_list[mismatch]
    cex = _shrink(model, build, a0, b0, min_width, f"scalar vs vector {what}",
                  lambda m, nl: _vector_predicate(m, what), netlist=False)
    return LayerResult(
        "vector", LayerStatus.FAIL, exhaustive=exhaustive, vectors=probed,
        message=f"scalar and vectorised {what} paths disagree",
        counterexample=cex, details={"method": what},
    )


def _vector_predicate(model: AdderModel, what: str):
    def fails(a: int, b: int) -> bool:
        aa = np.array([a], dtype=np.int64)
        bb = np.array([b], dtype=np.int64)
        if what == "error_distance":
            return int(model.error_distance(a, b)) != int(
                model.error_distance(aa, bb)[0])
        if what == "detection_flags":
            scalar = _flags_word(model, a, b)
            batched = _flags_word(model, aa, bb)
            if scalar is None or batched is None:
                return False
            return int(scalar) != int(np.asarray(batched)[0])
        return int(model.add(a, b)) != int(model.add(aa, bb)[0])

    return fails
