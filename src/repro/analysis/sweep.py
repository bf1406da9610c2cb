"""Configuration sweeps combining accuracy, delay and area models.

A sweep evaluates every requested configuration with the analytic error
model plus the FPGA characterisation, yielding the rows that Figs. 1/7/8
and Tables I/II plot or tabulate.  When a ``samples`` budget is given the
sweep additionally measures each configuration by Monte-Carlo through
:mod:`repro.engine` — sharded, optionally parallel (``gear sweep
--jobs N``) and optionally cached (``--cache``), with results guaranteed
bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.adders.base import AdderModel
from repro.core.configspace import enumerate_configs
from repro.core.error_model import paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig
from repro.spec.catalog import gear_spec
from repro.timing.fpga import AdderCharacterization, characterize

#: Default root seed for measured sweep columns (the paper's year).
SWEEP_SEED = 2015


@dataclass(frozen=True)
class SweepResult:
    """One evaluated configuration of a sweep.

    The ``measured_*`` fields are filled only when the sweep ran with a
    Monte-Carlo sample budget; they come from the evaluation engine and
    are deterministic for a given (samples, seed).
    """

    name: str
    r: int
    p: int
    k: int
    error_probability: float
    accuracy_pct: float
    med: float
    ned: float
    delay_ns: Optional[float]
    luts: Optional[int]
    measured_error_rate: Optional[float] = None
    measured_med: Optional[float] = None
    measured_ned: Optional[float] = None
    samples: Optional[int] = None

    @property
    def delay_ned_product(self) -> Optional[float]:
        """The paper's Delay × NED figure of merit (seconds × NED)."""
        if self.delay_ns is None:
            return None
        return self.delay_ns * 1e-9 * self.ned

    def to_json_row(self) -> dict:
        """JSON-safe row used by ``gear sweep --json``.

        Deliberately excludes execution details (jobs, timings) so output
        is byte-identical no matter how the sweep was scheduled.
        """
        return {
            "name": self.name,
            "r": self.r,
            "p": self.p,
            "k": self.k,
            "error_probability": self.error_probability,
            "accuracy_pct": self.accuracy_pct,
            "med": self.med,
            "ned": self.ned,
            "delay_ns": self.delay_ns,
            "luts": self.luts,
            "measured_error_rate": self.measured_error_rate,
            "measured_med": self.measured_med,
            "measured_ned": self.measured_ned,
            "samples": self.samples,
        }


def _characterize_quietly(adder: AdderModel) -> Optional[AdderCharacterization]:
    try:
        return characterize(adder)
    except ValueError:
        return None


def _measure(adder: AdderModel, samples: Optional[int], seed: Optional[int],
             engine, backend: str = "sampling") -> dict:
    """Engine-backed Monte-Carlo columns (empty when no budget given)."""
    if not samples:
        return {}
    from repro.engine import EvalRequest, evaluate

    stats = evaluate(
        EvalRequest.monte_carlo(adder, samples, seed=seed, backend=backend),
        engine=engine,
    ).stats
    return {
        "measured_error_rate": stats.error_rate,
        "measured_med": stats.med,
        "measured_ned": stats.ned,
        "samples": stats.samples,
    }


def sweep_gear_configs(
    n: int,
    r_values: Optional[Sequence[int]] = None,
    allow_partial: bool = True,
    with_hardware: bool = True,
    samples: Optional[int] = None,
    seed: Optional[int] = SWEEP_SEED,
    engine=None,
    backend: str = "sampling",
) -> List[SweepResult]:
    """Evaluate every GeAr configuration of width ``n`` (optionally per R).

    Args:
        n: operand width.
        r_values: restrict to these R values (None = all).
        allow_partial: include non-divisible configurations.
        with_hardware: also run netlist characterisation (slower).
        samples: when given, also measure each configuration through the
            engine (Monte-Carlo on the ``sampling`` backend; the exact
            PMF on ``analytic``, where the measured columns report
            ``samples`` as 0).
        seed: root seed for the measured columns.
        engine: :class:`repro.engine.Engine` override (None = default).
        backend: engine backend for the measured columns
            (``sampling`` / ``analytic`` / ``auto``).
    """
    configs: List[GeArConfig] = []
    if r_values is None:
        configs = enumerate_configs(n, allow_partial=allow_partial)
    else:
        for r in r_values:
            configs.extend(enumerate_configs(n, r=r, allow_partial=allow_partial))

    return [_row(GeArAdder(cfg), with_hardware, None, samples, seed, engine,
                 backend) for cfg in configs]


def _gear_point(adder: AdderModel) -> Optional[AdderModel]:
    """The model of the adder's GeAr point, when the adder computes
    exactly its sums.

    A window's result bit ``j`` is the carry-free sum of operand bits
    ``[w.low, j]``, so two layouts add alike iff they give every result bit
    the same ``low``.  ETAII(16,8) and GDA(8,2,2) thereby match their GeAr
    points; GDA(20,4,6), whose blocks the GeAr layout does not reproduce,
    does not.  A GeAr adder is its own point.
    """
    cfg = getattr(adder, "config", None)
    if not isinstance(cfg, GeArConfig):
        return None
    spec = gear_spec(cfg.n, cfg.r, cfg.p, allow_partial=cfg.allow_partial)
    if tuple(adder.windows) == spec.windows:
        return adder

    def sources(windows):
        return [w.low for w in windows
                for _ in range(w.result_low, w.result_high + 1)]

    return spec.to_model() if sources(spec.windows) == sources(adder.windows) \
        else None


def _row(adder: AdderModel, with_hardware: bool,
         med_fn: Optional[Callable[[AdderModel], float]],
         samples: Optional[int], seed: Optional[int], engine,
         backend: str) -> SweepResult:
    """One sweep row; see :func:`sweep_adder_family` for the columns."""
    char = _characterize_quietly(adder) if with_hardware else None
    prob = paper_error_probability(adder)
    point = _gear_point(adder)
    if point is not None:
        med = point.mean_error_distance()
        bound = point.max_error_distance()
        ned = med / bound if bound else 0.0
        r, p, k = adder.config.r, adder.config.p, len(adder.windows)
    else:
        med = med_fn(adder) if med_fn else float("nan")
        bound = getattr(adder, "max_error_distance", None)
        ned = med / bound() if (med_fn and callable(bound) and bound()) else float("nan")
        r = p = 0
        k = 1
    return SweepResult(
        name=adder.name,
        r=r,
        p=p,
        k=k,
        error_probability=prob if prob is not None else float("nan"),
        accuracy_pct=(1.0 - prob) * 100.0 if prob is not None else float("nan"),
        med=med,
        ned=ned,
        delay_ns=char.delay_ns if char else None,
        luts=char.luts if char else None,
        **_measure(adder, samples, seed, engine, backend),
    )


def sweep_adder_family(
    adders: Iterable[AdderModel],
    med_fn: Optional[Callable[[AdderModel], float]] = None,
    samples: Optional[int] = None,
    seed: Optional[int] = SWEEP_SEED,
    engine=None,
    backend: str = "sampling",
) -> List[SweepResult]:
    """Evaluate a heterogeneous family of adders into comparable rows.

    The error probability is the paper's
    (:func:`~repro.core.error_model.paper_error_probability`).  Adders that
    compute the same sums as their GeAr ``config`` report its analytic
    MED/NED, R and P, with ``k`` their own sub-adder count.  For the rest,
    ``med_fn`` supplies a mean-error-distance estimate (e.g. a Monte-Carlo
    closure); when absent, MED and NED report as NaN.  A ``samples`` budget adds
    engine-measured columns exactly as in :func:`sweep_gear_configs`.
    """
    return [_row(adder, True, med_fn, samples, seed, engine, backend)
            for adder in adders]


def sweep_to_json(results: Sequence[SweepResult], n: Optional[int] = None) -> dict:
    """Deterministic JSON document for a sweep (``gear sweep --json``)."""
    payload = {
        "experiment": "sweep",
        "rows": [res.to_json_row() for res in results],
    }
    if n is not None:
        payload["n"] = n
    return payload
