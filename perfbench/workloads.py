"""The benchmark's three workloads: ``explore``, ``gate_campaign``, ``serve_mix``.

Each workload is built from a seed in a fresh process (``rep.py``) with
a fresh shard-cache directory, so kernel, plan and disk caches start
empty.  Construction is the set-up (imports, script generation and, for
``serve_mix``, daemon start and warm-up); :meth:`drive` is the timed
phase; :meth:`check` verifies the outputs; :meth:`layer_metrics` turns
the traced run's spans and the program's own counters into the
per-layer metrics of :mod:`metrics`.

The program receives only generated inputs.  The seed shuffles the op
order and draws the Monte-Carlo seeds; every output that the seed does
not change is folded into a digest that must match ``digests.json``,
and every seed-dependent output is checked against a twin or an
offline oracle instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from metrics import EXPERIMENT_NAMES, VERIFY_LAYERS, median, ratio
from spans import layer_totals

OK, KNOWN, FAILED = "ok", "known", "failed"

#: Design points on which ``backend="auto"`` raises AnalyticUnsupported
#: ("error support exceeds 1048576 values") instead of falling back to
#: sampling, because ``AnalyticBackend.supports`` checks only
#: ``analytic_layout``.  They stay in ``explore`` so the defect shows:
#: the ops are timed and count against ``ok_ratio``.
KNOWN_DEFECTS = {("gear_r1p3@32", "auto"), ("aca1_l4@32", "auto")}

#: Workload sizes; ``tiny`` exists for the harness self-test.
SIZES = {
    "full": {
        "explore": {"families": None, "widths": (16, 32), "gear_n": 32,
                    "gear_r": (4, 8), "samples": 100_000,
                    "experiments": EXPERIMENT_NAMES},
        "gate_campaign": {"families": None, "widths": (16,), "gear_n": 16,
                          "gear_r": (4, 8), "vectors": 256,
                          "verify_keys": None},
        "serve_mix": {"requests": 400},
    },
    "tiny": {
        "explore": {"families": ("rca", "gear_r2p2", "cesa_rect"),
                    "widths": (8,), "gear_n": 8, "gear_r": (2,),
                    "samples": 4096, "experiments": ("fig1", "table3")},
        "gate_campaign": {"families": ("rca", "gear_r2p2", "hoeraa"),
                          "widths": (8,), "gear_n": 8, "gear_r": (2,),
                          "vectors": 64, "verify_keys": ("gear_r2p2",)},
        "serve_mix": {"requests": 60},
    },
}

#: Operand distributions of ``explore``'s Monte-Carlo requests, one per
#: design point in equal shares, dealt to the points in a seeded order:
#: ``None`` is the engine's uniform default, a number is the one-density
#: of a per-bit-independent ``SparseOperands``.  Taken
#: from the paper's distribution ablation
#: (``repro.experiments.ablation``), where two of the five operand
#: distributions are ``SparseOperands`` with these densities; its
#: Gaussian and exponential distributions are left uniform here.
MC_DENSITIES = (None, None, None, 0.25, 0.75)

#: Fixed fault-campaign vector seed, so FaultReport counts are digestible.
FAULT_SEED = 7


def design_points(families, widths, gear_n: int, gear_r) -> Dict[str, Callable]:
    """Label -> spec constructor for every catalog family and GeAr(n, R, P)."""
    from repro.core.configspace import enumerate_configs
    from repro.spec import SPEC_CATALOG, catalog_spec, gear_spec

    points: Dict[str, Callable] = {}
    for key in families or SPEC_CATALOG:
        for width in widths:
            points[f"{key}@{width}"] = functools.partial(catalog_spec, key,
                                                         width)
    for r in gear_r:
        for cfg in enumerate_configs(gear_n, r=r, allow_partial=True):
            points[f"gear({gear_n},{r},{cfg.p})"] = functools.partial(
                gear_spec, gear_n, r, cfg.p, allow_partial=cfg.allow_partial)
    return points


def digest_of(items: Dict[str, object]) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process in MiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Workload:
    """One closed-loop caller issuing ``self.ops`` through ``self.run``."""

    name = ""

    def script(self):
        return {"ops": self.ops}

    def drive(self):
        """The timed phase: ``(kind, latency_s, outcome)`` per op."""
        records = []
        for index, op in enumerate(self.ops):
            self.tracer.begin_op(index)
            start = time.perf_counter()
            try:
                with self.tracer.span(f"{self.name}.op"):
                    outcome = self.run(op)
            except Exception as exc:  # a failed op is counted, not fatal
                outcome = FAILED
                if len(self.errors) < 20:
                    self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            records.append((op[0], time.perf_counter() - start, outcome))
        return records

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def close(self) -> None:
        pass


def program_layers(frame) -> Dict[str, float]:
    """Per-layer metrics read from the program's own ``repro.obs`` frame."""
    builds = [s for path, s in frame.spans.items()
              if path.endswith("rtl.compile.build")]
    hits = frame.counters.get("engine.cache.hit", 0)
    misses = frame.counters.get("engine.cache.miss", 0)
    return {
        "rtl.compile.calls": sum(s.count for s in builds),
        "rtl.compile.busy_s": sum(s.total_s for s in builds),
        "rtl.compile.word_ops": frame.counters.get("rtl.compile.word_ops", 0),
        "engine.cache.hit": hits,
        "engine.cache.miss": misses,
        "engine.cache.store": frame.counters.get("engine.cache.store", 0),
        "engine.cache.hit_ratio": ratio(hits, hits + misses),
    }


def bench_layers(totals) -> Dict[str, float]:
    """Per-layer metrics from the benchmark's own spans around its calls."""
    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def busy(name):
        return totals[name]["self_s"] if name in totals else 0.0

    out: Dict[str, float] = {}
    for layer in ("spec.resolve", "spec.to_netlist", "engine.analytic",
                  "engine.sampling", "engine.compiled", "rtl.faults"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.busy_s"] = busy(layer)
    analytic = totals.get("engine.analytic")
    if analytic:
        out["engine.analytic.p50_ms"] = 1e3 * median(analytic["durations"])
        out["engine.analytic.fail"] = analytic["errors"]
        out["engine.analytic.fail_s"] = analytic["error_s"]
    for name in EXPERIMENT_NAMES:
        out[f"experiments.{name}.s"] = busy(f"experiments.{name}")
    out["experiments.busy_s"] = sum(busy(f"experiments.{name}")
                                    for name in EXPERIMENT_NAMES)
    out["rtl.sta.busy_s"] = busy("rtl.sta")
    for layer in VERIFY_LAYERS:
        out[f"verify.{layer}.busy_s"] = busy(f"verify.{layer}")
    return out


class Explore(Workload):
    """The offline researcher: every experiment, then a design-space sweep."""

    name = "explore"

    def __init__(self, seed: int, size: str, workdir: pathlib.Path,
                 tracer) -> None:
        from repro.engine import AnalyticUnsupported, Engine, EvalRequest
        from repro.engine import use_engine
        from repro.experiments import EXPERIMENTS
        from repro.utils.distributions import SparseOperands

        cfg = SIZES[size][self.name]
        self._unsupported = AnalyticUnsupported
        self._request = EvalRequest
        self._sparse = SparseOperands
        self._use_engine = use_engine
        self._experiments = EXPERIMENTS
        self.samples = cfg["samples"]
        self.tracer = tracer
        self.engine = Engine(jobs=1, cache=str(workdir / "cache"))
        self.points = design_points(cfg["families"], cfg["widths"],
                                    cfg["gear_n"], cfg["gear_r"])
        rng = random.Random(seed)
        names = list(cfg["experiments"])
        rng.shuffle(names)
        labels = list(self.points)
        density = {label: MC_DENSITIES[i % len(MC_DENSITIES)] for i, label
                   in enumerate(rng.sample(labels, len(labels)))}
        self.mc = {label: (rng.randrange(1 << 31), density[label])
                   for label in labels}
        evals = [("eval", label, kind) for label in labels
                 for kind in ("auto", "sampling", "compiled")]
        rng.shuffle(evals)
        self.ops = [("experiment", name) for name in names] + evals
        self.adders: Dict[str, object] = {}
        self.results: Dict[Tuple, dict] = {}
        self.errors: List[str] = []

    def script(self):
        return {"ops": self.ops, "mc": self.mc}

    def _adder(self, label: str):
        adder = self.adders.get(label)
        if adder is None:
            with self.tracer.span("spec.resolve"):
                adder = self.points[label]().to_model()
            self.adders[label] = adder
        return adder

    def run(self, op) -> str:
        if op[0] == "experiment":
            name = op[1]
            with self.tracer.span(f"experiments.{name}"):
                with self._use_engine(self.engine):
                    result = self._experiments[name].run(engine=self.engine)
            self.results[op] = result.to_json()
            return OK
        _, label, kind = op
        adder = self._adder(label)
        if kind == "auto":
            request = self._request.exhaustive(adder, backend="auto")
            layer = "engine.analytic"  # every auto point here is analytic
        else:
            seed, density = self.mc[label]
            dist = (None if density is None
                    else self._sparse(adder.width, one_density=density))
            request = self._request.monte_carlo(
                adder, self.samples, seed=seed, distribution=dist,
                backend=kind)
            layer = f"engine.{kind}"
        try:
            with self.tracer.span(layer):
                result = self.engine.evaluate(request)
        except self._unsupported:
            if (label, kind) in KNOWN_DEFECTS:
                return KNOWN
            raise
        self.results[op] = result.to_json()
        return OK

    def check(self) -> Tuple[str, List[str]]:
        problems = []
        for label in self.points:
            sampled = self.results.get(("eval", label, "sampling"))
            compiled = self.results.get(("eval", label, "compiled"))
            if sampled is not None and sampled != compiled:
                problems.append(f"{label}: compiled Monte-Carlo result "
                                "differs from its sampling twin")
        # Monte-Carlo results depend on the seed; the twin check covers
        # them.  A known-defect point is left out so that fixing the
        # defect does not change the digest.
        items = {
            "/".join(map(str, op)): payload
            for op, payload in self.results.items()
            if op[0] == "experiment"
            or (op[2] == "auto" and (op[1], "auto") not in KNOWN_DEFECTS)
        }
        return digest_of(items), problems

    def layer_metrics(self, events, frame) -> Dict[str, float]:
        out = bench_layers(layer_totals(events))
        out.update(program_layers(frame))
        for kind in ("sampling", "compiled"):
            out[f"engine.{kind}.samples_per_s"] = ratio(
                out[f"engine.{kind}.calls"] * self.samples,
                out[f"engine.{kind}.busy_s"])
        return out


class GateCampaign(Workload):
    """The hardware user: netlists, kernels, timing, faults, verification."""

    name = "gate_campaign"

    def __init__(self, seed: int, size: str, workdir: pathlib.Path,
                 tracer) -> None:
        from repro.engine import Engine
        from repro.rtl.compile import compile_netlist
        from repro.rtl.faults import fault_simulation
        from repro.rtl.sta import FpgaDelayModel, critical_path_delay
        from repro.verify import VerifyOptions, default_registry
        from repro.verify.runner import verify_adder

        cfg = SIZES[size][self.name]
        self._compile = compile_netlist
        self._faults = fault_simulation
        self._delay = critical_path_delay
        self._delay_model = FpgaDelayModel()
        self._options = VerifyOptions
        self._verify = verify_adder
        self.vectors = cfg["vectors"]
        self.tracer = tracer
        self.engine = Engine(jobs=1, cache=str(workdir / "cache"))
        self.points = design_points(cfg["families"], cfg["widths"],
                                    cfg["gear_n"], cfg["gear_r"])
        registry = default_registry()
        keys = cfg["verify_keys"] or list(registry)
        self.entries = {key: registry[key] for key in keys}
        self.ops = [("point", label) for label in self.points] + [
            ("verify", key, layer) for key in keys for layer in VERIFY_LAYERS]
        random.Random(seed).shuffle(self.ops)
        self.results: Dict[str, object] = {}
        self.faults = [0, 0]  # simulated, detected
        self.verify_fail = 0
        self.errors: List[str] = []

    def run(self, op) -> str:
        if op[0] == "point":
            spec = self.points[op[1]]()
            with self.tracer.span("spec.to_netlist"):
                netlist = spec.to_netlist()
            with self.tracer.span("rtl.compile"):
                kernel = self._compile(netlist)
            with self.tracer.span("rtl.sta"):
                delay = self._delay(netlist, self._delay_model)
            with self.tracer.span("rtl.faults"):
                report = self._faults(netlist, vectors=self.vectors,
                                      seed=FAULT_SEED, simulator="compiled")
            self.faults[0] += report.total
            self.faults[1] += report.detected_any_output
            self.results[f"point/{op[1]}"] = {
                "levels": kernel.levels, "delay": delay,
                "faults": [report.total, report.detected_any_output,
                           report.flagged_by_err, len(report.undetected)],
            }
            return OK
        _, key, layer = op
        with self.tracer.span(f"verify.{layer}"):
            report = self._verify(self.entries[key],
                                  self._options(width=8, layers=(layer,)),
                                  engine=self.engine)
        status = report.layers[0].status.label
        self.results[f"verify/{key}/{layer}"] = status
        if status == "fail":
            self.verify_fail += 1
            raise RuntimeError(f"verify layer {layer} failed on {key}: "
                               f"{report.layers[0].message}")
        return OK

    def check(self) -> Tuple[str, List[str]]:
        return digest_of(self.results), []

    def layer_metrics(self, events, frame) -> Dict[str, float]:
        out = bench_layers(layer_totals(events))
        out.update(program_layers(frame))
        # verify.stats and verify.analytic call the engine: their busy
        # time excludes the engine time the program records under them.
        for layer in VERIFY_LAYERS:
            inner = sum(s.total_s for path, s in frame.spans.items()
                        if f"verify.layer.{layer}/" in path
                        and path.endswith("/engine.evaluate"))
            out[f"verify.{layer}.busy_s"] -= inner
        out["verify.fail"] = self.verify_fail
        out["rtl.faults.faults_per_s"] = ratio(self.faults[0],
                                               out["rtl.faults.busy_s"])
        out["rtl.faults.detected_ratio"] = ratio(self.faults[1],
                                                 self.faults[0])
        return out


#: The request mix of ``benchmarks/bench_serve_load.py``, the repository's
#: recorded serve traffic: 80% hot repeated ``/eval`` bodies, 15% cold
#: ``/eval`` requests with distinct seeds, 5% ``/verify``.
HOT_SHARE, COLD_SHARE = 0.80, 0.15

#: bench_serve_load's three hot Monte-Carlo bodies, as recorded there.
HOT_MONTE_CARLO = [
    {"adder": "gear_r2p2", "samples": 20_000, "seed": 2015},
    {"adder": {"gear": [12, 4, 4]}, "samples": 20_000, "seed": 2015},
    {"adder": {"family": "etaii_l4", "width": 8}, "samples": 20_000,
     "seed": 2015, "backend": "auto"},
]


def _hot_bodies() -> List[dict]:
    """bench_serve_load's hot bodies plus one body of each kind it lacks.

    The recorded mix has only Monte-Carlo bodies; the three added ones
    (an ``auto`` exhaustive N=32 GeAr, an ``analytic`` exhaustive
    catalog family and a full v2 spec document) keep analytic plans and
    spec-document resolution on the served path.  Hot requests cycle
    through the six bodies with equal shares, as bench_serve_load draws
    its hot bodies with equal odds.
    """
    from repro.spec import cesa_rect_spec

    return HOT_MONTE_CARLO + [
        {"adder": {"gear": [32, 8, 8]}, "mode": "exhaustive",
         "backend": "auto"},
        {"adder": {"family": "gda_b2c2", "width": 16}, "mode": "exhaustive",
         "backend": "analytic"},
        {"adder": {"spec": cesa_rect_spec(16, 2, 2).to_dict()},
         "mode": "exhaustive", "backend": "analytic"},
    ]


def _cold_body(seed: int) -> dict:
    """bench_serve_load's cold body: a distinct seed, so it always computes."""
    return {"adder": "gear_r2p2", "samples": 2_000, "seed": seed}


#: bench_serve_load's ``/verify`` body, run on all six layers rather than
#: only the behavioural one.
VERIFY_BODY = {"adders": ["gear_r2p2"], "width": 6}

CLIENTS = 2


class ServeMix(Workload):
    """``gear serve --workers 1`` driven by two closed-loop connections."""

    name = "serve_mix"

    def __init__(self, seed: int, size: str, workdir: pathlib.Path,
                 tracer) -> None:
        from repro.serve import ServeClient, protocol

        cfg = SIZES[size][self.name]
        self._client = ServeClient
        self._protocol = protocol
        self.tracer = tracer
        rng = random.Random(seed)
        total = cfg["requests"]
        hot_bodies = _hot_bodies()
        hot = [("eval", hot_bodies[i % len(hot_bodies)])
               for i in range(round(total * HOT_SHARE))]
        cold = [("eval", _cold_body(rng.randrange(1 << 31)))
                for _ in range(round(total * COLD_SHARE))]
        verify = [("verify", VERIFY_BODY)
                  for _ in range(total - len(hot) - len(cold))]
        self.ops = hot + cold + verify
        rng.shuffle(self.ops)
        self.hot_keys = {self._key(body) for body in hot_bodies}
        self.bodies: List[Optional[bytes]] = [None] * len(self.ops)
        self.errors: List[str] = []
        self.daemon = self._start_daemon(workdir)
        try:
            # Warm-up: start the worker, then compute every hot body once,
            # so the timed phase reads their results from the shard cache.
            with self._client(port=self.port, timeout=120.0) as client:
                client.healthz()
                for body in hot_bodies:
                    client.eval_raw(body)
                self.before = client.stats()
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _key(wire: dict) -> str:
        return json.dumps(wire, sort_keys=True)

    def _start_daemon(self, workdir: pathlib.Path) -> subprocess.Popen:
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        log = workdir / "daemon.out"
        cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
               "--port", "0", "--workers", "1", "--jobs", "1",
               "--cache", str(workdir / "cache")]
        with open(log, "w") as out:
            daemon = subprocess.Popen(cmd, stdout=out,
                                      stderr=subprocess.STDOUT, env=env)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            text = log.read_text()
            if "serving on http://" in text:
                self.port = int(text.split("serving on http://", 1)[1]
                                .split()[0].rsplit(":", 1)[1])
                return daemon
            if daemon.poll() is not None:
                break
            time.sleep(0.01)
        self._stop(daemon)
        raise RuntimeError(f"serve daemon did not start: {log.read_text()}")

    def drive(self):
        records: List[Optional[tuple]] = [None] * len(self.ops)
        lock = threading.Lock()
        cursor = iter(range(len(self.ops)))

        def client_loop() -> None:
            with self._client(port=self.port, timeout=120.0) as client:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    kind, wire = self.ops[index]
                    start = time.perf_counter()
                    try:
                        status, body = client.request_raw(
                            "POST", f"/{kind}", wire)
                    except Exception as exc:  # counted as a failed op
                        status, body = 0, repr(exc).encode()
                    end = time.perf_counter()
                    ok = status == 200
                    self.tracer.record(f"serve.{kind}", start, end, index,
                                       error=not ok)
                    self.bodies[index] = body if ok else None
                    records[index] = (kind, end - start, OK if ok else FAILED)
                    if not ok:
                        with lock:
                            if len(self.errors) < 20:
                                self.errors.append(f"{kind} {wire}: HTTP "
                                                   f"{status}: {body[:200]!r}")

        threads = [threading.Thread(target=client_loop)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with self._client(port=self.port, timeout=120.0) as client:
            self.after = client.stats()
        return records

    def check(self) -> Tuple[str, List[str]]:
        from repro.engine import Engine

        offline_engine = Engine(jobs=1)
        served: Dict[str, bytes] = {}
        problems: List[str] = []
        items: Dict[str, str] = {}
        for (kind, wire), body in zip(self.ops, self.bodies):
            if body is None:
                continue
            key = self._key(wire)
            if served.setdefault(key, body) != body:
                problems.append(f"{kind} {key}: repeated request answered "
                                "with different bytes")
            if kind == "verify":
                if not json.loads(body)["ok"]:
                    problems.append(f"verify {key}: a layer failed")
                items[f"verify:{key}"] = hashlib.sha256(body).hexdigest()
            elif key in self.hot_keys:
                items[f"eval:{key}"] = hashlib.sha256(body).hexdigest()
        for key, body in served.items():
            wire = json.loads(key)
            if "adders" in wire:
                continue
            offline = self._protocol.canonical_bytes(
                self._protocol.offline_eval_payload(wire, offline_engine))
            if offline != body:
                problems.append(f"eval {key}: served bytes differ from "
                                "the offline payload")
        return digest_of(items), problems

    def layer_metrics(self, events, frame) -> Dict[str, float]:
        before = self.before["telemetry"]
        after = self.after["telemetry"]

        def counter(name):
            return (after["counters"].get(name, 0)
                    - before["counters"].get(name, 0))

        def spans(match):
            calls = busy = 0.0
            for path, (count, total, _max) in after["spans"].items():
                if match(path):
                    old = before["spans"].get(path, [0, 0.0, 0.0])
                    calls += count - old[0]
                    busy += total - old[1]
            return calls, busy

        def hist(name):
            new = after["histograms"].get(name)
            old = before["histograms"].get(name)
            if new is None:
                return 0, 0.0
            n_old = sum(old["counts"]) if old else 0
            t_old = old["total"] if old else 0.0
            return sum(new["counts"]) - n_old, new["total"] - t_old

        totals = layer_totals(events)
        out: Dict[str, float] = {}
        for kind in ("eval", "verify"):
            durations = totals.get(f"serve.{kind}", {}).get("durations", [])
            out[f"serve.{kind}.rtt_p50_ms"] = 1e3 * median(durations)
        eval_n, eval_s = hist("serve.eval.duration_s")
        verify_n, verify_s = hist("serve.verify.duration_s")
        out["serve.eval.daemon_mean_ms"] = 1e3 * ratio(eval_s, eval_n)
        rtts = totals.get("serve.eval", {}).get("durations", [])
        out["serve.http_ms"] = 1e3 * (ratio(sum(rtts), len(rtts))
                                      - ratio(eval_s, eval_n))
        _, worker_s = spans(lambda p: p.startswith("serve.worker.")
                            and "/" not in p)
        out["serve.worker.busy_s"] = worker_s
        out["serve.wait_s"] = eval_s + verify_s - worker_s
        hits = (self.after["server"]["coalesce"]["hits"]
                - self.before["server"]["coalesce"]["hits"])
        misses = (self.after["server"]["coalesce"]["misses"]
                  - self.before["server"]["coalesce"]["misses"])
        out["serve.coalesce.hit_ratio"] = ratio(hits, hits + misses)
        out["serve.errors"] = counter("serve.errors")
        for backend in ("analytic", "sampling", "compiled"):
            calls, busy = spans(
                lambda p, b=backend: p.endswith(f"engine.backend.{b}"))
            out[f"engine.{backend}.calls"] = calls
            out[f"engine.{backend}.busy_s"] = busy
        out["engine.sampling.samples_per_s"] = ratio(
            counter("engine.shard.samples"), out["engine.sampling.busy_s"])
        hits = counter("engine.cache.hit")
        misses = counter("engine.cache.miss")
        out.update({
            "engine.cache.hit": hits, "engine.cache.miss": misses,
            "engine.cache.store": counter("engine.cache.store"),
            "engine.cache.hit_ratio": ratio(hits, hits + misses),
        })
        return out

    def program_frame(self):
        from repro.obs import TelemetryFrame

        return TelemetryFrame.from_dict(self.after["telemetry"])

    def peak_rss_mb(self) -> float:
        pid = self.daemon.pid
        total = vm_hwm_mb() + vm_hwm_mb(pid)
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as handle:
                children = handle.read().split()
        except OSError:
            children = []
        return total + sum(vm_hwm_mb(child) for child in children)

    @staticmethod
    def _stop(daemon: subprocess.Popen) -> None:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()

    def close(self) -> None:
        self._stop(self.daemon)


WORKLOADS = {cls.name: cls for cls in (Explore, GateCampaign, ServeMix)}
