"""Command-line interface: ``gear <command>`` (or ``python -m repro``).

Commands mirror the paper's artefacts::

    gear info 12 4 4          # describe a GeAr configuration
    gear sweep 16 --r 4       # accuracy/delay/area sweep
    gear verilog 12 4 4       # emit synthesizable structural Verilog
    gear table1 | table2 | table3 | table4
    gear fig1 | fig7 | fig8 | fig9
    gear experiment <name>    # any artefact by registry name
    gear ablation
    gear verify               # cross-layer conformance harness
    gear spec list|show|lint  # the declarative AdderSpec catalog
    gear cache stats|clear    # shard-cache maintenance
    gear obs report t.jsonl   # re-summarize a saved telemetry trace
    gear serve --workers 4    # always-on evaluation service (docs/serve.md)
    gear client eval '{...}'  # query a running service

Every stochastic subcommand takes ``--samples`` and ``--seed``.  ``gear
verify``, ``gear experiment`` and ``gear ablation`` run argv through the
service's :mod:`repro.serve.protocol` builders, so the CLI and the wire
share every default and refusal.  Every subcommand that evaluates
through :mod:`repro.engine` additionally takes
``--jobs N`` (process-parallel shard execution), ``--cache [DIR]``
(memoise completed shards on disk), ``--cache-size MB`` (oldest-first
pruning cap), ``--no-cache`` and ``--backend
{sampling,analytic,compiled,auto}`` (the evaluation backend;
``analytic`` solves the exact error PMF instead of simulating,
``compiled`` samples through the bit-sliced netlist kernel).  Results are bit-identical at any
``--jobs`` value, and ``--json`` output excludes scheduling details, so
JSON from ``--jobs 4`` is byte-identical to ``--jobs 1``.

``--trace PATH`` and ``--profile`` (accepted before or after any
subcommand) enable the :mod:`repro.obs` telemetry layer for the run: the
telemetry report is printed to *stderr* after the command — stdout stays
byte-identical with tracing on or off — and ``--trace`` additionally
saves the span log and merged :class:`~repro.obs.TelemetryFrame` as
JSONL for ``gear obs report``.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from typing import Callable, List, Optional

from repro.analysis.sweep import sweep_gear_configs, sweep_to_json
from repro.analysis.tables import format_table
from repro.core.error_model import error_probability
from repro.core.coverage import classify_config
from repro.core.gear import GeArAdder, GeArConfig
from repro.utils.validation import positive_count, seed_value


class CLIError(Exception):
    """A user-input error: printed to stderr, exits 2."""


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree."""
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    from repro.engine import DEFAULT_CACHE_DIR

    group = parser.add_argument_group("evaluation engine")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for shard execution "
                       "(results are identical at any value; default: 1)")
    group.add_argument("--cache", nargs="?", const=DEFAULT_CACHE_DIR,
                       default=None, metavar="DIR",
                       help="memoise completed shards on disk "
                       f"(default dir: {DEFAULT_CACHE_DIR})")
    group.add_argument("--cache-size", type=float, default=None, metavar="MB",
                       help="shard-cache size cap in MiB; oldest entries are "
                       "pruned first (this run's shards are never evicted)")
    group.add_argument("--no-cache", action="store_true",
                       help="disable the shard cache even if --cache is given")
    # Validated against the live registry in _engine_from_args (not
    # argparse choices) so plug-in backends registered at import time
    # are accepted and a typo reports the actual registered names.
    group.add_argument("--backend", default=None, metavar="NAME",
                       help="evaluation backend: 'sampling' simulates, "
                       "'analytic' solves the exact error PMF, 'compiled' "
                       "samples through the bit-sliced netlist kernel, "
                       "'auto' prefers analytic when the adder supports it "
                       "(default: sampling)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a subparser's (unset) defaults from clobbering values
    # the main parser already recorded, so the flags work in either
    # position: ``gear --trace t.jsonl sweep ...`` and ``gear sweep ...
    # --trace t.jsonl``.
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", metavar="PATH", dest="trace",
                       default=argparse.SUPPRESS,
                       help="collect telemetry and save a JSONL trace "
                       "(report on stderr; stdout is unchanged)")
    group.add_argument("--profile", action="store_true", dest="profile",
                       default=argparse.SUPPRESS,
                       help="collect telemetry and print the report "
                       "to stderr after the command")


def _int_arg(rule: Callable[[int], int]) -> Callable[[str], int]:
    """argparse type for an integer under a request rule the wire
    protocol applies too; a refused value is a usage error."""
    def parse(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid int value"
        try:
            return rule(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = "int"
    return parse


def _add_sampling_flags(parser: argparse.ArgumentParser,
                        defaults_of: Optional[Callable] = None,
                        samples_help: str = "Monte-Carlo sample count") -> None:
    """``--samples``/``--seed``, unset unless given; the help quotes the
    defaults of ``defaults_of`` (None: each experiment's own)."""
    params = inspect.signature(defaults_of).parameters if defaults_of else {}
    samples = getattr(params.get("samples"), "default", None)
    seed = getattr(params.get("seed"), "default", "experiment-specific")
    note = f" (default: {samples})" if samples else ""
    parser.add_argument("--samples", type=_int_arg(positive_count),
                        help=samples_help + note)
    parser.add_argument("--seed", type=_int_arg(seed_value),
                        help=f"root RNG seed (default: {seed})")


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The set flags among ``names``; unset ones take the callee's default."""
    values = {name: getattr(args, name, None) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _engine_from_args(args: argparse.Namespace):
    """The flags' engine; an unknown ``--backend`` is a usage error."""
    from repro.engine import Engine, ShardCache
    from repro.engine.backends import check_backend_name

    if getattr(args, "backend", None) is not None:
        try:
            check_backend_name(args.backend)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    cache = None if getattr(args, "no_cache", False) else getattr(args, "cache", None)
    size_mb = getattr(args, "cache_size", None)
    if cache is not None and size_mb is not None:
        cache = ShardCache(cache, max_bytes=int(size_mb * (1 << 20)))
    return Engine(jobs=getattr(args, "jobs", 1), cache=cache)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _gear_config(args: argparse.Namespace) -> GeArConfig:
    """The ``n r p`` positionals as a config; partial when R does not
    divide N-R-P.  An invalid triple is a usage error."""
    try:
        return GeArConfig.from_triple(args.n, args.r, args.p)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _cmd_info(args: argparse.Namespace) -> int:
    cfg = _gear_config(args)
    adder = GeArAdder(cfg)
    print(cfg.describe())
    print(f"covers: {', '.join(classify_config(cfg))}")
    print(f"error probability (paper model): {error_probability(cfg):.8f}")
    print(f"error probability (exact DP)   : {adder.error_probability():.8f}")
    print(f"mean error distance (analytic) : {adder.mean_error_distance():.4f}")
    print(f"max error distance             : {adder.max_error_distance()}")
    print("windows (low..high -> result bits):")
    for i, w in enumerate(adder.spec.windows):
        print(f"  sub-adder {i + 1}: [{w.high}:{w.low}] -> "
              f"S[{w.result_high}:{w.result_low}] (P={w.prediction_bits})")
    try:
        from repro.timing.fpga import characterize

        char = characterize(adder)
        print(f"FPGA model: delay={char.delay_ns:.3f} ns, LUTs={char.luts}, "
              f"gates={char.gates}, depth={char.logic_depth}")
    except ValueError:
        pass
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    engine = _engine_from_args(args)
    results = sweep_gear_configs(
        args.n,
        r_values=[args.r] if args.r is not None else None,
        with_hardware=not args.no_hardware,
        engine=engine,
        **_given(args, "samples", "seed", "backend"),
    )
    if not results:
        with_r = f" with R={args.r}" if args.r is not None else ""
        raise CLIError(f"no GeAr configuration of width {args.n}{with_r}: "
                       "an approximate GeAr adder needs 1 <= R <= N-2")
    if args.json:
        _print_json(sweep_to_json(results, args.n))
        return 0
    headers = ["config", "k", "accuracy %", "MED", "NED", "delay ns", "LUTs"]
    rows = [
        [
            f"({r.r},{r.p})",
            r.k,
            f"{r.accuracy_pct:.4f}",
            f"{r.med:.3f}",
            f"{r.ned:.5f}",
            f"{r.delay_ns:.3f}" if r.delay_ns is not None else None,
            r.luts,
        ]
        for r in results
    ]
    if args.samples:
        headers += ["measured err", "measured MED"]
        for row, r in zip(rows, results):
            row.append(f"{r.measured_error_rate:.6f}")
            row.append(f"{r.measured_med:.3f}")
    print(
        format_table(
            headers,
            [tuple(row) for row in rows],
            title=f"GeAr design space, N={args.n}",
        )
    )
    return 0


def _cmd_verilog(args: argparse.Namespace) -> int:
    config = _gear_config(args)
    spec = GeArAdder(config).spec
    if args.hierarchical:
        from repro.rtl.hierarchy import emit_hierarchical

        sys.stdout.write(emit_hierarchical(
            spec, name=f"gear_h_{config.n}_{config.r}_{config.p}"))
        return 0
    from repro.rtl.verilog import to_verilog

    sys.stdout.write(to_verilog(spec.to_netlist()))
    return 0


def _run_experiments(names: List[str], args: argparse.Namespace) -> int:
    """Run and print experiments through the ``/experiment`` runner."""
    from repro.experiments import EXPERIMENTS
    from repro.serve import protocol

    engine = _engine_from_args(args)
    fields = _given(args, "samples", "seed", "backend")
    results = [protocol.run_experiment(dict(fields, name=name), engine)
               for name in names]
    if args.json:
        payload = [result.to_json() for result in results]
        _print_json(payload if len(payload) > 1 else payload[0])
        return 0
    print("\n\n".join(EXPERIMENTS[name].renderer(result)
                      for name, result in zip(names, results)))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    return _run_experiments([args.name], args)


def _cmd_motivation(args: argparse.Namespace) -> int:
    from repro.analysis.carrychain import (
        chain_coverage_table,
        expected_longest_chain,
        required_chain_for_coverage,
    )

    rows = []
    for n in (16, 32, 64, 128):
        coverage = chain_coverage_table(n, [8, 16])
        rows.append(
            (
                n,
                f"{expected_longest_chain(n):.2f}",
                f"{coverage[8]:.3e}",
                f"{coverage[16]:.3e}",
                required_chain_for_coverage(n, 1e-2),
                required_chain_for_coverage(n, 1e-4),
            )
        )
    print(
        format_table(
            ["N", "E[longest chain]", "P(chain>8)", "P(chain>16)",
             "L @1% miss", "L @0.01% miss"],
            rows,
            title="§1 motivation — longest carry chains are short (uniform operands)",
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_all
    from repro.engine import use_engine

    engine = _engine_from_args(args)
    with use_engine(engine):
        paths = export_all(args.dir, artefacts=args.only,
                           fmt="json" if args.json else "csv",
                           engine=engine, backend=args.backend)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from repro.engine import use_engine
    from repro.metrics.spectrum import error_spectrum, spectrum_table

    adder = GeArAdder(_gear_config(args))
    with use_engine(_engine_from_args(args)):
        spec = error_spectrum(adder, **_given(args, "samples", "seed"))
    print(spectrum_table(spec))
    print("\nper-window miss rates and error mass:")
    for i, (rate, mass) in enumerate(
        zip(spec.window_miss_rate, spec.window_error_mass), start=1
    ):
        print(f"  speculative sub-adder {i}: miss rate {rate:.6f}, "
              f"error mass {mass:.2f}")
    dominant = spec.dominant_window()
    if dominant is not None:
        print(f"dominant error source: speculative sub-adder {dominant} "
              "(correct this one first)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report

    path = write_report(args.out, quick=args.quick)
    print(f"report written to {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.rtl.lint import (
        Severity,
        builder_matrix,
        get_rule,
        lint_netlist,
        lint_verilog,
        registered_rules,
    )
    from repro.rtl.verilog_parser import VerilogSyntaxError

    if args.list_rules:
        for rule in registered_rules():
            print(f"{rule.id:20s} {rule.severity.label:8s} {rule.description}")
        return 0
    if args.target is None:
        raise CLIError("a lint target is required (builder name, 'all', or "
                       "a .v file)")

    fail_on = (None if args.fail_on == "never"
               else Severity.from_label(args.fail_on))
    suppress = tuple(args.suppress or ())
    try:
        for rid in suppress:
            get_rule(rid)
    except ValueError as exc:
        raise CLIError(str(exc)) from None

    # Resolve targets to (label, netlist) pairs.
    try:
        if args.target == "all":
            if args.params:
                raise CLIError("'all' takes no parameters")
            targets = list(builder_matrix())
        elif args.target.endswith(".v") or Path(args.target).is_file():
            if args.params:
                raise CLIError("file targets take no parameters")
            try:
                source = Path(args.target).read_text()
            except OSError as exc:
                raise CLIError(f"cannot read {args.target}: {exc}") from None
            targets = [(args.target, lint_verilog(source, suppress=suppress))]
        else:
            from repro.rtl.builders import build_named

            targets = [(" ".join([args.target, *map(str, args.params)]),
                        build_named(args.target, *args.params))]
    except VerilogSyntaxError as exc:
        raise CLIError(f"{args.target}: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise CLIError(str(exc)) from None

    from repro.rtl.netlist import Netlist
    from repro.rtl.opt import optimize

    reports = []
    for label, item in targets:
        if isinstance(item, Netlist):
            if args.opt:
                item = optimize(item)
            report = lint_netlist(item, suppress=suppress)
        else:  # already a LintReport (file target)
            report = item
        reports.append((label, report))

    failed = any(
        fail_on is not None and not report.ok(fail_on=fail_on)
        for _, report in reports
    )
    if args.json:
        payload = [dict(report.to_dict(), target=label)
                   for label, report in reports]
        print(_json.dumps(payload[0] if len(payload) == 1 else payload,
                          indent=2))
    else:
        for label, report in reports:
            lines = report.format_text().splitlines()
            if label != report.name:
                lines[0] = f"{label}: {lines[0].split(': ', 1)[1]}"
            print("\n".join(lines))
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.serve import protocol
    from repro.verify import default_registry, summarize, verify_registry

    if args.list_adders:
        for key, entry in default_registry().items():
            print(f"{key:14s} {entry.kind:18s} {entry.description}")
        return 0

    adders, options = protocol.build_verify_options(_given(
        args, "adders", "layers", "width", "samples", "seed", "backend"))
    reports = verify_registry(adders=adders, options=options,
                              engine=_engine_from_args(args))
    if args.json:
        _print_json([report.to_json() for report in reports])
    else:
        print(summarize(reports))
    return 0 if all(report.ok for report in reports) else 1


def _cmd_spec(args: argparse.Namespace) -> int:
    from repro.spec.catalog import SPEC_CATALOG, catalog_spec

    if args.spec_command == "list":
        if args.json:
            payload = []
            for key, family in SPEC_CATALOG.items():
                width = max(args.width, family.min_width)
                try:
                    spec = family(width)
                    fingerprint = spec.fingerprint()
                    kind = spec.stage_tag()
                except ValueError:
                    # Family undefined at this width (e.g. parity rules).
                    width = fingerprint = None
                    kind = family(family.min_width).stage_tag()
                payload.append({
                    "key": key,
                    "description": family.description,
                    "kind": kind,
                    "min_width": family.min_width,
                    "width": width,
                    "fingerprint": fingerprint,
                })
            _print_json(payload)
            return 0
        for key, family in SPEC_CATALOG.items():
            kind = family(family.min_width).stage_tag()
            print(f"{key:14s} {kind:18s} w>={family.min_width:<3d} "
                  f"{family.description}")
        return 0

    if args.spec_command == "show":
        try:
            spec = catalog_spec(args.key, args.width)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        if args.json:
            _print_json(spec.to_dict())
            return 0
        print(spec.describe())
        print(f"fingerprint: {spec.fingerprint()}")
        if spec.truncation:
            print(f"truncated OR part: S[{spec.truncation - 1}:0] = A | B")
        print("windows (low..high -> result bits):")
        rectified = set(spec.rectified_windows())
        for i, w in enumerate(spec.windows, start=1):
            if w.is_static:
                print(f"  window {i}: [{w.high}:{w.low}] -> "
                      f"S[{w.result_high}:{w.result_low}] (static, "
                      f"approx={w.approx})")
                continue
            tag = w.arch if w.pred == "fused" else f"{w.arch}+{w.pred}"
            rect = ", rectified" if i - 1 in rectified else ""
            print(f"  window {i}: [{w.high}:{w.low}] -> "
                  f"S[{w.result_high}:{w.result_low}] ({tag}, "
                  f"P={w.prediction_bits}{rect})")
        if spec.rectify is not None:
            taps = ", ".join(str(i + 1) for i in spec.rectified_windows())
            print(f"rectify ({spec.rectify.kind}): flags of windows "
                  f"[{taps}] added back into the sum")
        if not (spec.truncation or spec.uses_v2):  # closed-form EP only
            ep = spec.to_model().error_probability()
            print(f"error probability (exact DP): {ep:.8f}")
        print(f"max error distance          : {spec.max_error_distance()}")
        return 0

    # spec lint: compile each target's netlist and run the lint rules.
    # Targets are catalog families ('all' for every one) or paths to spec
    # JSON documents; malformed documents (unknown kind/approx/rectify
    # values included) get a `path: message` diagnostic, not a traceback.
    from repro.rtl.lint import Severity, lint_netlist

    specs = []
    if args.key == "all" or args.key in SPEC_CATALOG:
        for key in SPEC_CATALOG if args.key == "all" else [args.key]:
            family = SPEC_CATALOG[key]
            width = max(args.width, family.min_width)
            try:
                specs.append((f"{key} w={width}", family(width)))
            except ValueError as exc:
                raise CLIError(str(exc)) from None
    elif args.key.endswith(".json") or os.path.sep in args.key \
            or os.path.exists(args.key):
        from repro.spec.ir import AdderSpec

        try:
            with open(args.key, "r", encoding="utf-8") as handle:
                spec = AdderSpec.from_json(handle.read())
        except (OSError, ValueError) as exc:
            print(f"{args.key}: error: {exc}", file=sys.stderr)
            return 2
        specs.append((f"{args.key} ({spec.name})", spec))
    else:
        raise CLIError(f"unknown spec family {args.key!r} (and no such "
                       f"file); known: {', '.join(sorted(SPEC_CATALOG))}")

    failed = False
    for label, spec in specs:
        report = lint_netlist(spec.to_netlist())
        lines = report.format_text().splitlines()
        lines[0] = f"{label}: {lines[0].split(': ', 1)[1]}"
        print("\n".join(lines))
        failed = failed or not report.ok(fail_on=Severity.from_label("error"))
    return 1 if failed else 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, render_report, report_to_json

    try:
        data = read_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        raise CLIError(str(exc)) from None
    if args.json:
        _print_json(report_to_json(data.frame))
        return 0
    title = "telemetry report"
    if data.labels:
        title += f" — {'; '.join(data.labels)}"
    print(render_report(data.frame, title=title))
    if data.events:
        print(f"\nevents: {len(data.events)} span records in trace")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine.cache import ShardCache

    cache = ShardCache(args.dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"{args.dir}: removed {removed} cached record(s)")
        return 0

    # stats: verify every file as a record (its embedded key hashes to
    # its file name), whichever backend wrote it; read-only, so a
    # corrupt record is reported here and quarantined by the next load.
    digests = list(cache.digests())
    valid = sum(1 for digest in digests if cache.verify(digest))
    payload = {
        "dir": str(args.dir),
        "entries": len(digests),
        "bytes": cache.disk_usage()[1],
        "valid": valid,
        "corrupt": len(digests) - valid,
    }
    code = 0 if payload["corrupt"] == 0 else 1
    if args.json:
        _print_json(payload)
        return code
    print(f"record cache {payload['dir']}")
    print(f"  entries     : {payload['entries']}")
    print(f"  total bytes : {payload['bytes']}")
    print(f"  valid       : {payload['valid']}")
    print(f"  corrupt     : {payload['corrupt']}")
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeDaemon

    cache = None if args.no_cache else args.cache
    cache_bytes = (None if args.cache_size is None
                   else int(args.cache_size * (1 << 20)))
    daemon = ServeDaemon(
        host=args.host, port=args.port, workers=args.workers,
        jobs=args.jobs, cache=cache, cache_bytes=cache_bytes,
        drain_timeout=args.drain_timeout,
        # The ready line goes out only after the socket is bound, so
        # wrappers (CI, tests) can wait for it then read the real port.
        ready=lambda d: print(
            f"serving on http://{d.host}:{d.port} (workers={d.workers})",
            flush=True),
    )
    return daemon.run()


def _client_wire(args: argparse.Namespace) -> dict:
    """Parse the request body argument (inline JSON or '-' for stdin)."""
    text = sys.stdin.read() if args.body == "-" else args.body
    try:
        wire = json.loads(text or "{}")
    except ValueError as exc:
        raise CLIError(f"request body is not valid JSON: {exc}")
    if not isinstance(wire, dict):
        raise CLIError("request body must be a JSON object")
    return wire


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError, protocol, replay

    command = args.client_command
    if command == "eval" and args.offline:
        # Local oracle: canonical bytes for the same wire body, for
        # byte-identity checks against a served response.
        try:
            payload = protocol.offline_eval_payload(_client_wire(args))
        except (protocol.ProtocolError, ValueError) as exc:
            raise CLIError(str(exc))
        sys.stdout.buffer.write(protocol.canonical_bytes(payload))
        return 0

    if command == "replay":
        try:
            script = json.loads(sys.stdin.read() if args.script == "-"
                                else open(args.script).read())
        except (OSError, ValueError) as exc:
            raise CLIError(f"cannot load script: {exc}")
        if not isinstance(script, list):
            raise CLIError("replay script must be a JSON list of requests")
        try:
            summary = replay(script, host=args.host, port=args.port,
                             concurrency=args.concurrency)
        except (ValueError, ConnectionError, OSError) as exc:
            raise CLIError(str(exc))
        _print_json(summary)
        return 0 if not summary["errors"] else 1

    client = ServeClient(args.host, args.port)
    try:
        if command == "eval":
            sys.stdout.buffer.write(client.eval_raw(_client_wire(args)))
            return 0
        if command == "verify":
            payload = client.verify(_client_wire(args))
            _print_json(payload)
            return 0 if payload.get("ok") else 1
        if command == "experiment":
            _print_json(client.experiment(_client_wire(args)))
            return 0
        if command == "health":
            payload = client.healthz()
            _print_json(payload)
            return 0 if payload.get("status") == "ok" else 1
        _print_json(client.stats())  # stats
        return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        raise CLIError(f"cannot reach daemon at "
                       f"http://{args.host}:{args.port}: {exc}")
    finally:
        client.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gear",
        description="GeAr accuracy-configurable adder (DAC 2015) reproduction",
    )
    parser.add_argument("--version", action="version",
                        version=f"gear {_package_version()}")
    _add_obs_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a GeAr(N,R,P) configuration")
    info.add_argument("n", type=int)
    info.add_argument("r", type=int)
    info.add_argument("p", type=int)
    info.set_defaults(func=_cmd_info)

    sweep = sub.add_parser("sweep", help="sweep the design space of width N")
    sweep.add_argument("n", type=_int_arg(positive_count))
    sweep.add_argument("--r", type=_int_arg(positive_count))
    sweep.add_argument("--no-hardware", action="store_true",
                       help="skip netlist characterisation (faster)")
    sweep.add_argument("--json", action="store_true",
                       help="deterministic JSON output (identical at any --jobs)")
    _add_sampling_flags(
        sweep, sweep_gear_configs,
        samples_help="also measure each configuration by Monte-Carlo "
        "through the engine",
    )
    _add_engine_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    verilog = sub.add_parser("verilog", help="emit structural Verilog")
    verilog.add_argument("n", type=int)
    verilog.add_argument("r", type=int)
    verilog.add_argument("p", type=int)
    verilog.add_argument("--hierarchical", action="store_true",
                         help="modular RTL (sub-adder module + top)")
    verilog.set_defaults(func=_cmd_verilog)

    from repro.experiments import EXPERIMENTS
    from repro.metrics.spectrum import error_spectrum
    from repro.utils.distributions import INT64_OPERAND_BITS
    from repro.verify import LAYERS, VerifyOptions

    def _add_experiment_flags(cmd: argparse.ArgumentParser, spec) -> None:
        cmd.add_argument("--json", action="store_true",
                         help="unified to_json() output "
                         "(identical at any --jobs)")
        if "samples" in spec.accepts:
            _add_sampling_flags(cmd)
        _add_engine_flags(cmd)

    for name, help_text in [
        ("table1", "Table I — Image Integral accuracy comparison"),
        ("table2", "Table II — GDA vs GeAr, 8-bit"),
        ("table3", "Table III — error probability: model vs simulation"),
        ("table4", "Table IV — execution-time prediction"),
        ("fig1", "Fig. 1 — design-space comparison"),
        ("fig7", "Fig. 7 — accuracy vs prediction bits"),
        ("fig8", "Fig. 8 — Delay×NED, GeAr vs GDA"),
        ("fig9", "Fig. 9 — per-application timing"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        _add_experiment_flags(cmd, EXPERIMENTS[name])
        cmd.set_defaults(func=functools.partial(_run_experiments, [name]))

    experiment = sub.add_parser(
        "experiment",
        help="run any registered experiment by name",
        description="Artefacts: " + ", ".join(
            f"{name} ({spec.description})" for name, spec in
            sorted(EXPERIMENTS.items())
        ),
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--json", action="store_true",
                            help="unified to_json() output "
                            "(identical at any --jobs)")
    _add_sampling_flags(experiment)
    _add_engine_flags(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    lint = sub.add_parser(
        "lint",
        help="static analysis of a builder netlist or structural .v file",
        description="Lint a named builder adder (e.g. 'lint gear 12 4 4'), "
        "every adder in the builder matrix ('lint all'), or a structural "
        "Verilog file ('lint adder.v').",
    )
    lint.add_argument("target", nargs="?", default=None,
                      help="builder name, 'all', or a .v file path")
    lint.add_argument("params", nargs="*", type=int,
                      help="builder parameters, e.g. 12 4 4")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable JSON output")
    lint.add_argument("--fail-on", choices=["error", "warning", "info", "never"],
                      default="error",
                      help="exit 1 when a diagnostic reaches this severity "
                      "(default: error)")
    lint.add_argument("--suppress", action="append", metavar="RULE",
                      help="skip a rule id (repeatable)")
    lint.add_argument("--opt", action="store_true",
                      help="lint the optimised netlist instead of the raw one")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    lint.set_defaults(func=_cmd_lint)

    verify = sub.add_parser(
        "verify",
        help="differential conformance check across all model layers",
        description="Differentially verify every registered adder across "
        "the behavioural, netlist, Verilog, statistical, analytic-PMF, "
        "compiled-kernel and vector layers.  Exits 1 when any layer "
        "disagrees; mismatches are reported with a shrunk counterexample.",
    )
    verify.add_argument("--adder", dest="adders", action="append",
                        metavar="NAME", help="registry key to verify "
                        "(repeatable; default: the full registry)")
    verify.add_argument("--layer", action="append", dest="layers",
                        choices=LAYERS,
                        help="layer to run (repeatable; default: all six)")
    verify.add_argument("--width", type=int, metavar="N",
                        help="operand width to verify at (default: "
                        f"{VerifyOptions.width}, exhaustive for the "
                        f"behavioural layer; at most {INT64_OPERAND_BITS})")
    verify.add_argument("--json", action="store_true",
                        help="machine-readable ConformanceReport list")
    verify.add_argument("--list-adders", action="store_true",
                        help="list conformance registry entries and exit")
    _add_sampling_flags(verify, VerifyOptions,
                        samples_help="Monte-Carlo sample count for the stats "
                        "layer at widths beyond the exhaustive cap")
    _add_engine_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    spec_parser = sub.add_parser(
        "spec",
        help="the declarative AdderSpec catalog (list / show / lint)",
        description="Inspect the AdderSpec IR catalog — the single "
        "declarative source that the behavioural models, the netlist "
        "builders, the analytic error terms and the conformance registry "
        "are all compiled from (see docs/spec.md).",
    )
    spec_sub = spec_parser.add_subparsers(dest="spec_command", required=True)
    spec_list = spec_sub.add_parser(
        "list", help="catalog families, minimum widths and fingerprints")
    spec_list.add_argument("--width", type=int, default=8, metavar="N",
                           help="width for --json fingerprints (families "
                           "with a larger minimum use that instead)")
    spec_list.add_argument("--json", action="store_true",
                           help="machine-readable listing with fingerprints")
    spec_list.set_defaults(func=_cmd_spec)
    spec_show = spec_sub.add_parser(
        "show", help="one family's full spec at a given width")
    spec_show.add_argument("key", help="catalog key (see 'gear spec list')")
    spec_show.add_argument("--width", type=int, default=8, metavar="N")
    spec_show.add_argument("--json", action="store_true",
                           help="the round-trippable spec JSON document")
    spec_show.set_defaults(func=_cmd_spec)
    spec_lint = spec_sub.add_parser(
        "lint", help="compile each spec to a netlist and lint it")
    spec_lint.add_argument("key", nargs="?", default="all",
                           help="catalog key, or a path to a spec JSON "
                           "document (default: the whole catalog)")
    spec_lint.add_argument("--width", type=int, default=8, metavar="N")
    spec_lint.set_defaults(func=_cmd_spec)

    ablation = sub.add_parser("ablation", help="run both ablation studies")
    ablation.add_argument("--json", action="store_true",
                          help="unified to_json() output for both studies")
    _add_sampling_flags(ablation)
    _add_engine_flags(ablation)
    ablation.set_defaults(func=functools.partial(
        _run_experiments, ["ablation-distributions", "ablation-correction"]))

    motivation = sub.add_parser(
        "motivation", help="carry-chain statistics behind the paper's premise"
    )
    motivation.set_defaults(func=_cmd_motivation)

    export = sub.add_parser("export",
                            help="write experiment CSVs/JSON for plotting")
    export.add_argument("--dir", default="export", help="output directory")
    export.add_argument("--only", nargs="+", default=None,
                        choices=sorted(EXPERIMENTS), metavar="NAME",
                        help="experiments to export (default: all): "
                        + ", ".join(sorted(EXPERIMENTS)))
    export.add_argument("--json", action="store_true",
                        help="write unified to_json() documents instead of CSV")
    _add_engine_flags(export)
    export.set_defaults(func=_cmd_export)

    spectrum = sub.add_parser("spectrum",
                              help="error-magnitude spectrum of a config")
    spectrum.add_argument("n", type=int)
    spectrum.add_argument("r", type=int)
    spectrum.add_argument("p", type=int)
    _add_sampling_flags(spectrum, error_spectrum)
    _add_engine_flags(spectrum)
    spectrum.set_defaults(func=_cmd_spectrum)

    report = sub.add_parser("report",
                            help="generate the full reproduction report")
    report.add_argument("--out", default="reproduction_report.md")
    report.add_argument("--quick", action="store_true",
                        help="skip synthesis-heavy sections and ablations")
    report.set_defaults(func=_cmd_report)

    from repro.engine import DEFAULT_CACHE_DIR

    cache = sub.add_parser(
        "cache",
        help="engine cache maintenance (stats / clear)",
        description="Inspect or empty the engine's on-disk record cache.  "
        "'stats' verifies every record (its embedded key must hash to its "
        "file name) and reports validity and size; it exits 1 if any "
        "record is corrupt.",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for action, help_text in [("stats", "entry count, bytes and validity"),
                              ("clear", "remove every cached record")]:
        action_parser = cache_sub.add_parser(action, help=help_text)
        action_parser.add_argument("--dir", default=DEFAULT_CACHE_DIR,
                                   help=f"cache directory "
                                   f"(default: {DEFAULT_CACHE_DIR})")
        if action == "stats":
            action_parser.add_argument("--json", action="store_true",
                                       help="machine-readable stats")
        action_parser.set_defaults(func=_cmd_cache)

    obs_parser = sub.add_parser(
        "obs",
        help="observability utilities (report)",
        description="Utilities over saved telemetry traces "
        "(see 'gear --trace' and docs/obs.md).",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="re-summarize a saved JSONL trace")
    obs_report.add_argument("trace_file", help="trace written by --trace")
    obs_report.add_argument("--json", action="store_true",
                            help="machine-readable report")
    obs_report.set_defaults(func=_cmd_obs_report)

    from repro.serve.daemon import DEFAULT_HOST, DEFAULT_PORT

    serve = sub.add_parser(
        "serve",
        help="run the always-on evaluation service",
        description="Serve /eval, /verify, /experiment, /healthz and "
        "/stats over HTTP.  Concurrent identical requests coalesce onto "
        "one computation; a persistent warm worker pool keeps compiled "
        "kernels and resolved models memoised.  SIGTERM drains in-flight "
        "requests and exits 0 (see docs/serve.md).",
    )
    serve.add_argument("--host", default=DEFAULT_HOST,
                       help=f"bind address (default: {DEFAULT_HOST})")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port; 0 picks a free one "
                       f"(default: {DEFAULT_PORT})")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="worker processes; 0 evaluates on an "
                       "in-process thread (default: 0)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="max wait for in-flight requests on shutdown "
                       "(default: 30)")
    _add_engine_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="talk to a running evaluation service",
        description="Issue requests against 'gear serve'.  Bodies are "
        "JSON (inline or '-' for stdin); 'eval' prints the daemon's raw "
        "canonical bytes, and 'eval --offline' prints the same bytes "
        "computed locally — cmp the two to check the byte-identity "
        "guarantee.",
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)

    def _client_common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--host", default=DEFAULT_HOST)
        cmd.add_argument("--port", type=int, default=DEFAULT_PORT)
        cmd.set_defaults(func=_cmd_client)

    client_eval = client_sub.add_parser(
        "eval", help="POST /eval and print the canonical response")
    client_eval.add_argument("body", help="JSON wire body, or '-' for stdin")
    client_eval.add_argument("--offline", action="store_true",
                             help="evaluate locally instead (the oracle "
                             "for byte-identity checks)")
    _client_common(client_eval)
    client_verify = client_sub.add_parser(
        "verify", help="POST /verify (exit 1 when any layer disagrees)")
    client_verify.add_argument("body", nargs="?", default="{}",
                               help="JSON wire body (default: {})")
    _client_common(client_verify)
    client_experiment = client_sub.add_parser(
        "experiment", help="POST /experiment")
    client_experiment.add_argument("body",
                                   help="JSON wire body, e.g. "
                                   '\'{"name": "table3"}\'')
    _client_common(client_experiment)
    client_health = client_sub.add_parser("health", help="GET /healthz")
    _client_common(client_health)
    client_stats = client_sub.add_parser(
        "stats", help="GET /stats (latency, coalescing, telemetry)")
    _client_common(client_stats)
    client_replay = client_sub.add_parser(
        "replay", help="replay a JSON request script concurrently")
    client_replay.add_argument("script",
                               help="path to a JSON list of requests "
                               "('-' for stdin); items are "
                               '{"endpoint": ..., "body": {...}} or bare '
                               "eval bodies")
    client_replay.add_argument("--concurrency", type=int, default=8,
                               metavar="N", help="client threads "
                               "(default: 8)")
    _client_common(client_replay)

    # --trace/--profile are accepted after any subcommand too (the
    # SUPPRESS defaults keep both positions from fighting over the dest).
    for subparser in set(sub.choices.values()):
        _add_obs_flags(subparser)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    from repro.serve.protocol import ProtocolError

    try:
        return args.func(args)
    except (CLIError, ProtocolError) as exc:  # a refused wire body too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `gear spectrum ... | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    profile = bool(getattr(args, "profile", False))
    if trace_path is None and not profile:
        return _dispatch(args)

    from repro import obs

    with obs.collecting(events=trace_path is not None) as collector:
        code = _dispatch(args)
    frame = collector.snapshot()
    if trace_path is not None:
        label = " ".join(argv if argv is not None else sys.argv[1:])
        obs.write_trace(trace_path, frame, events=collector.events,
                        label=label)
    # stderr, so stdout stays byte-identical with tracing on or off.
    print(obs.render_report(frame), file=sys.stderr)
    if trace_path is not None:
        print(f"trace written to {trace_path}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
