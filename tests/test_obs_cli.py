"""End-to-end tests for the CLI observability surface.

Covers the acceptance contract of ``repro.obs``: tracing must never
perturb stdout (stats stay byte-identical with tracing on or off), and
the merged telemetry counters must be identical at ``--jobs 1`` and
``--jobs 2`` — only durations may differ.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.gear import GeArAdder, GeArConfig
from repro.engine import Engine, EvalRequest

SWEEP = ["sweep", "8", "--r", "2", "--no-hardware", "--samples", "20000",
         "--json"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTraceFlag:
    def test_stdout_byte_identical_with_tracing(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, plain, _ = _run(capsys, SWEEP)
        assert code == 0
        code, traced, err = _run(capsys, SWEEP + ["--trace", str(trace)])
        assert code == 0
        assert traced == plain
        assert "telemetry report" in err
        assert trace.is_file()

    def test_trace_flag_accepted_before_subcommand(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, _, err = _run(capsys, ["--trace", str(trace), *SWEEP])
        assert code == 0
        assert trace.is_file()
        assert "telemetry report" in err

    def test_profile_reports_without_trace_file(self, capsys):
        code, _, err = _run(capsys, [*SWEEP, "--profile"])
        assert code == 0
        assert "engine.evaluate" in err
        assert "engine.shards.planned" in err

    def test_collector_restored_after_run(self, capsys, tmp_path):
        _run(capsys, [*SWEEP, "--trace", str(tmp_path / "t.jsonl")])
        assert obs.get_collector() is obs.NULL

    def test_trace_jsonl_parses_with_expected_counters(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        _run(capsys, [*SWEEP, "--trace", str(trace)])
        data = obs.read_trace(trace)
        counters = data.frame.counters
        assert counters["engine.shards.planned"] == \
            counters["engine.shards.executed"]
        assert counters["engine.shard.samples"] > 0
        assert data.frame.spans["engine.shard"].count == \
            counters["engine.shards.executed"]

    def test_jobs_invariant_counters_and_shard_count(self, capsys, tmp_path):
        t1, t2 = tmp_path / "j1.jsonl", tmp_path / "j2.jsonl"
        code, out1, _ = _run(capsys, [*SWEEP, "--jobs", "1",
                                      "--trace", str(t1)])
        assert code == 0
        code, out2, _ = _run(capsys, [*SWEEP, "--jobs", "2",
                                      "--trace", str(t2)])
        assert code == 0
        assert out1 == out2  # stats byte-identical at any jobs
        f1, f2 = obs.read_trace(t1).frame, obs.read_trace(t2).frame
        assert f1.counters == f2.counters
        assert f1.spans["engine.shard"].count == f2.spans["engine.shard"].count
        hist1 = f1.histograms["engine.shard.duration_s"]
        hist2 = f2.histograms["engine.shard.duration_s"]
        assert hist1.count == hist2.count

    def test_cache_counters_on_warm_rerun(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cold_t, warm_t = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        argv = [*SWEEP, "--cache", str(cache)]
        _run(capsys, [*argv, "--trace", str(cold_t)])
        _run(capsys, [*argv, "--trace", str(warm_t)])
        cold = obs.read_trace(cold_t).frame.counters
        warm = obs.read_trace(warm_t).frame.counters
        # one record per request, however many shards it plans
        assert cold["engine.cache.store"] == cold["engine.requests"]
        assert cold["engine.shards.planned"] > cold["engine.requests"]
        assert cold["engine.cache.miss"] == cold["engine.cache.store"]
        assert warm["engine.cache.hit"] == warm["engine.requests"]
        assert warm["engine.shards.cached"] == warm["engine.shards.planned"]
        assert warm["engine.shards.executed"] == 0
        assert "engine.cache.store" not in warm
        assert "engine.cache.corrupt" not in warm

    def test_verify_layers_appear_in_trace(self, capsys, tmp_path):
        trace = tmp_path / "v.jsonl"
        code, _, _ = _run(capsys, ["verify", "--adder", "rca", "--width", "6",
                                   "--trace", str(trace)])
        assert code == 0
        frame = obs.read_trace(trace).frame
        spans = set(frame.spans)
        assert "verify.adder" in spans
        for layer in ("behavioural", "verilog", "stats", "vector"):
            assert f"verify.adder/verify.layer.{layer}" in spans
        assert frame.counters["verify.vectors"] > 0
        assert any(path.endswith("rtl.sim.simulate") for path in spans)


class TestObsReport:
    def test_report_renders_saved_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        _run(capsys, [*SWEEP, "--trace", str(trace)])
        code, out, _ = _run(capsys, ["obs", "report", str(trace)])
        assert code == 0
        assert "telemetry report" in out
        assert "engine.shard" in out

    def test_report_json(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        _run(capsys, [*SWEEP, "--trace", str(trace)])
        code, out, _ = _run(capsys, ["obs", "report", str(trace), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert "engine.evaluate" in payload["span_summary"]
        assert payload["counters"]["engine.requests"] > 0

    def test_report_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["obs", "report",
                                     str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in err


class TestCacheSubcommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _run(capsys, [*SWEEP, "--cache", str(cache)])
        code, out, _ = _run(capsys, ["cache", "stats", "--dir", str(cache),
                                     "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] > 0
        assert payload["valid"] == payload["entries"]
        assert payload["corrupt"] == 0
        assert payload["bytes"] > 0

        code, out, _ = _run(capsys, ["cache", "clear", "--dir", str(cache)])
        assert code == 0
        assert "removed" in out
        code, out, _ = _run(capsys, ["cache", "stats", "--dir", str(cache),
                                     "--json"])
        assert json.loads(out)["entries"] == 0

    def test_stats_verifies_records_of_both_backends(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        engine = Engine(jobs=1, cache=cache)
        adder = GeArAdder(GeArConfig(8, 2, 2))
        engine.evaluate(EvalRequest.exhaustive(adder, backend="analytic"))
        engine.evaluate(EvalRequest.monte_carlo(adder, 100_000, seed=1))
        code, out, _ = _run(capsys, ["cache", "stats", "--dir", str(cache),
                                     "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] == 2
        assert payload["valid"] == payload["entries"]
        assert payload["corrupt"] == 0

    def test_stats_flags_foreign_record(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _run(capsys, [*SWEEP, "--cache", str(cache)])
        first, second = sorted(cache.glob("??/*.json"))[:2]
        second.write_text(first.read_text())  # valid JSON, wrong digest
        code, out, _ = _run(capsys, ["cache", "stats", "--dir", str(cache),
                                     "--json"])
        assert code == 1
        assert json.loads(out)["corrupt"] == 1

    def test_stats_flags_corrupt_entries(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _run(capsys, [*SWEEP, "--cache", str(cache)])
        victim = next(cache.glob("??/*.json"))
        victim.write_text("{corrupt")
        code, out, _ = _run(capsys, ["cache", "stats", "--dir", str(cache),
                                     "--json"])
        assert code == 1
        assert json.loads(out)["corrupt"] == 1

    def test_stats_text_output(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["cache", "stats", "--dir",
                                     str(tmp_path / "empty")])
        assert code == 0
        assert "entries     : 0" in out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("gear ")
        import repro

        assert repro.__version__ in out
