"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_args(self):
        args = build_parser().parse_args(["info", "12", "4", "4"])
        assert (args.n, args.r, args.p) == (12, 4, 4)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "12", "4", "4"]) == 0
        out = capsys.readouterr().out
        assert "k=2" in out
        assert "0.02929688" in out
        assert "sub-adder 2" in out

    def test_info_partial_config(self, capsys):
        assert main(["info", "20", "3", "7"]) == 0
        assert "k=5" in capsys.readouterr().out

    def test_info_long_window(self, capsys):
        # L = 28: 2^28 window sums are too many to enumerate.
        from repro.core.gear import GeArAdder, GeArConfig
        from repro.engine.analytic import adder_error_pmf

        assert main(["info", "32", "4", "24"]) == 0
        out = capsys.readouterr().out
        assert "mean error distance (analytic) : 7.5000" in out
        pmf = adder_error_pmf(GeArAdder(GeArConfig(32, 4, 24)))
        assert pmf.med == 7.5

    def test_sweep_no_hardware(self, capsys):
        assert main(["sweep", "10", "--r", "2", "--no-hardware"]) == 0
        out = capsys.readouterr().out
        assert "design space" in out
        assert "(2,2)" in out

    def test_verilog(self, capsys):
        assert main(["verilog", "8", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("module gear_8_2_2")
        assert "endmodule" in out

    def test_verilog_output_parses_back(self, capsys):
        from repro.rtl.verilog_parser import parse_verilog

        main(["verilog", "8", "2", "2"])
        netlist = parse_verilog(capsys.readouterr().out)
        assert netlist.input_buses == {"A": 8, "B": 8}

    def test_table3_command(self, capsys):
        assert main(["table3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_fig1_command(self, capsys):
        assert main(["fig1"]) == 0
        assert "configurability" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_motivation_command(self, capsys):
        assert main(["motivation"]) == 0
        out = capsys.readouterr().out
        assert "longest carry chains" in out
        assert "64" in out

    def test_hierarchical_verilog(self, capsys):
        assert main(["verilog", "12", "4", "4", "--hierarchical"]) == 0
        out = capsys.readouterr().out
        assert out.count("endmodule") == 2
        from repro.rtl.hierarchy import elaborate_hierarchical

        netlist = elaborate_hierarchical(out)
        assert netlist.input_buses == {"A": 12, "B": 12}

    def test_export_command(self, capsys, tmp_path):
        assert main(["export", "--dir", str(tmp_path), "--only",
                     "fig1", "table3"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table3" in out
        assert (tmp_path / "fig1.csv").exists()

    def test_export_unknown_name_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--dir", str(tmp_path), "--only", "fig42"])
        assert exc.value.code == 2
        assert "invalid choice: 'fig42'" in capsys.readouterr().err
        assert not tmp_path.joinpath("fig42.csv").exists()

    def test_export_only_without_names_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--dir", str(tmp_path), "--only"])
        assert exc.value.code == 2
        assert "expected at least one argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "12", "--r", "0"], "argument --r: must be a positive"),
        (["sweep", "0", "--no-hardware"], "argument n: must be a positive"),
        (["sweep", "12", "--r", "4", "--no-hardware", "--samples", "100",
          "--seed", "-1"], "argument --seed: must be a non-negative integer"),
        (["table3", "--seed", "-1", "--samples", "100"],
         "argument --seed: must be a non-negative integer"),
    ])
    def test_sweep_non_positive_n_or_r_is_usage_error(self, capsys, argv,
                                                      message):
        # R=0 used to sweep every R and exit 0; n=0 was a traceback.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "12", "--r", "13", "--no-hardware"],
         "no GeAr configuration of width 12 with R=13"),
        (["sweep", "12", "--r", "12", "--no-hardware"],
         "no GeAr configuration of width 12 with R=12"),
        (["sweep", "1", "--no-hardware"],
         "no GeAr configuration of width 1:"),
    ])
    def test_sweep_without_a_configuration_is_usage_error(self, capsys,
                                                          argv, message):
        # Each used to print an empty table and exit 0.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["experiment", "table3", "--samples", "0"],
        ["spectrum", "12", "4", "4", "--samples", "-5"],
        ["sweep", "12", "--no-hardware", "--samples", "0"],
    ])
    def test_non_positive_samples_is_usage_error(self, capsys, argv):
        # The first two were tracebacks; the sweep skipped sampling.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --samples: must be a positive integer" in captured.err

    @pytest.mark.parametrize("argv", [
        ["info", "12", "0", "4"],
        ["info", "4", "4", "4"],
        ["verilog", "4", "4", "4"],
        ["spectrum", "4", "4", "4"],
    ])
    def test_invalid_gear_triple_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_spectrum_command(self, capsys):
        assert main(["spectrum", "12", "4", "4", "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Error spectrum" in out
        assert "dominant error source: speculative sub-adder 1" in out

    def test_report_quick_command(self, capsys, tmp_path):
        target = tmp_path / "rep.md"
        assert main(["report", "--quick", "--out", str(target)]) == 0
        assert target.exists()
        assert "# GeAr reproduction report" in target.read_text()


class TestEngineFlags:
    def test_sweep_measured_columns(self, capsys):
        assert main(["sweep", "10", "--r", "2", "--no-hardware",
                     "--samples", "4000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "measured err" in out

    def test_sweep_json_identical_across_jobs(self, capsys):
        argv = ["sweep", "10", "--r", "4", "--no-hardware",
                "--samples", "8000", "--json"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_sweep_json_shape(self, capsys):
        import json

        assert main(["sweep", "10", "--r", "4", "--no-hardware",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "sweep"
        assert payload["n"] == 10
        assert payload["rows"][0]["measured_error_rate"] is None

    def test_sweep_cache_flag_populates_dir(self, capsys, tmp_path):
        cache = tmp_path / "shards"
        assert main(["sweep", "10", "--r", "4", "--no-hardware",
                     "--samples", "4000", "--cache", str(cache)]) == 0
        assert any(cache.glob("??/*.json"))

    def test_experiment_subcommand(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        assert "configurability" in capsys.readouterr().out

    def test_experiment_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig42"])

    def test_experiment_json(self, capsys):
        import json

        assert main(["experiment", "table3", "--samples", "2000",
                     "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table3"
        assert payload["rows"][0]["samples"] == 2000

    def test_table3_alias_has_sampling_flags(self, capsys):
        assert main(["table3", "--samples", "2000"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_spectrum_seed_flag(self, capsys):
        assert main(["spectrum", "12", "4", "4", "--samples", "20000",
                     "--seed", "9"]) == 0
        assert "Error spectrum" in capsys.readouterr().out

    def test_export_json(self, capsys, tmp_path):
        import json

        assert main(["export", "--dir", str(tmp_path), "--only", "fig1",
                     "--json"]) == 0
        path = tmp_path / "fig1.json"
        assert path.exists()
        assert json.loads(path.read_text())["experiment"] == "fig1"


class TestLintCommand:
    def test_clean_builder_exits_zero(self, capsys):
        assert main(["lint", "rca", "8"]) == 0
        assert "rca 8: clean" in capsys.readouterr().out

    def test_gear_builder_with_params(self, capsys):
        assert main(["lint", "gear", "12", "4", "4"]) == 0
        assert "gear 12 4 4:" in capsys.readouterr().out

    def test_json_output_parses(self, capsys):
        import json

        assert main(["lint", "gear", "12", "4", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["target"] == "gear 12 4 4"
        assert "combinational-loop" in payload["rules_run"]

    def test_fail_on_threshold(self, capsys):
        # CLA legitimately carries duplicate-gate/fanout INFO diagnostics.
        assert main(["lint", "cla", "16"]) == 0
        assert main(["lint", "cla", "16", "--fail-on", "info"]) == 1
        assert main(["lint", "cla", "16", "--fail-on", "never"]) == 0

    def test_suppress_rule(self, capsys):
        assert main(["lint", "cla", "16", "--fail-on", "info",
                     "--suppress", "duplicate-gate",
                     "--suppress", "fanout-outlier"]) == 0

    def test_opt_flag_lints_optimized_netlist(self, capsys):
        assert main(["lint", "cla", "16", "--opt", "--fail-on", "warning",
                     "--suppress", "fanout-outlier"]) == 0

    def test_all_matrix(self, capsys):
        assert main(["lint", "all", "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        assert "rca 16: clean" in out
        assert "gear 12 4 4:" in out

    def test_verilog_file_target(self, capsys, tmp_path):
        main(["verilog", "8", "2", "2"])
        source = capsys.readouterr().out
        path = tmp_path / "adder.v"
        path.write_text(source)
        assert main(["lint", str(path)]) == 0
        assert f"{path}:" in capsys.readouterr().out

    def test_verilog_file_with_defect_fails(self, capsys, tmp_path):
        path = tmp_path / "dead.v"
        path.write_text(
            "module m (input [1:0] A, input [1:0] B, output [1:0] S);\n"
            "  wire d;\n"
            "  assign d = A[0] & B[0];\n"
            "  assign S[0] = A[0] ^ B[0];\n"
            "  assign S[1] = A[1] ^ B[1];\n"
            "endmodule\n"
        )
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "dead-logic" in out
        assert "line 3" in out

    def test_syntax_error_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.v"
        path.write_text("module m (input [1:0] A@);\n")
        assert main(["lint", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_suppress_exits_two(self, capsys):
        assert main(["lint", "rca", "8", "--suppress", "typo-rule"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_unknown_builder_exits_two(self, capsys):
        assert main(["lint", "frobnicate", "8"]) == 2
        assert "unknown builder" in capsys.readouterr().err

    def test_missing_target_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "required" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "combinational-loop" in out
        assert "dead-logic" in out


class TestBackendValidation:
    """Unknown --backend names exit 2 with the registered list."""

    def test_sweep_unknown_backend_exits_two(self, capsys):
        assert main(["sweep", "8", "--samples", "100",
                     "--backend", "typo"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'typo'" in err
        for name in ("sampling", "analytic", "compiled", "auto"):
            assert name in err

    def test_verify_unknown_backend_exits_two(self, capsys):
        assert main(["verify", "--adder", "rca", "--layer", "stats",
                     "--backend", "nonesuch"]) == 2
        assert "registered backends" in capsys.readouterr().err

    def test_validation_happens_before_any_work(self, capsys):
        # a bad backend on a heavy command must fail fast, not mid-sweep
        assert main(["table3", "--backend", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bogus" in captured.err

    def test_registered_backends_still_accepted(self, capsys):
        assert main(["sweep", "8", "--samples", "50", "--backend",
                     "analytic", "--json"]) == 0
        assert capsys.readouterr().out.startswith("{")


class TestClientCommand:
    """gear client argument handling that needs no running daemon."""

    def test_client_eval_offline_prints_canonical_bytes(self, capsys):
        from repro.serve import protocol

        wire = {"adder": "gear_r2p2", "samples": 200, "seed": 6}
        import json as _json

        assert main(["client", "eval", _json.dumps(wire), "--offline"]) == 0
        out = capsys.readouterr().out
        expected = protocol.canonical_bytes(
            protocol.offline_eval_payload(wire)).decode()
        assert out == expected

    def test_client_eval_offline_bad_body_exits_two(self, capsys):
        assert main(["client", "eval", "not json", "--offline"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_client_eval_offline_bad_adder_exits_two(self, capsys):
        assert main(["client", "eval", '{"adder": "nope"}',
                     "--offline"]) == 2
        assert "bad adder reference" in capsys.readouterr().err

    def test_client_unreachable_daemon_exits_two(self, capsys):
        assert main(["client", "health", "--port", "1"]) == 2
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_replay_missing_script_exits_two(self, capsys):
        assert main(["client", "replay", "/no/such/script.json"]) == 2
        assert "cannot load script" in capsys.readouterr().err
