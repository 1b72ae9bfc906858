"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_analyze_args(self):
        args = build_parser().parse_args(["analyze", "ed", "--penalty", "30"])
        assert args.workload == "ed"
        assert args.penalty == 30

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--experiment", "2", "--horizon", "100000"]
        )
        assert args.experiment == "2"
        assert args.horizon == 100000

    def test_tables_filter(self):
        args = build_parser().parse_args(["tables", "--only", "table2", "--no-art"])
        assert args.only == ["table2"]
        assert args.no_art

    def test_whatif_help_lists_every_edit_form(self, capsys):
        """Every form ``parse_edit`` accepts, layout moves included."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["whatif", "--help"])
        # argparse wraps help lines; compare the words.
        out = " ".join(capsys.readouterr().out.split())
        for form in (
            "penalty=N", "geometry=SETSxWAYSxLINE", "period:TASK=N",
            "array:TASK:INDEX=WORDS", "code:TASK=ADDR", "data:TASK=ADDR",
            "color:TASK:INDEX=COLOR", "swap:TASK=TASK",
        ):
            assert form in out


class TestCommands:
    def test_workloads_lists_all_six(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("ofdm", "ed", "mr", "adpcmc", "adpcmd", "idct"):
            assert name in out

    def test_analyze_ed(self, capsys):
        assert main(["analyze", "ed"]) == 0
        out = capsys.readouterr().out
        assert "[wcet]" in out
        assert "SFP-PrS" in out
        assert "sobel" in out and "cauchy" in out

    def test_analyze_reuse_flag(self, capsys):
        assert main(["analyze", "mr", "--reuse"]) == 0
        out = capsys.readouterr().out
        assert "[cache behaviour]" in out

    def test_analyze_unknown_workload(self):
        with pytest.raises(KeyError):
            main(["analyze", "quake"])

    def test_crpd_experiment1(self, capsys):
        assert main(["crpd", "--experiment", "1"]) == 0
        out = capsys.readouterr().out
        assert "OFDM by MR" in out
        assert "App. 4" in out

    def test_simulate_short_horizon(self, capsys):
        assert main(
            ["simulate", "--experiment", "1", "--horizon", "160000",
             "--events", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "ART" in out
        assert "release" in out


class TestGuardedCLI:
    """Budget flags, soundness tagging and typed one-line failures."""

    def test_analyze_reports_exact_soundness(self, capsys):
        assert main(["analyze", "ed"]) == 0
        captured = capsys.readouterr()
        assert "soundness: exact" in captured.out
        assert captured.err == ""

    def test_tiny_path_budget_degrades_not_fails(self, capsys):
        assert main(["--max-paths", "1", "analyze", "ed"]) == 0
        captured = capsys.readouterr()
        assert "soundness: conservative" in captured.out
        assert "repro: degraded [paths:ed] max_paths tripped" in captured.err

    def test_strict_budget_is_a_typed_one_line_failure(self, capsys):
        assert main(["--strict", "--max-paths", "1", "analyze", "ed"]) == 3
        captured = capsys.readouterr()
        err_lines = [line for line in captured.err.splitlines() if line]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("repro: budget error:")

    def test_invalid_budget_value_exits_with_config_code(self, capsys):
        assert main(["--max-paths", "0", "analyze", "ed"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: config error:")

    def test_geometry_past_255_ways_exits_with_config_code(self, capsys):
        argv = ["--no-cache", "sweep", "--experiment", "1", "--geometry", "64x256x32"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "ways must be in 1..255" in err

    def test_crpd_table_notes_soundness(self, capsys):
        assert main(["--max-paths", "1", "crpd", "--experiment", "1"]) == 0
        captured = capsys.readouterr()
        assert "soundness: conservative" in captured.out
        assert "crpd:" in captured.err


class TestObservabilityCLI:
    """--trace-out / --metrics-out / obs summarize round-trips."""

    def test_traced_crpd_round_trip(self, tmp_path, capsys):
        import json

        from repro.obs import SPAN_RECORD_KEYS, read_trace

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["--no-cache", "--trace-out", str(trace),
             "--metrics-out", str(metrics), "crpd", "--experiment", "1"]
        ) == 0
        capsys.readouterr()
        records = read_trace(trace)
        names = {r["name"] for r in records}
        assert {"cli.crpd", "experiments.build_context", "crpd.pair"} <= names
        for record in records:
            assert set(record) == SPAN_RECORD_KEYS
        data = json.loads(metrics.read_text())
        assert data["counters"]["crpd.pairs_computed"] == 12

        assert main(["obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cli.crpd" in out
        assert "share %" in out

    def test_trace_out_leaves_obs_disabled_afterwards(self, tmp_path, capsys):
        from repro.obs import STATE

        trace = tmp_path / "trace.jsonl"
        assert main(["--trace-out", str(trace), "workloads"]) == 0
        capsys.readouterr()
        assert STATE.enabled is False
        assert trace.exists()

    def test_strict_failure_preserves_exit_code_and_writes_trace(
        self, tmp_path, capsys
    ):
        from repro.obs import read_trace

        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--strict", "--max-paths", "1", "--trace-out", str(trace),
             "analyze", "ed"]
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: budget error:")
        # The trace is still exported and names the failure.
        root = next(
            r for r in read_trace(trace) if r["name"] == "cli.analyze"
        )
        assert root["attrs"]["error"] == "PathExplosionError"

    def test_degradations_ride_the_trace_as_span_events(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--no-cache", "--max-paths", "1", "--trace-out", str(trace),
             "analyze", "ed"]
        ) == 0
        capsys.readouterr()
        events = [
            event
            for record in read_trace(trace)
            for event in record.get("events", ())
            if event["name"] == "ledger.degradation"
        ]
        assert any(e["attrs"]["budget"] == "max_paths" for e in events)

    def test_summarize_rejects_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["obs", "summarize", str(tmp_path / "absent.jsonl")])
