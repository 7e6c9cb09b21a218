"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.cgyro.presets import small_test
from repro.cgyro.io import write_input_file
from repro.xgyro.input import write_ensemble


@pytest.fixture
def sim_dir(tmp_path):
    d = tmp_path / "case"
    d.mkdir()
    write_input_file(small_test(steps_per_report=2), d / "input.cgyro")
    return d


@pytest.fixture
def ensemble_file(tmp_path):
    base = small_test(steps_per_report=2)
    inputs = [base.with_updates(dlntdr=(g, g), name=f"g{g}") for g in (2.0, 3.0)]
    return write_ensemble(inputs, tmp_path / "study")


class TestRunCgyro:
    def test_basic_run(self, sim_dir, capsys):
        assert main(["run-cgyro", str(sim_dir), "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "small-test" in out
        assert "flux Q(n)" in out
        assert "timing" in out

    def test_accepts_input_file_path(self, sim_dir, capsys):
        assert main(["run-cgyro", str(sim_dir / "input.cgyro")]) == 0

    def test_timing_csv_written(self, sim_dir, tmp_path, capsys):
        out_csv = tmp_path / "timing.csv"
        assert main(["run-cgyro", str(sim_dir), "--timing-out", str(out_csv)]) == 0
        assert out_csv.exists()
        assert "str_comm" in out_csv.read_text()

    def test_checkpoint_resume_cycle(self, sim_dir, tmp_path, capsys):
        ck = tmp_path / "ck.npz"
        assert main(["run-cgyro", str(sim_dir), "--checkpoint", str(ck)]) == 0
        assert ck.exists()
        assert main(["run-cgyro", str(sim_dir), "--resume", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(["run-cgyro", str(tmp_path / "ghost")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_node_machine(self, sim_dir, capsys):
        assert main(
            ["run-cgyro", str(sim_dir), "--machine", "single", "--ranks-per-node", "8"]
        ) == 0


class TestRunXgyro:
    def test_ensemble_run(self, ensemble_file, capsys):
        assert main(["run-xgyro", str(ensemble_file), "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "k=2 members" in out
        assert "str comm" in out
        assert "g2.0" in out and "g3.0" in out

    def test_invalid_ensemble_fails_cleanly(self, tmp_path, capsys):
        base = small_test(steps_per_report=2)
        bad = [base, base.with_updates(nu=0.9)]
        top = write_ensemble(bad, tmp_path / "bad")
        assert main(["run-xgyro", str(top)]) == 2
        assert "cmat" in capsys.readouterr().err

    def test_timing_csv_has_one_row_per_interval(self, ensemble_file, tmp_path, capsys):
        out_csv = tmp_path / "timing.csv"
        argv = ["run-xgyro", str(ensemble_file), "--nodes", "2", "--reports", "3"]
        assert main(argv + ["--timing-out", str(out_csv)]) == 0
        header, *rows = out_csv.read_text().splitlines()
        assert "str_comm" in header
        assert [r.split(",")[0] for r in rows] == ["2", "4", "6"]  # step column

    def test_zero_reports_with_timing_out_fails_cleanly(
        self, ensemble_file, tmp_path, capsys
    ):
        argv = ["run-xgyro", str(ensemble_file), "--nodes", "2", "--reports", "0"]
        assert main(argv + ["--timing-out", str(tmp_path / "t.csv")]) == 2
        assert "error: --reports" in capsys.readouterr().err


class TestReportsFlag:
    @pytest.mark.parametrize(
        "command", ["run-cgyro", "run-xgyro", "study", "oracle", "trace", "metrics"]
    )
    @pytest.mark.parametrize("reports", ["0", "-1"])
    def test_below_one_fails_cleanly(self, command, reports, tmp_path, capsys):
        # rejected before any input is read: the path need not exist
        argv = [command, str(tmp_path / "unread"), "--reports", reports]
        assert main(argv) == 2
        assert "error: --reports must be >= 1" in capsys.readouterr().err


class TestStudy:
    def test_study_command(self, ensemble_file, capsys):
        study_dir = ensemble_file.parent
        assert main(
            ["study", str(study_dir), "--machine", "single", "--ranks-per-node", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 members" in out
        assert "outputs written" in out
        assert (study_dir / "out.xgyro.summary").exists()
        assert (study_dir / "member00" / "history.npz").exists()

    def test_study_without_manifest_fails(self, tmp_path, capsys):
        assert main(["study", str(tmp_path)]) == 2
        assert "input.xgyro" in capsys.readouterr().err


class TestPlan:
    def test_plan_table(self, sim_dir, capsys):
        assert main(["plan", str(sim_dir), "--members", "2", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "cmat dominance" in out
        assert "1 member(s)" in out
        assert "2 member(s)" in out

    def test_uneven_ensemble_gets_a_node_count(self, sim_dir, capsys):
        """k = 3 does not divide nc = 16; the campaign places it on 3
        nodes, and the planning table must say so."""
        args = ["plan", str(sim_dir), "--members", "3", "--nodes", "8",
                "--ranks-per-node", "4"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 member(s) sharing cmat: 3 node(s)" in out
        assert "does not fit" not in out


class TestLinear:
    def test_spectrum_output(self, tmp_path, capsys):
        d = tmp_path / "lin"
        d.mkdir()
        inp = small_test(dlntdr=(9.0, 9.0), nu=0.05, nonadiabatic_delta=0.3)
        write_input_file(inp, d / "input.cgyro")
        assert main(["linear", str(d), "--modes", "1", "--tol", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "gamma" in out
        assert " 1 " in out or "\n   1" in out

    def test_nonlinear_input_downgraded(self, tmp_path, capsys):
        d = tmp_path / "lin2"
        d.mkdir()
        write_input_file(small_test(nonlinear=True), d / "input.cgyro")
        assert main(["linear", str(d), "--modes", "1", "--tol", "1e-5"]) == 0
        assert "disabled" in capsys.readouterr().out


class TestVerify:
    def test_builtin_verification_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "observed order" in out
        assert "PASSED" in out


class TestTelemetryCommands:
    def test_trace_prints_attribution_report(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "attributed to named phases" in out

    def test_trace_writes_spans_and_chrome(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        chrome = tmp_path / "trace.json"
        assert main(
            [
                "trace",
                "--spans-out", str(spans),
                "--chrome-out", str(chrome),
            ]
        ) == 0
        assert "repro-spans-v1" in spans.read_text().splitlines()[0]
        assert "traceEvents" in chrome.read_text()

    def test_trace_accepts_ensemble_file(self, ensemble_file, capsys):
        assert main(["trace", str(ensemble_file)]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_metrics_prometheus_and_json(self, tmp_path, capsys):
        snap = tmp_path / "metrics.json"
        assert main(["metrics", "--json", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE vmpi_collective_bytes_total counter" in out
        assert snap.exists()

    def test_perf_gate_pass_and_fail(self, tmp_path, capsys):
        from repro.obs.gate import write_bench_records

        base = tmp_path / "base.json"
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        write_bench_records({"b": {"wall_s": 10.0}}, base)
        write_bench_records({"b": {"wall_s": 10.2}}, good)
        write_bench_records({"b": {"wall_s": 8.0}}, bad)
        assert main(["perf-gate", str(good), str(base)]) == 0
        # two-sided: a wall that fell 20 % fails too
        assert main(["perf-gate", str(bad), str(base)]) == 1
        assert "drifted" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_machine_choice_rejected(self, sim_dir):
        with pytest.raises(SystemExit):
            main(["run-cgyro", str(sim_dir), "--machine", "cray"])


class TestServe:
    def test_smoke_run(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "SLO attainment" in out
        assert "pool" in out

    def test_smoke_json_report(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        assert main(["serve", "--smoke", "--json", str(path)]) == 0
        import json as _json

        data = _json.loads(path.read_text())
        assert data["offered"] == (
            len(data["served"])
            + len(data["rejections"])
            + len(data["abandoned"])
        )

    def test_fifo_flag(self, capsys):
        assert main([
            "serve", "--workload", "small", "--rate", "0.05",
            "--horizon", "120", "--fifo", "--seed", "3",
        ]) == 0
        assert "mean k" in capsys.readouterr().out


class TestMetricsQuantiles:
    @pytest.fixture
    def snapshot(self, tmp_path):
        import json

        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        for tenant, values in (("a", [0.2, 0.4]), ("b", [0.8])):
            h = reg.histogram("ttr_seconds", tenant=tenant)
            for v in values:
                h.observe(v)
        p = tmp_path / "metrics.json"
        p.write_text(json.dumps(reg.to_dict(), sort_keys=True))
        return p

    def test_load_and_quantile_merges_series(self, snapshot, capsys):
        assert main(
            ["metrics", "--load", str(snapshot),
             "--quantile", "ttr_seconds:0.5",
             "--quantile", "ttr_seconds:0.99"]
        ) == 0
        out = capsys.readouterr().out
        assert "ttr_seconds q=0.5:" in out
        assert "2 series merged" in out
        assert "3 observation(s)" in out

    def test_load_without_quantile_renders_prometheus(
        self, snapshot, capsys
    ):
        assert main(["metrics", "--load", str(snapshot)]) == 0
        assert "ttr_seconds_bucket" in capsys.readouterr().out

    def test_bad_quantile_spec_fails_cleanly(self, snapshot, capsys):
        assert main(
            ["metrics", "--load", str(snapshot), "--quantile", "bogus"]
        ) == 2
        assert "NAME:q" in capsys.readouterr().err

    def test_unknown_histogram_fails_cleanly(self, snapshot, capsys):
        assert main(
            ["metrics", "--load", str(snapshot), "--quantile", "ghost:0.5"]
        ) == 2
        assert "no histogram" in capsys.readouterr().err


class TestMonitor:
    def test_smoke_single_scenario_with_outputs(self, tmp_path, capsys):
        summary = tmp_path / "mon.json"
        rollups = tmp_path / "rollups"
        assert main(
            ["monitor", "--smoke", "--scenario", "crash-resume",
             "--json", str(summary), "--rollups-out", str(rollups)]
        ) == 0
        out = capsys.readouterr().out
        assert "FIRED" in out and "control-crash" in out
        assert "service_crash" in out
        import json

        doc = json.loads(summary.read_text())
        assert doc["crash-resume"]["format"] == "repro-monitor-v1"
        assert (rollups / "crash-resume.jsonl").exists()

    def test_custom_rulebook(self, tmp_path, capsys):
        from repro.obs.monitor import AlertRule, dump_rulebook

        rules = tmp_path / "rules.json"
        dump_rulebook(
            [AlertRule(name="only-crash", kind="threshold",
                       metric="crashes")],
            rules,
        )
        assert main(
            ["monitor", "--smoke", "--scenario", "crash-resume",
             "--rules", str(rules)]
        ) == 0
        out = capsys.readouterr().out
        assert "only-crash" in out
        assert "shed-burn" not in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["monitor", "--smoke", "--scenario", "ghost"]) == 2
        assert "unknown chaos scenario" in capsys.readouterr().err
