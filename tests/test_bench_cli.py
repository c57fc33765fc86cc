"""Tests for the `python -m repro.bench` command-line interface."""

import json

import pytest

from repro.bench.__main__ import EXPERIMENTS, main
from repro.bench.reporting import BENCH_SCHEMA
from repro.findings import Finding
from repro.sanitize import Sanitizer


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig03", "fig11", "fig12a", "fig13"):
            assert name in out

    def test_fig03(self, capsys):
        assert main(["fig03"]) == 0
        out = capsys.readouterr().out
        assert "2x2" in out and "9x1" in out

    def test_fig04(self, capsys):
        assert main(["fig04"]) == 0
        assert "(2, 6, 1)" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "nodes: 2" in out and "XBUS" in out

    def test_fig12b_with_custom_nodes(self, capsys):
        assert main(["fig12b", "--nodes", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "+kernel" in out and "+remote" in out

    def test_out_directory(self, tmp_path, capsys):
        assert main(["fig04", "--out", str(tmp_path)]) == 0
        written = (tmp_path / "fig04.txt").read_text()
        assert "(2, 6, 1)" in written

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_every_registered_experiment_is_callable(self):
        # Smoke: the registry stays in sync with the implementations.
        assert set(EXPERIMENTS) == {
            "fig03", "fig04", "fig09", "table1", "fig11",
            "fig12a", "fig12b", "fig12c", "fig13"}


class TestConfigRuns:
    def test_config_string_runs(self, capsys):
        assert main(["1n/2r/2g/128", "--reps", "1", "--warmup", "0"]) == 0
        out = capsys.readouterr().out
        assert "1n/2r/2g/128" in out and "exchange: mean" in out

    def test_profile_and_json_artifacts(self, tmp_path, capsys):
        json_path = tmp_path / "bench.json"
        assert main(["1n/2r/2g/128", "--profile", "--reps", "1",
                     "--warmup", "0", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out and "by resource class" in out

        record = json.loads(json_path.read_text())
        assert record["schema"] == BENCH_SCHEMA
        assert record["config"] == "1n/2r/2g/128"
        assert record["elapsed_s"]["mean"] > 0
        # ISSUE acceptance bar: the critical path accounts for >= 95%.
        assert record["critical_path"]["coverage"] >= 0.95
        assert record["critical_path"]["phase_seconds"]

        trace_path = tmp_path / "bench.trace.json"
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events)

    def test_json_auto_name_in_out_dir(self, tmp_path, capsys):
        assert main(["1n/2r/2g/128", "--json", "--reps", "1",
                     "--warmup", "0", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        auto = tmp_path / "BENCH_1n_2r_2g_128.json"
        assert auto.exists()
        assert json.loads(auto.read_text())["reps"] == 1
        # No --profile: no critical path section, no trace file.
        assert "critical_path" not in json.loads(auto.read_text())
        assert not (tmp_path / "BENCH_1n_2r_2g_128.trace.json").exists()

    def test_explicit_trace_path(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["1n/2r/2g/128", "--profile", "--reps", "1",
                     "--warmup", "0", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert "traceEvents" in json.loads(trace.read_text())

    def test_sanitized_clean_run_exits_0(self, capsys):
        assert main(["1n/2r/2g/128", "--sanitize", "--reps", "1",
                     "--warmup", "0"]) == 0
        assert "sanitizer: clean" in capsys.readouterr().out

    @pytest.mark.expect_findings
    def test_sanitized_run_with_findings_exits_1(self, tmp_path, capsys,
                                                 monkeypatch):
        finalize = Sanitizer.finalize

        def with_finding(self):
            report = finalize(self)
            if not report.findings:
                report.add(Finding(checker="mpi", kind="leaked-request",
                                   message="planted for the exit-code test"))
            return report

        monkeypatch.setattr(Sanitizer, "finalize", with_finding)
        json_path = tmp_path / "bench.json"
        assert main(["1n/2r/2g/128", "--sanitize", "--reps", "1",
                     "--warmup", "0", "--json", str(json_path)]) == 1
        assert "planted for the exit-code test" in capsys.readouterr().out
        # Every output is still written before the failing exit.
        record = json.loads(json_path.read_text())
        assert record["sanitizer"]["findings"]

    def test_rung_selects_capabilities(self, capsys):
        assert main(["2n/2r/2g/128", "--reps", "1", "--warmup", "0",
                     "--rung", "+remote"]) == 0
        out = capsys.readouterr().out
        assert "+remote" in out and "staged" in out

    def test_bad_config_and_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["3x/bad/config"])
