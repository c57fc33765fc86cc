"""Tests for the bench regression gate, the v2 schema, and baselines.

The committed records under ``benchmarks/baselines/`` are part of the
contract: they must validate, cover all six exchange methods between them,
and reproduce exactly when regenerated (the simulation is deterministic).
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    BASELINES,
    BENCH_SCHEMA,
    RUNGS,
    bench_record,
    validate_bench_record,
)
from repro.bench.baselines import (baseline_filename, run_baseline,
                                   write_baselines)
from repro.bench.compare import (
    compare_main,
    compare_records,
    format_compare,
    regressions,
)
from repro.bench.__main__ import main as bench_main
from repro.core.capabilities import LADDER
from repro.core.methods import ExchangeMethod

BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


@pytest.fixture(scope="module")
def record():
    """One freshly generated metrics-enabled record (first baseline)."""
    config, rung = BASELINES[0]
    return bench_record(run_baseline(config, rung))


class TestSchema:
    def test_schema_is_v2(self):
        assert BENCH_SCHEMA == "repro-bench/2"

    def test_fresh_record_validates(self, record):
        validate_bench_record(record)

    def test_v2_sections_present(self, record):
        assert "kind_busy_s" in record
        assert set(record["link_utilization"]) == \
            {"nvlink", "xbus", "pcie", "nic"}
        assert "mpi.messages" in record["metrics"] or \
            "exchange.rounds" in record["metrics"]

    def test_json_roundtrip_validates(self, record):
        validate_bench_record(json.loads(json.dumps(record)))

    def test_rejects_wrong_schema(self, record):
        bad = copy.deepcopy(record)
        bad["schema"] = "repro-bench/1"
        with pytest.raises(ValueError, match="schema"):
            validate_bench_record(bad)

    def test_rejects_missing_key(self, record):
        bad = copy.deepcopy(record)
        del bad["imbalance"]
        with pytest.raises(ValueError, match="imbalance"):
            validate_bench_record(bad)

    def test_rejects_wrong_type(self, record):
        bad = copy.deepcopy(record)
        bad["methods"] = []
        with pytest.raises(ValueError, match="methods"):
            validate_bench_record(bad)

    def test_rejects_malformed_nested(self, record):
        bad = copy.deepcopy(record)
        bad["utilization"][0].pop("busy_s")
        with pytest.raises(ValueError, match="busy_s"):
            validate_bench_record(bad)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_bench_record([])


class TestCompare:
    def test_identical_records_pass(self, record):
        deltas = compare_records(record, copy.deepcopy(record))
        assert regressions(deltas) == []
        assert any(d.metric == "elapsed_mean_s" for d in deltas)
        assert any(d.metric.startswith("util_") for d in deltas)

    def test_elapsed_regression_detected(self, record):
        worse = copy.deepcopy(record)
        worse["elapsed_s"]["mean"] *= 1.10
        bad = regressions(compare_records(record, worse))
        assert [d.metric for d in bad] == ["elapsed_mean_s"]

    def test_within_tolerance_passes(self, record):
        close = copy.deepcopy(record)
        close["elapsed_s"]["mean"] *= 1.01   # under the 2% default
        assert regressions(compare_records(record, close)) == []

    def test_faster_is_not_a_regression(self, record):
        better = copy.deepcopy(record)
        better["elapsed_s"]["mean"] *= 0.5
        better["elapsed_s"]["best"] *= 0.5
        assert regressions(compare_records(record, better)) == []

    def test_utilization_drift_both_directions(self, record):
        # Pin the baseline's nvlink utilization mid-range so both a busier
        # and an idler link exceed the absolute drift tolerance.
        def with_nvlink(rec, value):
            rec = copy.deepcopy(rec)
            for row in rec["utilization"]:
                if row["class"] == "nvlink":
                    row["max_utilization"] = value
            return rec

        base = with_nvlink(record, 0.5)
        for new_value in (0.7, 0.3):
            bad = regressions(compare_records(
                base, with_nvlink(record, new_value)))
            assert [d.metric for d in bad] == ["util_nvlink"]

    def test_config_mismatch_rejected(self, record):
        other = copy.deepcopy(record)
        other["config"] = "9n/9r/9g/999"
        with pytest.raises(ValueError, match="config mismatch"):
            compare_records(record, other)

    def test_format_compare_mentions_verdicts(self, record):
        worse = copy.deepcopy(record)
        worse["elapsed_s"]["mean"] *= 2
        out = format_compare("x", compare_records(record, worse))
        assert "REGRESSED" in out and "ok" in out

    def test_cli_exit_codes(self, record, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(record))
        worse = copy.deepcopy(record)
        worse["elapsed_s"]["mean"] *= 2
        new = tmp_path / "new.json"
        new.write_text(json.dumps(worse))
        assert compare_main([str(base), str(base)]) == 0
        assert "OK" in capsys.readouterr().out
        assert compare_main([str(base), str(new)]) == 1
        assert "FAIL" in capsys.readouterr().out
        # Loosened tolerance lets the same pair pass.
        assert compare_main([str(base), str(new), "--tol-elapsed", "2"]) == 0

    def test_main_routes_compare_subcommand(self, record, tmp_path, capsys):
        p = tmp_path / "r.json"
        p.write_text(json.dumps(record))
        assert bench_main(["compare", str(p), str(p)]) == 0
        assert "OK" in capsys.readouterr().out


class TestCommittedBaselines:
    def test_files_exist_and_validate(self):
        assert BASELINE_DIR.is_dir()
        for config, _rung in BASELINES:
            path = BASELINE_DIR / baseline_filename(config)
            assert path.is_file(), f"missing committed baseline {path}"
            validate_bench_record(json.loads(path.read_text()))

    def test_all_six_methods_covered(self):
        seen = set()
        for config, _rung in BASELINES:
            path = BASELINE_DIR / baseline_filename(config)
            seen |= set(json.loads(path.read_text())["methods"])
        assert seen == {m.value for m in ExchangeMethod}

    def test_regeneration_matches_committed(self, tmp_path, monkeypatch):
        # Determinism end to end: regenerating every baseline reproduces
        # the committed file byte for byte — timings, utilization, link
        # timelines, critical path and metrics alike.  The committed
        # records carry no sections from environment-enabled layers (a
        # sanitizer or fault plan adds its own), so those stay off here.
        for var in ("REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_PRECHECK"):
            monkeypatch.delenv(var, raising=False)
        paths = write_baselines(tmp_path)
        assert len(paths) == len(BASELINES)
        for path in paths:
            committed = BASELINE_DIR / path.name
            assert path.read_bytes() == committed.read_bytes(), path.name


class TestRungs:
    def test_rungs_extend_frozen_ladder(self):
        assert list(RUNGS)[:len(LADDER)] == list(LADDER)
        assert "+direct" in RUNGS
        from repro.core.capabilities import Capability
        assert Capability.DIRECT in RUNGS["+direct"]
        assert Capability.DIRECT not in LADDER["+kernel"]

    def test_baseline_rungs_are_known(self):
        for _config, rung in BASELINES:
            assert rung in RUNGS


class TestMetricsCli:
    def test_metrics_flag_artifacts(self, tmp_path, capsys):
        rc = bench_main(["1n/1r/2g/64", "--metrics", "--reps", "1",
                        "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top counters" in out
        assert "link occupancy" in out
        snap_path = tmp_path / "METRICS_1n_1r_2g_64.json"
        events_path = tmp_path / "METRICS_1n_1r_2g_64.events.jsonl"
        assert snap_path.is_file() and events_path.is_file()
        snap = json.loads(snap_path.read_text())
        assert "exchange.rounds" in snap
        for line in events_path.read_text().splitlines():
            json.loads(line)

    def test_direct_rung_from_cli(self, tmp_path, capsys):
        rc = bench_main(["2n/1r/2g/64", "--rung", "+direct", "--reps", "1",
                        "--json", str(tmp_path / "b.json"), "--metrics",
                        "--out", str(tmp_path)])
        assert rc == 0
        rec = json.loads((tmp_path / "b.json").read_text())
        validate_bench_record(rec)
        assert "direct" in rec["methods"]
