"""Tests for the benchmark harness: config strings, sweeps, reporting."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.core.capabilities import Capability
from repro.bench import (
    BenchConfig,
    ExchangeTiming,
    build_domain,
    format_series,
    format_table,
    parse_config,
    run_exchange_config,
    weak_scaling_extent,
)


class TestConfig:
    def test_parse_basic(self):
        c = parse_config("2n/6r/6g/1180")
        assert (c.nodes, c.ranks_per_node, c.gpus_per_node, c.extent) == \
            (2, 6, 6, 1180)
        assert not c.cuda_aware

    def test_parse_cuda_aware(self):
        assert parse_config("1n/1r/6g/930/ca").cuda_aware

    def test_label_roundtrip(self):
        for s in ("1n/1r/6g/930", "256n/6r/6g/8715/ca", "4n/2r/4g/100"):
            assert parse_config(s).label() == s

    def test_parse_errors(self):
        for bad in ("", "2n/6r", "xn/6r/6g/100", "2n/6r/6g/100/cb"):
            with pytest.raises(ConfigurationError):
                parse_config(bad)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BenchConfig(1, 4, 6, 100)   # 4 doesn't divide 6
        with pytest.raises(ConfigurationError):
            BenchConfig(0, 1, 6, 100)
        with pytest.raises(ConfigurationError):
            BenchConfig(1, 1, 6, 0)

    def test_derived(self):
        c = BenchConfig(4, 6, 6, 100)
        assert c.size.as_tuple() == (100, 100, 100)

    def test_weak_scaling_extent_paper_values(self):
        """§IV-D: round(750 * nGPUs^(1/3))."""
        assert weak_scaling_extent(1) == 750
        assert weak_scaling_extent(6) == 1363   # 1 node, the Fig. 13 domain
        assert weak_scaling_extent(1536) == 8653  # 256 nodes

    @given(st.integers(1, 4096))
    def test_weak_scaling_monotone(self, n):
        assert weak_scaling_extent(n + 1) >= weak_scaling_extent(n)


class TestHarness:
    def test_build_domain(self):
        dd, cluster = build_domain(parse_config("1n/2r/6g/48"))
        assert len(dd.subdomains) == 6
        assert not cluster.data_mode

    def test_partial_node(self):
        dd, cluster = build_domain(parse_config("1n/1r/2g/32"))
        assert len(dd.subdomains) == 2

    def test_run_exchange_config(self):
        t = run_exchange_config(parse_config("1n/6r/6g/96"), reps=2)
        assert isinstance(t, ExchangeTiming)
        assert len(t.results) == 2
        assert t.mean > 0
        assert t.best <= t.mean
        assert t.results[0].total_bytes > 0

    def test_cuda_aware_config_builds_ca_world(self):
        dd, _ = build_domain(parse_config("1n/6r/6g/48/ca"))
        assert dd.world.cuda_aware

    def test_capability_restriction(self):
        t = run_exchange_config(parse_config("1n/6r/6g/96"),
                                capabilities=Capability.remote_only(),
                                reps=1)
        from repro.core.methods import ExchangeMethod
        assert set(t.results[0].method_counts) == {ExchangeMethod.STAGED}


class TestReporting:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 40]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "30" in out

    def test_format_series_pivots(self):
        class T:
            def __init__(self, ms):
                self.mean = ms / 1e3
        res = {(1, "+remote"): T(2.0), (1, "+peer"): T(1.0),
               (2, "+remote"): T(3.0)}
        out = format_series(res, "nodes", "caps")
        assert "+remote" in out and "+peer" in out
        assert "2.000 ms" in out
        assert "-" in out  # missing (2, "+peer") cell
