"""Sweep helpers and the system factory."""

import math

import pytest

from repro.errors import ConfigError
from repro.sim.config import SimConfig
from repro.sim.factory import build_design, build_system, run_one
from repro.sim.sweep import bench_scale, run_grid, speedups_vs_baseline
from repro.mem.nvm import NVMainMemory
from repro.workloads import build_workload
from tests.conftest import build_sum_program


class TestFactory:
    def test_all_design_names(self):
        nvm = NVMainMemory([0] * 64)
        cfg = SimConfig()
        for name in ("NoCache", "VCache-WT", "NVCache-WB", "NVSRAM(ideal)",
                     "ReplayCache", "WL-Cache"):
            design = build_design(name, nvm, cfg)
            assert design.name == name

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError, match="unknown design"):
            build_design("L4-Cache", NVMainMemory([0] * 64), SimConfig())

    def test_overrides_applied(self):
        prog = build_sum_program(50)
        system = build_system(prog, "WL-Cache", trace=None, maxline=3,
                              dq_policy="lru")
        assert system.design.maxline == 3
        assert system.design.dq.policy == "lru"

    def test_trace_by_name(self):
        prog = build_sum_program(50)
        system = build_system(prog, "WL-Cache", trace="thermal")
        assert "thermal" in system.trace.name

    def test_nvcache_gets_slow_ifetch(self):
        prog = build_sum_program(50)
        nv = build_system(prog, "NVCache-WB", trace=None)
        wl = build_system(prog, "WL-Cache", trace=None)
        assert nv.core.costs.ifetch_extra > wl.core.costs.ifetch_extra

    def test_trace_seed_override(self):
        prog = build_sum_program(50)
        a = build_system(prog, "WL-Cache", trace="trace1", trace_seed=42)
        b = build_system(prog, "WL-Cache", trace="trace1", trace_seed=43)
        assert a.trace.energy_nj(0, 10**6) != pytest.approx(
            b.trace.energy_nj(0, 10**6))


class TestSweep:
    def test_run_grid_and_speedups(self):
        results = run_grid(["sha"], ("NVSRAM(ideal)", "WL-Cache"),
                           trace=None, scale=0.15)
        assert set(results) == {("sha", "NVSRAM(ideal)"),
                                ("sha", "WL-Cache")}
        sp = speedups_vs_baseline(results)
        assert sp[("sha", "NVSRAM(ideal)")] == 1.0
        assert sp[("sha", "WL-Cache")] > 0

    def test_run_grid_verifies_outputs(self):
        # verification is on by default; a passing run is the assertion
        results = run_grid(["qsort"], ("WL-Cache",), trace="trace1",
                           scale=0.15)
        assert results[("qsort", "WL-Cache")].halted

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert bench_scale(2.0) == 2.0

    def test_bench_scale_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "fast")
        with pytest.raises(ConfigError, match="REPRO_BENCH_SCALE"):
            bench_scale()
        for raw in ("0", "nan", "inf"):
            monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
            with pytest.raises(ConfigError, match="must be > 0"):
                bench_scale()

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0, -1])
    def test_build_workload_rejects_bad_scale(self, scale):
        with pytest.raises(ConfigError, match="sha: workload scale"):
            build_workload("sha", scale)

    def test_empty_workload_list(self):
        assert run_grid([], ("WL-Cache",), None) == {}

    def test_unknown_design_before_running(self):
        # rejected upfront (before any simulation), with the full roster
        with pytest.raises(ConfigError, match="unknown design"):
            run_grid(["sha"], ("WriteHeavy-Cache",), None, scale=0.1)

    def test_unknown_workload_before_running(self):
        with pytest.raises(KeyError, match="unknown workload"):
            run_grid(["sort"], ("WL-Cache",), None, scale=0.1)

    def test_missing_baseline_has_clear_message(self):
        results = run_grid(["sha"], ("WL-Cache", "VCache-WT"), None,
                           scale=0.1)
        with pytest.raises(ConfigError, match="NVSRAM"):
            speedups_vs_baseline(results)


class TestRunResult:
    def test_summary_and_properties(self):
        prog = build_sum_program(500)
        res = run_one(prog, "WL-Cache", trace="trace1")
        text = res.summary()
        assert "sum" in text and "WL-Cache" in text
        assert res.ipc > 0
        assert 0 <= res.stall_fraction < 1
        assert res.energy.total_nj > 0
        assert set(res.energy.as_dict()) == {
            "cache_read", "cache_write", "mem_read", "mem_write",
            "compute", "checkpoint", "discarded"}

    def test_period_stats_sum(self):
        prog = build_sum_program(3000)
        res = run_one(prog, "WL-Cache", trace="trace2")
        assert res.outages >= 1
        assert sum(p.instrs for p in res.periods) == res.instructions
        assert all(p.on_time_ns >= 0 for p in res.periods)
