"""Full-system simulation: no-failure runs, outage lifecycle, invariants."""

import math

import pytest

from repro.energy.traces import ConstantTrace
from repro.errors import ConfigError, EnergyError
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.factory import build_system, run_one
from repro.verify.checker import check_crash_consistency
from tests.conftest import build_sum_program

from repro.workloads import build_workload, verify_checks


@pytest.fixture(scope="module")
def small_sha():
    return build_workload("sha", 0.25)


class TestNoFailure:
    def test_all_designs_complete_and_agree(self, small_sha):
        times = {}
        for design in DESIGNS + ("NoCache",):
            res = run_one(small_sha, design, trace=None)
            assert res.halted
            verify_checks(small_sha, res.final_memory)
            times[design] = res.total_time_ns
        # performance ordering without failures (Fig. 4 shape)
        assert times["NoCache"] > times["VCache-WT"]
        assert times["NVCache-WB"] > times["VCache-WT"]
        assert times["VCache-WT"] > times["ReplayCache"]
        assert times["ReplayCache"] > times["NVSRAM(ideal)"]
        # WL ~ NVSRAM when power never fails
        assert times["WL-Cache"] <= times["ReplayCache"]

    def test_result_counters_consistent(self, small_sha):
        res = run_one(small_sha, "WL-Cache", trace=None)
        assert res.instructions > 0
        assert res.exec_cycles >= res.instructions
        assert res.outages == 0
        assert res.off_time_ns == 0
        assert res.energy.total_nj > 0
        assert 0 < res.ipc <= 1.0


class TestOutages:
    def test_outage_lifecycle(self, small_sha):
        res = run_one(small_sha, "WL-Cache", trace="trace1")
        assert res.halted
        assert res.outages > 0
        assert res.off_time_ns > 0
        assert len(res.periods) == res.outages + 1
        assert sum(p.instrs for p in res.periods) == res.instructions
        verify_checks(small_sha, res.final_memory)

    def test_crash_consistency_all_designs(self, small_sha):
        for design in DESIGNS:
            res = run_one(small_sha, design, trace="trace2")
            assert res.outages > 0, design
            check_crash_consistency(small_sha, res)

    def test_checkpoint_never_breaks_reserve(self, small_sha):
        # the System itself raises EnergyError if a flush overruns the
        # reserve; completing is the assertion
        res = run_one(small_sha, "WL-Cache", trace="trace3")
        assert res.halted

    def test_wl_dirty_bound_reported(self, small_sha):
        res = run_one(small_sha, "WL-Cache", trace="trace1",
                      adaptive=False)
        cfg = SimConfig()
        for p in res.periods:
            assert p.dirty_highwater <= cfg.maxline

    def test_adaptive_reconfigures(self):
        prog = build_workload("sha", 1.0)
        res = run_one(prog, "WL-Cache", trace="trace2")
        assert res.reconfig_count > 0
        assert 1 <= res.maxline_min <= res.maxline_max <= 6
        assert 0.0 <= res.prediction_accuracy <= 1.0

    def test_static_never_reconfigures(self, small_sha):
        res = run_one(small_sha, "WL-Cache", trace="trace2", adaptive=False)
        assert res.reconfig_count == 0
        assert res.maxline_min == res.maxline_max == 6

    def test_dynamic_adaptation_raises_maxline(self):
        # stride-one-line stores dirty a new line every iteration, hitting
        # the maxline bound hard enough to trigger opportunistic raises
        from tests.conftest import build_store_loop
        prog = build_store_loop(n=400, stride_words=16)
        res = run_one(prog, "WL-Cache", trace="solar",
                      adaptive=False, dynamic=True, maxline=2)
        assert res.dyn_raises > 0
        check_crash_consistency(prog, res)

    def test_vbackup_ordering_matches_reserves(self, small_sha):
        sys_wl = build_system(small_sha, "WL-Cache", trace="trace1")
        sys_ns = build_system(small_sha, "NVSRAM(ideal)", trace="trace1")
        sys_wt = build_system(small_sha, "VCache-WT", trace="trace1")
        assert sys_wt.v_backup < sys_wl.v_backup < sys_ns.v_backup
        assert sys_wt.v_on < sys_wl.v_on < sys_ns.v_on

    def test_write_traffic_counted(self, small_sha):
        res_wl = run_one(small_sha, "WL-Cache", trace="trace1")
        res_wt = run_one(small_sha, "VCache-WT", trace="trace1")
        # write-through writes every store; WL coalesces
        assert res_wt.nvm_writes > res_wl.nvm_writes


class TestEdgeCases:
    def test_small_capacitor_shrinks_maxline(self, small_sha):
        sys_small = build_system(small_sha, "WL-Cache", trace="trace1",
                                 capacitance_f=2.0e-7, chunk_instrs=8)
        assert sys_small.design.maxline < 6

    def test_nvsram_infeasible_on_tiny_capacitor(self, small_sha):
        with pytest.raises(ConfigError, match="does not fit"):
            build_system(small_sha, "NVSRAM(ideal)", trace="trace1",
                         capacitance_f=1.0e-7, chunk_instrs=8)

    def test_dead_source_raises(self, small_sha):
        from repro.errors import TraceError
        with pytest.raises((EnergyError, TraceError)):
            run_one(small_sha, "WL-Cache", trace=ConstantTrace(1e-6),
                    max_outages=50)

    def test_sum_program_all_traces(self):
        prog = build_sum_program(2000)
        for trace in ("trace1", "solar"):
            res = run_one(prog, "WL-Cache", trace=trace)
            check_crash_consistency(prog, res)

    def test_instruction_budget(self, small_sha):
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError, match="budget"):
            run_one(small_sha, "WL-Cache", trace=None, max_instructions=100)


class TestRegisterBackend:
    def test_software_checkpoint_costs_more_reserve(self, small_sha):
        hw = build_system(small_sha, "WL-Cache", trace="trace1")
        sw = build_system(small_sha, "WL-Cache", trace="trace1",
                          register_backend="nvm")
        assert sw.reserve_nj > hw.reserve_nj
        assert sw.v_backup > hw.v_backup

    def test_software_checkpoint_still_consistent(self, small_sha):
        res = run_one(small_sha, "WL-Cache", trace="trace2",
                      register_backend="nvm")
        assert res.outages > 0
        check_crash_consistency(small_sha, res)

    def test_invalid_backend_rejected(self, small_sha):
        with pytest.raises(ConfigError):
            build_system(small_sha, "WL-Cache", register_backend="flash")


@pytest.mark.parametrize("field", ["off_leakage_w", "von_headroom_v"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.01])
def test_config_rejects_bad_leakage_and_headroom(field, value):
    """A NaN off-period leak would never let ``charge_until`` finish, so
    both fields must be finite and >= 0 (built only, never run)."""
    with pytest.raises(ConfigError, match=f"{field} .*{value!r}"):
        SimConfig(**{field: value})
