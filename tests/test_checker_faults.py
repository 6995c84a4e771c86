"""The crash-consistency checker must catch deliberately broken designs."""

import dataclasses

import pytest

from repro.errors import ConsistencyError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.mem.nvm import NVMainMemory
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.factory import run_one
from repro.sim.system import System
from repro.verify import checker
from repro.verify.checker import check_crash_consistency, compare_states
from repro.verify.faults import (BrokenWLCacheNoCleanFirst,
                                 VCacheWBNoCheckpoint)
from repro.verify.oracle import run_oracle
from repro.workloads import build_workload


def build_faulty_system(prog, cls, trace="trace2", **design_kwargs):
    from repro.energy.synthetic import make_trace
    cfg = SimConfig(adaptive=False)
    nvm = NVMainMemory(prog.initial_memory(), cfg.nvm)
    design = cls(nvm, cfg.geometry, cfg.cache_replacement, cfg.sram_params,
                 **design_kwargs)
    return System(prog, design, cfg, make_trace(trace) if trace else None)


class TestOracle:
    def test_oracle_matches_program_checks(self):
        prog = build_workload("qsort", 0.2)
        oracle = run_oracle(prog)
        from repro.workloads import verify_checks
        verify_checks(prog, oracle.memory)

    def test_compare_states_detects_memory_diff(self):
        prog = build_workload("qsort", 0.2)
        oracle = run_oracle(prog)
        from repro.sim.factory import run_one
        res = run_one(prog, "WL-Cache", trace=None)
        res.final_memory[100] ^= 0xFF  # corrupt
        report = compare_states(res, oracle)
        assert not report.ok
        assert report.divergences[0].kind == "memory"
        with pytest.raises(ConsistencyError):
            report.raise_if_bad("corrupted")

    def test_compare_states_detects_register_diff(self):
        prog = build_workload("qsort", 0.2)
        oracle = run_oracle(prog)
        from repro.sim.factory import run_one
        res = run_one(prog, "WL-Cache", trace=None)
        res.final_regs[5] ^= 1
        report = compare_states(res, oracle)
        assert not report.ok
        assert any(d.kind == "register" for d in report.divergences)

    def test_short_register_file_fails(self):
        # the image matches; registers from x10 up are nonzero and must
        # not go unchecked when the run reports fewer of them
        prog = build_workload("sha", 0.1)
        oracle = run_oracle(prog)
        res = run_one(prog, "WL-Cache", trace=None)
        assert any(oracle.regs[10:])
        for regs in ([], res.final_regs[:3]):
            short = dataclasses.replace(res, final_regs=regs)
            with pytest.raises(ConsistencyError,
                               match=f"register file size mismatch: "
                                     f"{len(regs)} vs 32"):
                compare_states(short, oracle)
            with pytest.raises(ConsistencyError):
                check_crash_consistency(prog, short)


@pytest.fixture
def oracle_runs(monkeypatch):
    """Names of the programs ``check_crash_consistency`` runs the oracle
    on, starting from an empty memo."""
    runs = []
    real = checker.run_oracle

    def counting(program, *args, **kwargs):
        runs.append(program.name)
        return real(program, *args, **kwargs)

    monkeypatch.setattr(checker, "run_oracle", counting)
    monkeypatch.setattr(checker, "_ORACLE", {})
    return runs


class TestOracleMemo:
    def test_one_oracle_run_per_program(self, oracle_runs):
        for name in ("sha", "qsort"):
            prog = build_workload(name, 0.1)
            for design in DESIGNS:
                check_crash_consistency(
                    prog, run_one(prog, design, trace="trace1"))
        assert oracle_runs == ["sha", "qsort"]

    def test_data_edit_runs_its_own_oracle(self, oracle_runs):
        old = build_workload("sha", 0.1)
        new = Program(name=old.name, instructions=list(old.instructions),
                      data=dict(old.data), labels=dict(old.labels),
                      symbols=dict(old.symbols), mem_bytes=old.mem_bytes)
        new.data[old.symbols["msg"] >> 2] ^= 0x5A5A5A5A
        res = run_one(old, "WL-Cache", trace=None)
        check_crash_consistency(old, res)
        check_crash_consistency(new, run_one(new, "WL-Cache", trace=None))
        assert oracle_runs == ["sha", "sha"]
        with pytest.raises(ConsistencyError):
            check_crash_consistency(new, res)

    def test_corruption_after_a_pass_is_caught(self, oracle_runs):
        prog = build_workload("qsort", 0.2)
        res = run_one(prog, "WL-Cache", trace=None)
        check_crash_consistency(prog, res)
        res.final_memory[100] ^= 0xFF
        with pytest.raises(ConsistencyError):
            check_crash_consistency(prog, res)
        assert oracle_runs == ["qsort"]


def clean_first_race_program():
    """Deterministic trigger for the §5.3 lost-update anomaly.

    Store X=1, trip the waterline so X's write-back goes in flight, store
    X=2 while it is in flight, then keep computing past the ACK. A correct
    WL-Cache re-inserts X; the broken variant's ACK clears the dirty bit
    and the newer value is silently dropped at eviction/finalize.
    """
    b = ProgramBuilder("race")
    base = b.space_words(512, "buf")
    x, p, i = b.regs("x", "p", "i")
    b.li(p, base)
    b.li(x, 1)
    b.sw(x, p, 0)          # X = 1 (dirty, in DirtyQueue)
    b.sw(x, p, 64)         # second dirty line -> waterline trips, X cleaned
    b.li(x, 2)
    b.sw(x, p, 0)          # X = 2 while X's write-back is in flight
    with b.for_range(i, 0, 200):   # let the ACK arrive
        b.nop()
    b.halt()
    return b.build(), base


class TestBrokenWLCache:
    def test_lost_update_detected(self):
        prog, base = clean_first_race_program()
        system = build_faulty_system(
            prog, BrokenWLCacheNoCleanFirst, trace=None,
            dq_capacity=8, maxline=2, waterline=1)
        res = system.run()
        assert res.final_memory[base >> 2] == 1  # X=2 was lost
        with pytest.raises(ConsistencyError):
            check_crash_consistency(prog, res)

    def test_correct_wl_passes_same_program(self):
        from repro.sim.factory import run_one
        prog, base = clean_first_race_program()
        res = run_one(prog, "WL-Cache", trace=None,
                      maxline=2, waterline=1, adaptive=False)
        assert res.final_memory[base >> 2] == 2
        check_crash_consistency(prog, res)


class TestNoCheckpointCache:
    def test_dirty_lines_lost_across_outage(self):
        prog = build_workload("qsort", 1.5)
        system = build_faulty_system(prog, VCacheWBNoCheckpoint,
                                     trace="trace2")
        res = system.run()
        assert res.outages > 0
        with pytest.raises(ConsistencyError):
            check_crash_consistency(prog, res)

    def test_same_design_fine_without_outages(self):
        prog = build_workload("qsort", 0.3)
        system = build_faulty_system(prog, VCacheWBNoCheckpoint, trace=None)
        res = system.run()
        check_crash_consistency(prog, res)
