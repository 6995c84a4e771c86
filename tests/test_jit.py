"""Structural tests of the JIT: attach/detach rules, code-cache sharing,
chunk clamping, and RunResult equality against the interpreter.

The bit-level differential over randomized programs lives in
``tests/test_jit_differential.py``; this file pins the *engagement* rules:
when the JIT turns on, when it must silently stand down (observability and
checking always win), and that the shared code cache really is shared.
"""

from __future__ import annotations

import os

import pytest

from repro.cpu.core import InOrderCore
from repro.errors import ExecutionError
from repro.isa.builder import ProgramBuilder
from repro.jit import (TRACE_CAP, attach_jit, clear_code_cache,
                       code_cache_stats, detach_jit, get_compiled,
                       jit_enabled)
from repro.mem.memsys import NoCacheNVP
from repro.mem.nvm import NVMainMemory
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.factory import build_system, run_one
from repro.sim.sweep import run_grid
from repro.workloads import ALL_WORKLOADS, build_workload
from tests.conftest import build_sum_program


def _core(prog, jit: bool = False):
    mem = NoCacheNVP(NVMainMemory(prog.initial_memory()))
    core = InOrderCore(prog, mem)
    if jit:
        assert attach_jit(core) is not None
    return core


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_code_cache()
    yield
    clear_code_cache()


# ---------------------------------------------------------------------------
# attach / detach / disengage rules
# ---------------------------------------------------------------------------

def test_attach_is_idempotent():
    core = _core(build_sum_program())
    s1 = attach_jit(core)
    assert s1.compiled is None  # attaching compiles nothing
    core.run_chunk(TRACE_CAP)  # a trace-sized chunk fetches the program
    s2 = attach_jit(core)
    assert s1 is s2 and s2.compiled is not None
    assert "run_chunk" in vars(core)
    assert code_cache_stats()["compiles"] == 1


def test_detach_restores_interpreter():
    prog = build_sum_program()
    core = _core(prog, jit=True)
    assert "run_chunk" in vars(core)
    assert detach_jit(core) is True
    assert "run_chunk" not in vars(core)
    assert detach_jit(core) is False  # second detach is a no-op
    core.run_to_halt()
    ref = _core(prog)
    ref.run_to_halt()
    assert core.arch_regs == ref.arch_regs and core.cycle == ref.cycle


def test_refuses_when_memsys_is_wrapped():
    core = _core(build_sum_program())
    orig = core.memsys.load
    core.memsys.load = lambda addr, now: orig(addr, now)  # instance shadow
    assert attach_jit(core) is None


def test_refuses_when_run_chunk_is_wrapped():
    core = _core(build_sum_program())
    core.run_chunk = lambda n: (0, 0)
    assert attach_jit(core) is None


def test_trace_recorder_wins_over_jit():
    prog = build_workload("sha", 0.2)
    system = build_system(prog, "WL-Cache", None, SimConfig(jit=True,
                                                            trace=True))
    # attach_trace shadows the memsys methods, so the JIT stood down
    assert getattr(system.core, "_jit_state", None) is None
    res = system.run()
    ref = run_one(prog, "WL-Cache", None, SimConfig(trace=True))
    assert res == ref


def test_invariant_checker_wins_over_jit():
    prog = build_workload("sha", 0.2)
    system = build_system(prog, "WL-Cache", None,
                          SimConfig(jit=True, check_invariants=True))
    assert getattr(system.core, "_jit_state", None) is None
    assert system.run() == run_one(prog, "WL-Cache", None,
                                   SimConfig(check_invariants=True))


def test_attach_trace_detaches_live_jit():
    from repro.obs.recorder import attach_trace
    prog = build_workload("sha", 0.2)
    system = build_system(prog, "WL-Cache", None, SimConfig(jit=True))
    assert getattr(system.core, "_jit_state", None) is not None
    attach_trace(system)
    assert getattr(system.core, "_jit_state", None) is None
    assert system.run() == run_one(prog, "WL-Cache", None,
                                   SimConfig(trace=True))


def test_env_var_enables_jit(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "1")
    assert jit_enabled()
    system = build_system(build_sum_program(), "NoCache")
    assert getattr(system.core, "_jit_state", None) is not None
    monkeypatch.setenv("REPRO_JIT", "0")
    assert not jit_enabled()


# ---------------------------------------------------------------------------
# code cache
# ---------------------------------------------------------------------------

def test_code_cache_shared_across_cores():
    prog = build_workload("qsort", 0.2)
    a = _core(prog, jit=True)
    b = _core(prog, jit=True)
    a.run_chunk(TRACE_CAP)
    traces = code_cache_stats()["trace_compiles"]
    b.run_chunk(TRACE_CAP)
    stats = code_cache_stats()
    assert stats["compiles"] == 1 and stats["hits"] >= 1
    assert a._jit_state.compiled is b._jit_state.compiled
    # the second core binds the traces the first one compiled
    assert stats["trace_compiles"] == traces > 0


def test_code_cache_shared_across_program_rebuilds():
    # sweep workers rebuild Program objects; the content key must hit
    # even when the per-program meta shortcut is cold
    import copy
    a = build_workload("qsort", 0.2)
    b = copy.deepcopy(a)
    b.meta.clear()
    get_compiled(a, SimConfig().costs)
    get_compiled(b, SimConfig().costs)
    stats = code_cache_stats()
    assert stats["compiles"] == 1 and stats["hits"] == 1


def test_distinct_costs_compile_separately():
    from dataclasses import replace
    prog = build_sum_program()
    costs = SimConfig().costs
    get_compiled(prog, costs)
    get_compiled(prog, replace(costs, mem_issue=costs.mem_issue + 1))
    assert code_cache_stats()["compiles"] == 2


def test_traced_lone_runs_compile_nothing():
    # power-trace chunks (chunk_instrs <= 32) sit below TRACE_CAP, so a
    # lone traced run stays on the interpreter and compiles nothing
    prog = build_workload("sha", 0.2)
    for design in DESIGNS:
        ref = run_one(prog, design, "trace1", SimConfig())
        on = run_one(prog, design, "trace1",
                     SimConfig(jit=True, memfast=True))
        assert on == ref, design
    stats = code_cache_stats()
    assert stats["compiles"] == 0
    assert stats["suffix_compiles"] == 0
    assert stats["trace_compiles"] == 0


def test_traces_compile_only_under_generous_budgets():
    prog = build_workload("sha", 0.2)
    core = _core(prog, jit=True)
    while not core.halted:
        core.run_chunk(64)  # below TRACE_CAP: the interpreter
    assert code_cache_stats()["trace_compiles"] == 0
    clear_code_cache()
    core = _core(prog, jit=True)
    core.run_to_halt()
    assert code_cache_stats()["trace_compiles"] > 0


# ---------------------------------------------------------------------------
# run_to_halt budget clamp
# ---------------------------------------------------------------------------

def _count_retirement(prog) -> int:
    core = _core(prog)
    return core.run_to_halt()


@pytest.mark.parametrize("jit", [False, True])
def test_run_to_halt_exact_budget(jit):
    prog = build_sum_program(200)
    n = _count_retirement(prog)
    core = _core(prog, jit=jit)
    assert core.run_to_halt(max_instrs=n) == n
    assert core.instret == n and core.halted


@pytest.mark.parametrize("jit", [False, True])
def test_run_to_halt_budget_is_a_hard_cap(jit):
    prog = build_sum_program(200)
    n = _count_retirement(prog)
    core = _core(prog, jit=jit)
    with pytest.raises(ExecutionError, match="exceeded"):
        core.run_to_halt(max_instrs=n - 1)
    assert core.instret <= n - 1  # never overshoots the budget


def test_run_to_halt_clamps_final_chunk():
    # budget barely above one chunk: the second chunk must be clamped
    b = ProgramBuilder("spin")
    i = b.reg("i")
    with b.for_range(i, 0, 100_000):
        b.nop()
    b.halt()
    prog = b.build()
    core = _core(prog)
    with pytest.raises(ExecutionError, match="exceeded"):
        core.run_to_halt(max_instrs=65536 + 100)
    assert core.instret <= 65536 + 100


# ---------------------------------------------------------------------------
# RunResult equality (reduced grid tier-1, full grid tier-2)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("app", ["sha", "qsort"])
@pytest.mark.parametrize("trace", [None, "trace1"])
def test_run_results_identical_reduced_grid(app, trace):
    prog = build_workload(app, 0.2)
    for design in ("NoCache", "VCache-WT", "WL-Cache"):
        off = run_one(prog, design, trace, SimConfig(jit=False))
        on = run_one(prog, design, trace, SimConfig(jit=True))
        assert on == off, f"{app}/{design}/{trace}"


@pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                    reason="full grid is tier-2 (set REPRO_TIER2=1)")
def test_run_results_identical_full_grid():
    for app in ALL_WORKLOADS:
        prog = build_workload(app, 1.0)
        for design in DESIGNS:
            off = run_one(prog, design, "trace1", SimConfig(jit=False))
            on = run_one(prog, design, "trace1", SimConfig(jit=True))
            assert on == off, f"{app}/{design}"


def test_parallel_sweep_with_jit_env(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "1")
    jit = run_grid(("sha",), ("WL-Cache",), "trace1", jobs=2, scale=0.2)
    monkeypatch.delenv("REPRO_JIT")
    ref = run_grid(("sha",), ("WL-Cache",), "trace1", jobs=1, scale=0.2)
    assert jit == ref
