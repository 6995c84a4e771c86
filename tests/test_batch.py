"""Structural tests of the batch tier: engagement rules, grouping, every
recording-bail reason, the pecking order against the other tiers, and
RunResult equality against the serial path (reduced grid tier-1, full
grid tier-2).

The bit-level differential over randomized sweep grids lives in
``tests/test_batch_differential.py``; this file pins *when* the batch
tier engages, when it must silently stand down (observability and
checking always win), when a kernel bails to the interpreter slow path,
and that the replay core's System-facing surface matches the interpreter
chunk for chunk.
"""

from __future__ import annotations

import os

import pytest

from repro.batch import (RecordingBail, ReplayCore, batch_enabled,
                         batch_stats, build_replay_system, build_stream,
                         clear_streams, effective_costs, get_stream,
                         maybe_run_batched, plan, record_run,
                         resolve_config, task_batchable)
from repro.cpu.core import InOrderCore
from repro.isa.builder import ProgramBuilder
from repro.mem.memsys import NoCacheNVP
from repro.mem.nvm import NVMainMemory
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.parallel import SweepTask, run_task
from repro.sim.sweep import run_grid
from repro.workloads import ALL_WORKLOADS, build_workload
from tests.conftest import build_sum_program


@pytest.fixture(autouse=True)
def _fresh_streams():
    clear_streams()
    yield
    clear_streams()


def _task(workload="sha", design="WL-Cache", trace="trace1", scale=0.2,
          config=None, **overrides) -> SweepTask:
    config = config if config is not None else SimConfig(batch=True)
    return SweepTask(workload, design, trace, scale, True, config,
                     dict(overrides))


# ---------------------------------------------------------------------------
# engagement rules (the pecking order's top half)
# ---------------------------------------------------------------------------

def test_batch_off_by_default():
    assert not batch_enabled()
    assert not task_batchable(SimConfig())


def test_batch_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "1")
    assert batch_enabled()
    assert task_batchable(SimConfig())
    monkeypatch.setenv("REPRO_BATCH", "0")
    assert not batch_enabled()


def test_trace_recorder_outranks_batch(monkeypatch):
    assert not task_batchable(SimConfig(batch=True, trace=True))
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert not task_batchable(SimConfig(batch=True))


def test_invariant_checker_outranks_batch(monkeypatch):
    assert not task_batchable(SimConfig(batch=True,
                                        check_invariants=True))
    monkeypatch.setenv("REPRO_CHECK", "1")
    assert not task_batchable(SimConfig(batch=True))


def test_memfast_composes_with_replay():
    prog = build_workload("sha", 0.2)
    config = SimConfig(batch=True)
    costs = effective_costs("WL-Cache", config)
    stream = get_stream(prog, costs, config.max_instructions)
    system = build_replay_system(prog, _task(), config, stream)
    assert isinstance(system.core, ReplayCore)
    assert getattr(system.design, "_memfast_state", None) is not None
    # the chunk-end flush wraps the replay core's run_chunk
    assert "run_chunk" in vars(system.core)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def test_plan_groups_by_cost_family():
    tasks = [_task(design=d) for d in DESIGNS]
    units = plan(tasks)
    groups = [u for kind, u in units if kind == "group"]
    # NVCache-WB folds nvcache_ifetch_extra into its costs, so it forms
    # its own recording family; every other design shares one group
    assert len(groups) == 2
    sizes = sorted(len(g.tasks) for g in groups)
    assert sizes == [1, len(DESIGNS) - 1]
    base = SimConfig()
    assert (effective_costs("NVCache-WB", base)
            != effective_costs("WL-Cache", base))


def test_plan_routes_ineligible_tasks_solo():
    eligible = _task()
    traced = _task(config=SimConfig(batch=True, trace=True))
    off = _task(config=SimConfig())
    units = plan([eligible, traced, off])
    kinds = [kind for kind, _ in units]
    assert kinds == ["group", "solo", "solo"]


def test_plan_separates_scales():
    units = plan([_task(scale=0.2), _task(scale=0.3)])
    assert [kind for kind, _ in units] == ["group", "group"]


def test_group_budget_is_group_max():
    units = plan([_task(max_instructions=1000),
                  _task(design="VCache-WT", max_instructions=5000)])
    (_, group), = units
    assert group.budget == 5000


# ---------------------------------------------------------------------------
# recording bails, one test per reason
# ---------------------------------------------------------------------------

def _costs():
    return SimConfig().costs


def test_bail_guest_fault():
    b = ProgramBuilder("faulty")
    r = b.reg("r")
    b.li(r, 1 << 30)
    b.lw(r, r, 0)  # load far outside memory
    b.halt()
    with pytest.raises(RecordingBail, match="guest fault"):
        record_run(b.build(), _costs(), 10_000)


def test_bail_runaway_kernel():
    b = ProgramBuilder("runaway")
    i = b.reg("i")
    with b.for_range(i, 0, 10_000_000):
        b.nop()
    b.halt()
    with pytest.raises(RecordingBail, match="no HALT"):
        record_run(b.build(), _costs(), 1000)


def test_bail_stream_cap(monkeypatch):
    import repro.batch.record as record
    monkeypatch.setattr(record, "STREAM_CAP", 100)
    prog = build_sum_program(200)  # ~800 retired instructions
    with pytest.raises(RecordingBail, match="cap"):
        record_run(prog, _costs(), 1_000_000)


def test_bail_pc_escape():
    from repro.isa import opcodes as oc
    b = ProgramBuilder("escape")
    r = b.reg("r")
    b.li(r, 1000)  # far past the last instruction
    b._emit(oc.JALR, 0, b._r(r), 0)  # indirect jump off the program
    with pytest.raises(RecordingBail, match="escapes"):
        record_run(b.build(), _costs(), 10_000)


def test_bailed_group_falls_back_to_slow_path(monkeypatch):
    """A group whose recording bails must land on the caller's slow
    path, task by task, with results identical to a plain sweep."""
    import repro.batch.engine as engine
    ref = run_grid(["sha"], ("WL-Cache", "VCache-WT"), "trace1", jobs=1,
                   scale=0.2)

    def always_bail(program, costs, budget):
        raise RecordingBail("forced")

    monkeypatch.setattr(engine, "record_run", always_bail)
    tasks = [_task(design="WL-Cache"), _task(design="VCache-WT")]
    out = maybe_run_batched(tasks, run_task)
    assert out is not None
    assert batch_stats()["bails"] == 1
    assert batch_stats()["replays"] == 0
    assert out == ref


def test_bails_are_not_cached():
    """A budget-bound bail may succeed later with a larger budget."""
    b = ProgramBuilder("long_loop")
    i = b.reg("i")
    with b.for_range(i, 0, 100_000):
        b.nop()
    b.halt()
    prog = b.build()  # ~300k retired instructions
    with pytest.raises(RecordingBail):  # 10 + slack < program length
        get_stream(prog, _costs(), 10)
    stream = get_stream(prog, _costs(), 1_000_000)
    assert stream.n_total > 100_000


# ---------------------------------------------------------------------------
# stream sharing across cost families
# ---------------------------------------------------------------------------

def test_families_share_recording_and_skeleton():
    prog = build_workload("sha", 0.2)
    config = SimConfig(batch=True)
    base = effective_costs("WL-Cache", config)
    nvwb = effective_costs("NVCache-WB", config)
    s1 = get_stream(prog, base, config.max_instructions)
    s2 = get_stream(prog, nvwb, config.max_instructions)
    stats = batch_stats()
    assert stats["recordings"] == 1  # one recording, two expansions
    assert stats["expansions"] == 2
    assert s1.events is s2.events  # skeleton shared by reference
    assert s1.n_total == s2.n_total
    # the per-family halves differ: NVCache-WB's ifetch_extra shifts
    # every static fetch cost
    assert list(s1.cum_cycles) != list(s2.cum_cycles)


def test_build_stream_cross_checks_recorded_cycles():
    prog = build_sum_program(50)
    codes, n, cycles, final_regs, ops = record_run(prog, _costs(), 10_000)
    with pytest.raises(AssertionError, match="disagrees"):
        build_stream(prog, _costs(),
                     (codes, n, cycles + 1, _costs(), final_regs, ops))


# ---------------------------------------------------------------------------
# ReplayCore: the System-facing surface, chunk for chunk
# ---------------------------------------------------------------------------

def _interp_core(prog):
    return InOrderCore(prog, NoCacheNVP(NVMainMemory(
        prog.initial_memory())))


def _replay_core(prog, stream):
    return ReplayCore(prog, NoCacheNVP(NVMainMemory(
        prog.initial_memory())), _costs(), stream)


@pytest.mark.parametrize("chunk", [1, 3, 7, 32, 1000])
def test_replay_matches_interpreter_per_chunk(chunk):
    prog = build_sum_program(40)
    stream = get_stream(prog, _costs(), 100_000)
    interp = _interp_core(prog)
    replay = _replay_core(prog, stream)
    while not interp.halted:
        ni, ci = interp.run_chunk(chunk)
        nr, cr = replay.run_chunk(chunk)
        assert (ni, ci) == (nr, cr)
        for attr in ("instret", "cycle", "halted", "pc", "ic_fetches",
                     "ic_misses", "n_loads", "n_stores", "n_branches"):
            assert getattr(interp, attr) == getattr(replay, attr), attr
    assert replay.halted
    assert replay.arch_regs == interp.arch_regs


def test_replay_flush_icache_refetches_like_interpreter():
    """After a flush the interpreter re-fetches the current line even
    when unchanged; the stream has no event there, so the replay core
    synthesizes it (the pending-fetch path)."""
    prog = build_sum_program(40)
    stream = get_stream(prog, _costs(), 100_000)
    interp = _interp_core(prog)
    replay = _replay_core(prog, stream)
    for step in (5, 5, 5):
        interp.run_chunk(step)
        replay.run_chunk(step)
        interp.flush_icache()
        replay.flush_icache()
    while not interp.halted:
        assert interp.run_chunk(17) == replay.run_chunk(17)
        assert interp.ic_misses == replay.ic_misses
        assert interp.cycle == replay.cycle


def test_replay_pc_tracks_position():
    prog = build_sum_program(40)
    stream = get_stream(prog, _costs(), 100_000)
    interp = _interp_core(prog)
    replay = _replay_core(prog, stream)
    assert replay.pc == 0
    seen = []
    while not interp.halted:
        interp.run_chunk(7)
        replay.run_chunk(7)
        seen.append(replay.pc)
        assert interp.pc == replay.pc
    assert len(set(seen)) > 1  # the property really moves
    # once halted, the pc rests on the HALT instruction and stays put
    replay.run_chunk(7)
    assert replay.pc == interp.pc


def test_replay_snapshot_restore_roundtrip():
    prog = build_sum_program(40)
    stream = get_stream(prog, _costs(), 100_000)
    replay = _replay_core(prog, stream)
    replay.run_chunk(13)
    regs, pc = replay.snapshot_arch_state()
    assert pc == replay.pc
    replay.restore_arch_state((regs, pc))  # no-op: position encodes pc
    assert replay.pc == pc


# ---------------------------------------------------------------------------
# RunResult equality (reduced grid tier-1, full grid tier-2)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trace", [None, "trace1"])
def test_run_results_identical_reduced_grid(trace):
    designs = ("NVSRAM(ideal)", "NVCache-WB", "WL-Cache")
    ref = run_grid(["sha", "qsort"], designs, trace, jobs=1, scale=0.2)
    bat = run_grid(["sha", "qsort"], designs, trace, jobs=1, scale=0.2,
                   batch=True)
    assert bat == ref
    assert batch_stats()["replays"] == len(ref)


def test_parallel_sweep_with_batch_env(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "1")
    bat = run_grid(("sha",), ("WL-Cache", "VCache-WT"), "trace1", jobs=2,
                   scale=0.2)
    monkeypatch.delenv("REPRO_BATCH")
    ref = run_grid(("sha",), ("WL-Cache", "VCache-WT"), "trace1", jobs=1,
                   scale=0.2)
    assert bat == ref


def test_resolve_config_applies_overrides():
    task = _task(config=SimConfig(), batch=True)
    assert resolve_config(task).batch


@pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                    reason="full grid is tier-2 (set REPRO_TIER2=1)")
def test_run_results_identical_full_grid():
    for trace in (None, "trace1"):
        ref = run_grid(ALL_WORKLOADS, DESIGNS, trace, jobs=1, scale=1.0)
        bat = run_grid(ALL_WORKLOADS, DESIGNS, trace, jobs=1, scale=1.0,
                       batch=True)
        bad = [k for k in ref if ref[k] != bat[k]]
        assert not bad, f"{trace}: batch diverged on {bad}"
