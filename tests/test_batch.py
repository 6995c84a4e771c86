"""Structural tests of the fast engine's record-once half: engine
resolution, grouping, every recording-bail reason, and RunResult
equality against the reference engine (reduced grid tier-1, full grid
tier-2).

The bit-level differentials over randomized sweep grids live in
``tests/test_engine_differential.py`` and
``tests/test_batch_differential.py``, and over random programs in
``tests/test_record_differential.py``; this file pins *which* engine a
sweep point runs on (an explicit engine beats ``REPRO_ENGINE``;
observability and checking always send a point to the interpreter; an
unset engine records nothing), when a kernel bails to the interpreter
slow path, that one point's engine matches the interpreter at fixed
chunk sizes and across outages, and the replay core's pc and
snapshot surface.
"""

from __future__ import annotations

import os

import pytest

from repro.batch import (RecordingBail, ReplayCore, batch_stats,
                         build_replay_system, build_stream, clear_streams,
                         get_stream, plan, record_run, resolve_config)
from repro.cpu.core import InOrderCore
from repro.errors import ConfigError, SweepError
from repro.isa.builder import ProgramBuilder
from repro.lockstep.scheduler import (clear_lockstep_stats, lockstep_stats,
                                      run_column)
from repro.mem.memsys import NoCacheNVP
from repro.mem.nvm import NVMainMemory
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.factory import (build_system, effective_costs, resolve_engine,
                               runs_fast)
from repro.sim.parallel import SweepTask, run_tasks
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
    config = config if config is not None else SimConfig(engine="fast")
    return SweepTask(workload, design, trace, scale, True, config,
                     dict(overrides))


# ---------------------------------------------------------------------------
# engine resolution: an explicit engine wins, instrumentation wins over both
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fields, env, engine, fast",
    [({}, {}, "reference", False),
     ({"engine": "fast"}, {}, "fast", True),
     ({}, {"REPRO_ENGINE": "fast"}, "fast", True),
     ({"engine": "reference"}, {"REPRO_ENGINE": "fast"}, "reference", False),
     ({"engine": "fast"}, {"REPRO_ENGINE": "reference"}, "fast", True),
     ({"engine": "fast", "trace": True}, {}, "fast", False),
     ({"engine": "fast", "check_invariants": True}, {}, "fast", False),
     ({"engine": "fast"}, {"REPRO_TRACE": "1"}, "fast", False),
     ({"engine": "fast"}, {"REPRO_CHECK": "1"}, "fast", False)],
    ids=["default", "explicit-fast", "env-fills-unset",
         "explicit-reference-beats-env", "explicit-fast-beats-env",
         "recorder-config", "checker-config", "recorder-env",
         "checker-env"])
def test_engine_resolution(monkeypatch, fields, env, engine, fast):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    config = SimConfig(**fields)
    assert resolve_engine(config) == engine
    assert runs_fast(config) is fast
    # plan() routes by the same rule
    kinds = [kind for kind, _ in plan([_task(config=config)])]
    assert kinds == (["group"] if fast else ["solo"])


def test_batch_off_by_default(monkeypatch):
    # no engine and no REPRO_ENGINE: a sweep records nothing
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    run_grid(["sha"], ("WL-Cache", "VCache-WT"), "trace1", jobs=1,
             scale=0.1)
    assert batch_stats()["recordings"] == 0


def test_batch_env_switch(monkeypatch):
    grid = (["sha"], ("WL-Cache", "VCache-WT"), "trace1")
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    run_grid(*grid, jobs=1, scale=0.1)
    # one recording serves both designs of the cost family
    assert batch_stats()["recordings"] == 1
    clear_streams()
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    run_grid(*grid, jobs=1, scale=0.1)
    assert batch_stats()["recordings"] == 0


def test_invalid_engine_rejected():
    with pytest.raises(ConfigError, match="engine"):
        SimConfig(engine="turbo")
    grid = (["sha"], ("WL-Cache", "VCache-WT"), "trace1")
    with pytest.raises(ConfigError, match="engine"):
        run_grid(*grid, jobs=1, scale=0.1, engine="turbo")
    # like any invalid override, a pool attributes it to the failing runs
    with pytest.raises(SweepError, match="ConfigError: engine") as exc:
        run_grid(*grid, jobs=2, scale=0.1, engine="turbo")
    assert len(exc.value.failures) == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_malformed_engine_env_rejected(monkeypatch, jobs):
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    with pytest.raises(ConfigError, match="REPRO_ENGINE"):
        run_grid(["sha"], ("WL-Cache", "VCache-WT"), "trace1", jobs=jobs,
                 scale=0.1)


def test_explicit_reference_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    clear_lockstep_stats()
    run_grid(["sha"], ("WL-Cache", "VCache-WT"), "trace1", jobs=1,
             scale=0.1, engine="reference")
    assert batch_stats()["recordings"] == 0
    assert lockstep_stats()["columns"] == 0


def test_replay_system_attaches_nothing():
    """A replay point runs its design's own class methods: nothing
    shadows the memory or checkpoint protocol on the design."""
    prog = build_workload("sha", 0.2)
    config = SimConfig(engine="fast")
    for design in DESIGNS:
        costs = effective_costs(design, config)
        stream = get_stream(prog, costs, config.max_instructions)
        system = build_replay_system(prog, _task(design=design), config,
                                     stream)
        assert isinstance(system.core, ReplayCore)
        shadowed = {"load", "store", "store_masked",
                    "flush_for_checkpoint", "on_boot",
                    "finalize"} & set(vars(system.design))
        assert not shadowed, design


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
    traced = _task(config=SimConfig(engine="fast", trace=True))
    off = _task(config=SimConfig(engine="reference"))
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
                   scale=0.2, engine="reference")

    def always_bail(program, costs, budget):
        raise RecordingBail("forced")

    monkeypatch.setattr(engine, "record_run", always_bail)
    tasks = [_task(design="WL-Cache"), _task(design="VCache-WT")]
    out = run_tasks(tasks, jobs=1)
    assert batch_stats()["bails"] == 1
    assert batch_stats()["lockstep"] == 0
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
    config = SimConfig(engine="fast")
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
# one point's engine against the interpreter; the ReplayCore surface
# ---------------------------------------------------------------------------

def _point_pair(prog, design="WL-Cache", **overrides):
    """One trace1 point of ``prog`` on the interpreter and on its
    generated engine."""
    config = SimConfig(engine="fast", **overrides)
    ref = build_system(prog, design, "trace1", config).run()
    stream = get_stream(prog, effective_costs(design, config), 100_000)
    task = SweepTask(prog.name, design, "trace1", 1.0, False, config)
    outcome = run_column(prog, task, config, stream)
    assert outcome[0] == "ok", outcome
    return ref, outcome[1]


@pytest.mark.parametrize("chunk", [1, 3, 7, 32, 1000])
def test_replay_matches_interpreter_per_chunk(chunk):
    # a 10 uF capacitor fits the 1000-instruction chunk margin
    ref, got = _point_pair(build_sum_program(40), chunk_instrs=chunk,
                           capacitance_f=1e-5)
    assert got == ref


def test_replay_flush_icache_refetches_like_interpreter():
    """Every outage flushes the I-cache; the interpreter then re-fetches
    the resume line even when unchanged, and the engine synthesizes
    that fetch (the stream has no event there). Under weak constant
    power a 16k-instruction program meets several outages."""
    from repro.energy.traces import ConstantTrace

    prog = build_sum_program(4000)
    config = SimConfig(engine="fast", capacitance_f=3e-7,
                       von_headroom_v=0.1)
    ref = build_system(prog, "NoCache", ConstantTrace(0.05), config).run()
    assert ref.outages > 1
    stream = get_stream(prog, effective_costs("NoCache", config), 100_000)
    task = SweepTask(prog.name, "NoCache", ConstantTrace(0.05), 1.0, False,
                     config)
    assert run_column(prog, task, config, stream) == ("ok", ref)


def _interp_core(prog):
    return InOrderCore(prog, NoCacheNVP(NVMainMemory(
        prog.initial_memory())))


def test_replay_pc_tracks_position():
    prog = build_sum_program(40)
    stream = get_stream(prog, _costs(), 100_000)
    interp = _interp_core(prog)
    replay = ReplayCore(stream, _costs())
    assert replay.pc == 0
    seen = []
    while not interp.halted:
        interp.run_chunk(7)
        replay.instret = interp.instret
        seen.append(replay.pc)
        assert interp.pc == replay.pc
    assert len(set(seen)) > 1  # the property really moves
    # once halted, the pc rests on the HALT instruction
    assert replay.instret == stream.n_total
    assert replay.pc == interp.pc


def test_replay_snapshot_restore_roundtrip():
    prog = build_sum_program(40)
    stream = get_stream(prog, _costs(), 100_000)
    replay = ReplayCore(stream, _costs())
    replay.instret = 13
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
    ref = run_grid(["sha", "qsort"], designs, trace, jobs=1, scale=0.2,
                   engine="reference")
    fast = run_grid(["sha", "qsort"], designs, trace, jobs=1, scale=0.2,
                    engine="fast")
    assert fast == ref
    assert batch_stats()["lockstep"] == len(ref)


def test_parallel_sweep_with_engine_env(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    fast = run_grid(("sha",), ("WL-Cache", "VCache-WT"), "trace1", jobs=2,
                    scale=0.2)
    # the workers' counters ride home: the env reached them
    assert batch_stats()["lockstep"] == 2
    ref = run_grid(("sha",), ("WL-Cache", "VCache-WT"), "trace1", jobs=1,
                   scale=0.2, engine="reference")
    assert fast == ref


def test_resolve_config_applies_overrides():
    task = _task(config=SimConfig(), engine="fast")
    assert resolve_config(task).engine == "fast"


@pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                    reason="full grid is tier-2 (set REPRO_TIER2=1)")
def test_run_results_identical_full_grid():
    for trace in (None, "trace1"):
        ref = run_grid(ALL_WORKLOADS, DESIGNS, trace, jobs=1, scale=1.0,
                       engine="reference")
        fast = run_grid(ALL_WORKLOADS, DESIGNS, trace, jobs=1, scale=1.0,
                        engine="fast")
        bad = [k for k in ref if ref[k] != fast[k]]
        assert not bad, f"{trace}: the fast engine diverged on {bad}"
