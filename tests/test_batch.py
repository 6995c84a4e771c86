"""Structural tests of the fast engine's record-once half: engine
resolution, task-order routing, the one kernel cache, every
recording-bail reason, and RunResult equality against the reference
engine (reduced grid tier-1, full grid tier-2).

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

from repro.batch import (RecordingBail, ReplayCore, StreamSkeleton,
                         batch_stats, build_replay_system, build_stream,
                         clear_streams, get_stream, iter_outcomes,
                         record_run, resolve_config)
from repro.cpu.core import InOrderCore
from repro.errors import ConfigError, EnergyError, SweepError
from repro.isa.builder import ProgramBuilder
from repro.lockstep.scheduler import (clear_lockstep_stats, lockstep_stats,
                                      run_column)
from repro.mem.memsys import NoCacheNVP
from repro.mem.nvm import NVMainMemory
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.factory import (build_system, effective_costs, resolve_engine,
                               runs_fast)
from repro.sim.parallel import SweepTask, run_task, run_tasks
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
# routing: each task on its own, in task order
# ---------------------------------------------------------------------------

def test_interleaved_tasks_yield_in_task_order():
    tasks = [_task(workload="sha"), _task(workload="qsort"),
             _task(workload="sha", design="VCache-WT")]
    got = [(task, oc[0]) for task, oc in iter_outcomes(tasks, run_task)]
    assert [task for task, _ in got] == tasks
    assert [kind for _, kind in got] == ["ok"] * 3
    assert batch_stats()["recordings"] == 2


def test_ineligible_tasks_run_solo():
    tasks = [_task(), _task(config=SimConfig(engine="fast", trace=True)),
             _task(config=SimConfig(engine="reference"))]
    got = [task for task, _ in iter_outcomes(tasks, run_task)]
    assert got == tasks
    assert (batch_stats()["lockstep"], batch_stats()["solo"]) == (1, 2)


def test_serial_progress_in_task_order():
    designs = ("VCache-WT", "NVCache-WB", "WL-Cache")
    seen = {}
    for engine in ("reference", "fast"):
        keys = seen[engine] = []
        run_grid(["sha", "qsort"], designs, None, jobs=1, scale=0.1,
                 engine=engine,
                 progress=lambda done, total, key, keys=keys:
                 keys.append(key))
    assert seen["fast"] == seen["reference"] == [
        (w, d) for w in ("sha", "qsort") for d in designs]


def test_serial_grid_raises_first_failure_in_task_order():
    designs = ("WL-Cache", "NVCache-WB", "VCache-WT", "WT+Buffer")
    for engine in ("reference", "fast"):
        with pytest.raises(EnergyError) as exc:
            run_grid(["sha", "qsort"], designs, "trace1", jobs=1,
                     scale=0.2, max_outages=3, engine=engine)
        assert str(exc.value) == "NVCache-WB: exceeded 3 outages", engine


@pytest.mark.parametrize("small_first", [False, True])
def test_budgets_in_either_order_match_reference(small_first):
    """A kernel's default-budget task and a task whose small
    ``max_instructions`` truncates it (sha at scale 1 retires ~78k
    instructions, past the small budget plus the recording slack):
    whichever comes first, both end as the reference engine's
    outcomes. Small first, its recording bails to the slow path and the
    default budget records again; default first, the small task replays
    the recorded stream and its engine raises the budget error."""
    def outcomes(engine):
        tasks = [_task(trace=None, scale=1.0,
                       config=SimConfig(engine=engine), **overrides)
                 for overrides in ({}, {"max_instructions": 2000})]
        if small_first:
            tasks.reverse()
        return [oc[:2] for _t, oc in iter_outcomes(tasks, run_task)]

    ref = outcomes("reference")
    got = outcomes("fast")
    assert [kind for kind, _ in got] == [kind for kind, _ in ref]
    for (kind, want), (_, have) in zip(ref, got):
        if kind == "ok":
            assert have == want
        else:
            assert (type(have), str(have)) == (type(want), str(want))
    stats = batch_stats()
    assert stats["lockstep"] == 1
    assert (stats["recordings"], stats["bails"]) \
        == ((1, 1) if small_first else (1, 0))


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
    """A kernel whose recording bails must land on the caller's slow
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


def test_forced_bail_records_once(monkeypatch):
    """A kernel's bail serves every cost family of the kernel: one
    ``record_run`` call, and every point on the slow path."""
    import repro.batch.engine as engine
    designs = ("NVCache-WB", "WL-Cache", "VCache-WT")
    ref = run_grid(["sha"], designs, "trace1", jobs=1, scale=0.2,
                   engine="reference")
    calls = []

    def always_bail(program, costs, budget):
        calls.append(costs)
        raise RecordingBail("forced")

    monkeypatch.setattr(engine, "record_run", always_bail)
    got = run_grid(["sha"], designs, "trace1", jobs=1, scale=0.2,
                   engine="fast")
    assert len(calls) == 1
    assert batch_stats()["bails"] == 1
    assert batch_stats()["lockstep"] == 0
    assert got == ref


def test_bails_are_not_cached():
    """A budget-bound bail is not served to a larger budget: a request
    at the bailed budget re-raises without recording, and a larger
    budget records again and may succeed."""
    b = ProgramBuilder("long_loop")
    i = b.reg("i")
    with b.for_range(i, 0, 100_000):
        b.nop()
    b.halt()
    prog = b.build()  # ~300k retired instructions
    for _ in range(2):
        with pytest.raises(RecordingBail, match="no HALT"):
            get_stream(prog, _costs(), 10)  # 10 + slack < program length
    assert (batch_stats()["bails"], batch_stats()["recordings"]) == (1, 0)
    stream = get_stream(prog, _costs(), 1_000_000)
    assert stream.n_total > 100_000
    assert (batch_stats()["bails"], batch_stats()["recordings"]) == (1, 1)


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
    assert get_stream(prog, base, config.max_instructions) is s1
    stats = batch_stats()
    assert stats["recordings"] == 1  # one recording, two expansions
    assert stats["expansions"] == 2
    assert (stats["hits"], stats["kernels"]) == (1, 1)
    assert s1.skel is s2.skel  # one skeleton per kernel
    assert s1.skel.streams == {base: s1, nvwb: s2}
    # the per-family halves differ: NVCache-WB's ifetch_extra shifts
    # every static fetch cost
    assert list(s1.cum_cycles) != list(s2.cum_cycles)


def test_kernel_cache_cap_bounds_live_skeletons(monkeypatch):
    """An evicted kernel is freed by reference counting: with the cyclic
    collector off, at most the cap's worth of skeletons stay alive."""
    import gc

    import repro.batch.engine as engine
    monkeypatch.setattr(engine, "_KERNEL_CACHE_CAP", 4)
    kernels = ["sha", "qsort", "dijkstra", "adpcmencode", "gsmdecode",
               "fft"]
    gc.collect()
    gc.disable()
    try:
        run_grid(kernels, ("NVCache-WB", "WL-Cache"), "trace1", jobs=1,
                 scale=0.1, engine="fast")
        live = [o for o in gc.get_objects()
                if isinstance(o, StreamSkeleton)]
    finally:
        gc.enable()
    assert batch_stats()["recordings"] == len(kernels)
    assert batch_stats()["kernels"] == 4
    assert len(live) <= 4


def test_build_stream_cross_checks_recorded_cycles():
    prog = build_sum_program(50)
    codes, n, cycles, final_regs, ops = record_run(prog, _costs(), 10_000)
    stream = build_stream(prog, _costs(), (codes, n, cycles, final_regs,
                                           ops))
    assert stream.cum_cycles[-1] == cycles
    with pytest.raises(AssertionError, match="disagrees"):
        build_stream(prog, _costs(),
                     (codes, n, cycles + 1, final_regs, ops))


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
