"""Structural tests of the lockstep engines: one generated engine per
point (a wide kernel block run point by point), each design's engine
mode, bit-identity against the reference engine, fault isolation (a
raising memory call or build ends only its own point, a wrapped design
method sees every access), pool propagation of the engine switch,
freeing finished points, equal final images sharing one array (within
a call, and across the chunks a pool deals one kernel into), and the
shared on-disk skeleton cache.

The randomized bit-level differential lives in
``tests/test_engine_differential.py``; this file pins *when* engines
run, that a failing point perturbs no other point's RunResult, and
that the campaign plumbing (cache stats across shards) round-trips.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import weakref

import pytest

import repro.lockstep.scheduler as scheduler
from repro.batch import batch_stats, clear_streams
from repro.batch.engine import iter_outcomes
from repro.caches.vcache_wt import VCacheWT
from repro.lockstep.codegen import (clear_engines, column_mode,
                                    engine_cache_stats, engine_sources)
from repro.lockstep.scheduler import clear_lockstep_stats, lockstep_stats
from repro.mem.nvm import NVMainMemory
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.factory import ALL_DESIGN_NAMES, build_design
from repro.sim.parallel import SweepTask, run_task
from repro.sim.sweep import run_grid
from repro.workloads import ALL_WORKLOADS

#: covers the wl and wb inline store hits, wt (every store inline), rc
#: (inline store hits with the persist queue) and call (every access
#: calls the design)
_DESIGNS = ("WL-Cache", "NVSRAM(ideal)", "VCache-WT", "ReplayCache",
            "WT+Buffer")


@pytest.fixture(autouse=True)
def _fresh():
    clear_streams()
    clear_lockstep_stats()
    yield
    clear_streams()
    clear_lockstep_stats()


def _task(workload="sha", design="WL-Cache", trace="trace1", scale=0.2,
          config=None, **overrides) -> SweepTask:
    config = config if config is not None else SimConfig(engine="fast")
    return SweepTask(workload, design, trace, scale, True, config,
                     dict(overrides))


def _assert_equal_results(ref: dict, got: dict, what: str) -> None:
    assert ref.keys() == got.keys()
    for key in ref:
        a, b = ref[key], got[key]
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), \
                f"{what}: {key}: RunResult.{f.name} diverged"


# ---------------------------------------------------------------------------
# engagement: which sweeps run on the engines
# ---------------------------------------------------------------------------

_PAIR = (["sha"], ("WL-Cache", "VCache-WT"), "trace1")


def test_lockstep_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    run_grid(*_PAIR, jobs=1, scale=0.1)
    assert lockstep_stats()["columns"] == 0


def test_lockstep_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    run_grid(*_PAIR, jobs=1, scale=0.1)
    assert lockstep_stats()["columns"] == 2
    assert lockstep_stats()["instances"] == 2
    clear_lockstep_stats()
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    run_grid(*_PAIR, jobs=1, scale=0.1)
    assert lockstep_stats()["columns"] == 0


def test_observability_outranks_lockstep():
    # the trace recorder and the invariant checker need the interpreter,
    # so an explicit fast engine still runs their points solo
    for flag in ("trace", "check_invariants"):
        ref, got = (run_grid(*_PAIR, jobs=1, scale=0.1,
                             config=SimConfig(engine=engine, **{flag: True}))
                    for engine in ("reference", "fast"))
        _assert_equal_results(ref, got, f"{flag} under engine=fast")
    assert lockstep_stats()["columns"] == 0
    assert batch_stats()["recordings"] == 0


# ---------------------------------------------------------------------------
# a wide kernel block runs point by point, one generated engine each
# ---------------------------------------------------------------------------

def _bound_spec(engine="fast"):
    """sha x 5 designs x 2 families x 2 seeds: one 20-point kernel block
    in task order NVCache-WB, VCache-WT, ReplayCache, NVSRAM(ideal),
    WL-Cache (4 points each)."""
    from repro.mc.engine import CampaignSpec

    return CampaignSpec(("sha",), DESIGNS, seeds=(0, 1), scale=0.05,
                        overrides={"engine": engine})


@pytest.fixture(scope="module")
def bound_reference():
    from repro.mc.engine import run_campaign

    return run_campaign(_bound_spec("reference"), jobs=1)


def test_wide_cluster_runs_bounded_columns(bound_reference):
    """A 20-point kernel block runs as 20 one-point engines whose
    results share the kernel's one final image."""
    from repro.mc.engine import run_campaign

    got = run_campaign(_bound_spec(), jobs=1)
    stats = lockstep_stats()
    assert stats["columns"] == stats["instances"] == 20
    assert stats["column_chunks"] >= 20
    assert len({id(r.final_memory) for r in got.values()}) == 1
    _assert_equal_results(bound_reference, got, "one engine per point")


def test_every_engine_renders_one_point():
    """Each point of a 20-point block runs on its own engine call, and
    every retained engine source is rendered for one point: its
    signature is one ``(mode, lru, traced, shift, smask, wmask)`` tuple
    and its one function takes the point's ``System``."""
    from repro.mc.engine import run_campaign

    clear_engines()
    run_campaign(_bound_spec(), jobs=1)
    stats = lockstep_stats()
    assert stats["columns"] == stats["instances"] == 20
    sources = engine_sources()
    assert sources
    for sig, src in sources.items():
        assert len(sig) == 6 and isinstance(sig[0], str), sig
        assert src.startswith("def _run(_sys, res, bd, evf, cnt):")
        assert "yield" not in src


def test_failing_column_boxes_only_its_tasks(monkeypatch, bound_reference):
    """A point whose build raises ends as that error; the kernel's
    other points run on, bit-identically."""
    from repro.mc.engine import expand_campaign

    pairs = expand_campaign(_bound_spec())
    keys = {id(task): key for key, task in pairs}
    marked_key, marked = pairs[5]  # a VCache-WT point

    def prep(task, system):
        if task is marked:
            raise RuntimeError("injected point failure")

    monkeypatch.setattr(scheduler, "PREP_HOOK", prep)
    outcomes = {keys[id(task)]: outcome for task, outcome
                in iter_outcomes([task for _, task in pairs], run_task)}
    assert {key for key, oc in outcomes.items() if oc[0] == "err"} \
        == {marked_key}
    _kind, exc, tb = outcomes[marked_key]
    assert isinstance(exc, RuntimeError)
    assert "injected point failure" in tb
    got = {key: oc[1] for key, oc in outcomes.items() if oc[0] == "ok"}
    assert len(got) == 19
    _assert_equal_results({key: bound_reference[key] for key in got}, got,
                          "points after a failed one")


def test_serial_progress_per_column(monkeypatch):
    """A serial run reports each point before the next point is
    built."""
    from repro.mc.engine import run_campaign

    log = []
    monkeypatch.setattr(scheduler, "PREP_HOOK",
                        lambda task, system: log.append("build"))
    run_campaign(_bound_spec(), jobs=1,
                 progress=lambda done, total, key: log.append("done"))
    assert log.count("build") == log.count("done") == 20
    last_build = len(log) - 1 - log[::-1].index("build")
    assert log.index("done") < last_build


def test_differing_image_in_a_later_column(monkeypatch):
    from repro.errors import ConsistencyError
    from repro.mc.engine import run_campaign
    from repro.verify.checker import check_crash_consistency
    from repro.workloads import build_workload

    odd = ("sha", "WL-Cache", "mc-rf-office", 1)  # the block's last
    prep, _seen = _flip_last_word(
        lambda task, seen: (task.design, task.trace,
                            task.overrides["trace_seed"]) == odd[1:])
    monkeypatch.setattr(scheduler, "PREP_HOOK", prep)
    got = run_campaign(_bound_spec(), jobs=1)
    assert lockstep_stats()["columns"] == 20
    res = got.pop(odd)
    assert len({id(r.final_memory) for r in got.values()}) == 1
    assert all(r.final_memory is not res.final_memory
               for r in got.values())
    program = build_workload("sha", 0.05)
    with pytest.raises(ConsistencyError):
        check_crash_consistency(program, res)
    for other in got.values():
        check_crash_consistency(program, other)


# ---------------------------------------------------------------------------
# engine modes: which accesses the engine inlines per design
# ---------------------------------------------------------------------------

#: every design's column mode (see repro.lockstep.codegen.column_mode)
_MODES = {
    "WL-Cache": "wl", "WL-Cache(eager)": "wl",
    "NVSRAM(ideal)": "wb", "NVSRAM(full)": "wb", "NVCache-WB": "wb",
    "VCache-WT": "wt", "ReplayCache": "rc",
    "NoCache": "call", "WT+Buffer": "call", "NVSRAM(practical)": "call",
}


def _design(name):
    config = SimConfig()
    return build_design(name, NVMainMemory([0] * 16, config.nvm), config)


@pytest.mark.parametrize("design", ALL_DESIGN_NAMES)
def test_column_mode_per_design(design):
    assert set(_MODES) == set(ALL_DESIGN_NAMES)
    assert column_mode(_design(design)) == _MODES[design]


def test_shadowed_load_runs_as_call():
    m = _design("WL-Cache")
    inner = m.load
    m.load = lambda addr, now: inner(addr, now)
    assert column_mode(m) == "call"


class _CountingWT(VCacheWT):
    """A VCache-WT with its own ``store_masked``, which no store shape
    inlines."""

    calls = 0

    def store_masked(self, addr, bits, mask, now):
        type(self).calls += 1
        return super().store_masked(addr, bits, mask, now)


def test_overridden_store_runs_as_call(monkeypatch):
    """A subclass that overrides a store method runs in ``call`` mode,
    so every store reaches its override, and matches the reference."""
    m = _design("VCache-WT")
    m.__class__ = _CountingWT
    assert column_mode(m) == "call"

    def prep(task, system):
        system.design.__class__ = _CountingWT

    monkeypatch.setattr(scheduler, "PREP_HOOK", prep)
    monkeypatch.setattr(_CountingWT, "calls", 0)
    grid = (["sha"], ("VCache-WT",), "trace1")
    ref = run_grid(*grid, jobs=1, scale=0.1, engine="reference")
    clear_engines()
    got = run_grid(*grid, jobs=1, scale=0.1, engine="fast")
    _assert_equal_results(ref, got, "VCache-WT subclass in call mode")
    res = got["sha", "VCache-WT"]
    assert _CountingWT.calls == res.write_hits + res.write_misses > 0
    assert {sig[0] for sig in engine_sources()} == {"call"}


# ---------------------------------------------------------------------------
# bit-identity: reference == fast (reduced grid tier-1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trace", [None, "trace1"])
def test_reduced_grid_identical(trace):
    ref = run_grid(["sha"], _DESIGNS, trace, jobs=1, scale=0.2,
                   engine="reference")
    lk = run_grid(["sha"], _DESIGNS, trace, jobs=1, scale=0.2,
                  engine="fast")
    _assert_equal_results(ref, lk, f"lockstep trace={trace}")
    stats = lockstep_stats()
    assert stats["columns"] == stats["instances"] == len(_DESIGNS)
    assert batch_stats()["lockstep"] == len(_DESIGNS)


@pytest.mark.parametrize("trace", [None, "trace1"])
def test_persist_queue_stall_identical(trace):
    """ReplayCache's queue-full stall runs only when the persist queue is
    shallower than a region (the region wait empties it every
    ``region_stores`` stores): the inline store hit must stall exactly
    as ``store_masked`` does."""
    grid = (["sha"], ("ReplayCache",), trace)
    ref = run_grid(*grid, jobs=1, scale=0.2, engine="reference",
                   persist_depth=2, region_stores=16)
    got = run_grid(*grid, jobs=1, scale=0.2, engine="fast",
                   persist_depth=2, region_stores=16)
    _assert_equal_results(ref, got, f"ReplayCache persist_depth 2 {trace}")
    no_stall = run_grid(*grid, jobs=1, scale=0.2, engine="fast",
                        persist_depth=16, region_stores=16)
    key = ("sha", "ReplayCache")
    assert got[key].store_stall_cycles > no_stall[key].store_stall_cycles


def test_dynamic_policy_sees_the_chunk_boundary_energy():
    """WL-Cache(dyn) reads the capacitor from inside a store (the
    maxline raise); the engine writes its energy back every chunk, so
    the policy sees the last chunk boundary's energy on both engines."""
    grid = (["fft"], ["WL-Cache"], "trace3")
    ref = run_grid(*grid, jobs=1, scale=0.1, engine="reference",
                   dynamic=True)
    got = run_grid(*grid, jobs=1, scale=0.1, engine="fast", dynamic=True)
    _assert_equal_results(ref, got, "WL-Cache(dyn)")
    assert ref["fft", "WL-Cache"].dyn_raises > 0


def test_single_task_column_identical_to_reference():
    ref = run_grid(["qsort"], ("WL-Cache",), "trace1", jobs=1, scale=0.2,
                   engine="reference")
    lk = run_grid(["qsort"], ("WL-Cache",), "trace1", jobs=1, scale=0.2,
                  engine="fast")
    _assert_equal_results(ref, lk, "one point")
    stats = lockstep_stats()
    assert stats["columns"] == 1
    assert stats["instances"] == 1


def test_parallel_pool_propagates_lockstep(monkeypatch):
    ref = run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                   jobs=1, scale=0.2, engine="reference")
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    lk = run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                  jobs=2, scale=0.2)
    _assert_equal_results(ref, lk, "pooled lockstep")
    # the workers' counter deltas ride home on the chunk records and
    # are folded into this process (absorb_counters), so the parent
    # sees the points the pool actually ran
    assert batch_stats()["lockstep"] >= 2


def test_pooled_sweep_ships_scheduler_counters_home():
    grid = (("sha", "qsort", "dijkstra", "adpcmencode"),
            ("WL-Cache", "NVSRAM(ideal)"), "trace1")
    keys = ("columns", "instances", "column_chunks")
    counts = {}
    for jobs in (1, 2):
        clear_streams()
        clear_lockstep_stats()
        run_grid(*grid, jobs=jobs, scale=0.05, engine="fast")
        counts[jobs] = {k: lockstep_stats()[k] for k in keys}
    # one engine per point, however the pool deals the kernels
    assert counts[1]["columns"] == counts[1]["instances"] == 8
    assert counts[2] == counts[1]


def test_error_parity_on_budget_truncation():
    kwargs = dict(jobs=1, scale=0.2, max_instructions=5_000)
    try:
        run_grid(["sha"], ("WL-Cache", "VCache-WT"), "trace1",
                 engine="reference", **kwargs)
        ref_err = None
    except Exception as exc:
        ref_err = (type(exc), str(exc))
    try:
        run_grid(["sha"], ("WL-Cache", "VCache-WT"), "trace1",
                 engine="fast", **kwargs)
        lk_err = None
    except Exception as exc:
        lk_err = (type(exc), str(exc))
    assert ref_err is not None
    assert lk_err == ref_err


@pytest.mark.parametrize("max_outages", [0, 1, 3])
def test_lifecycle_errors_match_reference(max_outages):
    """A lifecycle block that raises inside the engine (the outage cap
    of ``_outage_reboot``) ends its point with the reference engine's
    error, and every such point counts as a fault. Compared task by
    task."""
    def outcomes(engine):
        tasks = [_task(workload=w, design=d, config=SimConfig(engine=engine),
                       max_outages=max_outages)
                 for w in ("sha", "qsort")
                 for d in ("WL-Cache", "NVCache-WB", "VCache-WT",
                           "WT+Buffer")]
        return {(t.workload, t.design): oc
                for t, oc in iter_outcomes(tasks, run_task)}

    ref = outcomes("reference")
    clear_lockstep_stats()
    got = outcomes("fast")
    assert got.keys() == ref.keys()
    for key, want in ref.items():
        have = got[key]
        assert have[0] == want[0], key
        if want[0] == "ok":
            _assert_equal_results({key: want[1]}, {key: have[1]},
                                  f"max_outages={max_outages}")
        else:
            assert (type(have[1]), str(have[1])) \
                == (type(want[1]), str(want[1])), key
    errors = sum(oc[0] == "err" for oc in got.values())
    assert errors >= 1
    assert lockstep_stats()["faults"] == errors


# ---------------------------------------------------------------------------
# fault isolation: a raising point ends alone
# ---------------------------------------------------------------------------

def _grid_ref(designs, trace="trace1"):
    ref = run_grid(["sha"], designs, trace, jobs=1, scale=0.2,
                   engine="reference")
    clear_streams()
    clear_lockstep_stats()
    return ref


def test_mid_walk_fault_is_isolated(monkeypatch):
    """A memory call that raises mid-walk ends only its own point; the
    other points finish bit-identically."""
    ref = _grid_ref(("WL-Cache", "VCache-WT"))

    def prep(task, system):
        if task.design != "WT+Buffer":
            return
        inner = system.design.load
        calls = [0]

        def load(addr, now, _inner=inner, _calls=calls):
            _calls[0] += 1
            if _calls[0] > 100:
                raise RuntimeError("injected lockstep fault")
            return _inner(addr, now)

        system.design.load = load

    monkeypatch.setattr(scheduler, "PREP_HOOK", prep)
    tasks = [_task(design=d) for d in
             ("WL-Cache", "WT+Buffer", "VCache-WT")]
    outcomes = {t.design: oc for t, oc in iter_outcomes(tasks, run_task)}
    assert outcomes["WT+Buffer"][0] == "err"
    assert isinstance(outcomes["WT+Buffer"][1], RuntimeError)
    assert "injected" in str(outcomes["WT+Buffer"][1])
    for design in ("WL-Cache", "VCache-WT"):
        assert outcomes[design][0] == "ok"
        a, b = ref[("sha", design)], outcomes[design][1]
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), \
                f"{design}: RunResult.{f.name} diverged"
    assert lockstep_stats()["faults"] >= 1


def _load_wrapper(calls, raise_at=None):
    """A ``PREP_HOOK`` wrapping WL-Cache's ``load`` - a design the engine
    would otherwise probe inline - counting calls, and raising at call
    ``raise_at`` when given."""
    def prep(task, system):
        if task.design != "WL-Cache":
            return
        inner = system.design.load

        def load(addr, now, _inner=inner):
            calls[0] += 1
            if raise_at is not None and calls[0] >= raise_at:
                raise RuntimeError("injected prep-hook fault")
            return _inner(addr, now)

        system.design.load = load
    return prep


def test_prep_hook_sees_every_access(monkeypatch):
    """A wrapped design method puts its instance in ``call`` mode, so
    the wrapper sees the accesses the engine would have inlined."""
    ref = _grid_ref(("WL-Cache", "VCache-WT"))
    tasks = [_task(design=d) for d in ("WL-Cache", "VCache-WT")]

    calls = [0]
    monkeypatch.setattr(scheduler, "PREP_HOOK", _load_wrapper(calls))
    outcomes = {t.design: oc for t, oc in iter_outcomes(tasks, run_task)}
    assert calls[0] >= 1
    for design in ("WL-Cache", "VCache-WT"):
        assert outcomes[design][0] == "ok"
        _assert_equal_results({design: ref[("sha", design)]},
                              {design: outcomes[design][1]},
                              "pass-through hook")

    clear_streams()
    clear_lockstep_stats()
    calls = [0]
    monkeypatch.setattr(scheduler, "PREP_HOOK",
                        _load_wrapper(calls, raise_at=50))
    outcomes = {t.design: oc for t, oc in iter_outcomes(tasks, run_task)}
    kind, exc = outcomes["WL-Cache"][:2]
    assert kind == "err"
    assert isinstance(exc, RuntimeError) and "injected" in str(exc)
    assert outcomes["VCache-WT"][0] == "ok"
    assert lockstep_stats()["faults"] >= 1


# ---------------------------------------------------------------------------
# finished points are freed by reference counting
# ---------------------------------------------------------------------------

def test_finished_points_freed_without_gc(monkeypatch):
    """No reference cycle keeps a finished point alive: with the cyclic
    collector off, every design is gone once the results are."""
    designs = []
    real = scheduler.build_replay_system

    def spy(program, task, config, stream):
        system = real(program, task, config, stream)
        designs.append(weakref.ref(system.design))
        return system

    monkeypatch.setattr(scheduler, "build_replay_system", spy)
    gc.collect()
    gc.disable()
    try:
        res = run_grid(["sha", "qsort"], DESIGNS, "trace1", jobs=1,
                       scale=0.1, engine="fast")
        assert len(res) == len(designs) == 2 * len(DESIGNS)
        del res
        alive = [ref for ref in designs if ref() is not None]
        assert not alive, f"{len(alive)} of {len(designs)} designs alive"
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# equal final images share one array
# ---------------------------------------------------------------------------

def _sha_column(engine="fast"):
    return run_grid(["sha"], DESIGNS, "trace1", jobs=1, scale=0.1,
                    engine=engine)


def _flip_last_word(pick):
    """A ``PREP_HOOK`` flipping the last NVM word - which sha never
    touches - of the instance ``pick(task, seen)`` selects, where
    ``seen`` lists the designs built before it in task order."""
    seen: list[str] = []

    def prep(task, system):
        if pick(task, seen):
            system.design.nvm.words[-1] ^= 1
        seen.append(task.design)
    return prep, seen


def test_column_results_share_one_image():
    from repro.verify.checker import check_crash_consistency
    from repro.verify.oracle import run_oracle
    from repro.workloads import build_workload

    got = _sha_column()
    assert len({id(r.final_memory) for r in got.values()}) == 1
    program = build_workload("sha", 0.1)
    assert got[("sha", "WL-Cache")].final_memory == \
        run_oracle(program).memory
    for res in got.values():
        check_crash_consistency(program, res)
    ref = _sha_column("reference")
    # lone runs keep private images
    assert len({id(r.final_memory) for r in ref.values()}) == len(ref)
    _assert_equal_results(ref, got, "shared images")


def test_differing_image_keeps_its_own_array(monkeypatch):
    from repro.errors import ConsistencyError
    from repro.verify.checker import check_crash_consistency
    from repro.workloads import build_workload

    prep, seen = _flip_last_word(
        lambda task, seen: task.design == "NVSRAM(ideal)")
    monkeypatch.setattr(scheduler, "PREP_HOOK", prep)
    got = {design: res for (_, design), res in _sha_column().items()}
    assert seen[0] != "NVSRAM(ideal)"
    odd = got.pop("NVSRAM(ideal)")
    assert len({id(r.final_memory) for r in got.values()}) == 1
    assert odd.final_memory is not got["WL-Cache"].final_memory
    program = build_workload("sha", 0.1)
    with pytest.raises(ConsistencyError):
        check_crash_consistency(program, odd)
    for res in got.values():
        check_crash_consistency(program, res)


def test_differing_first_image_is_never_shared(monkeypatch):
    from repro.verify.oracle import run_oracle
    from repro.workloads import build_workload

    prep, seen = _flip_last_word(lambda task, seen: not seen)
    monkeypatch.setattr(scheduler, "PREP_HOOK", prep)
    got = {design: res for (_, design), res in _sha_column().items()}
    assert len({id(r.final_memory) for r in got.values()}) == len(got)
    oracle = run_oracle(build_workload("sha", 0.1)).memory
    first = got.pop(seen[0]).final_memory
    assert first[:-1] == oracle[:-1] and first[-1] == oracle[-1] ^ 1
    for res in got.values():
        assert res.final_memory == oracle


def test_pool_chunk_pickles_one_image():
    """A pool chunk's equal images pickle once: 80 points cost less
    than two images."""
    import pickle

    from repro.mc.engine import CampaignSpec, expand_campaign
    from repro.sim.parallel import _run_chunk
    from repro.workloads import build_workload

    spec = CampaignSpec(("sha",), DESIGNS, scale=0.05,
                        overrides={"engine": "fast"})
    chunk = [task for _, task in expand_campaign(spec)]
    assert len(chunk) == 80
    records = _run_chunk(chunk)
    assert [r[0] for r in records] == ["ok"] * 80 + ["stats"]
    size = len(pickle.dumps(records, pickle.HIGHEST_PROTOCOL))
    assert size < 2 * build_workload("sha", 0.05).mem_bytes


def _dealt_campaign(engine="fast", jobs=2):
    """sha x 5 designs x 2 families x 4 seeds: on two workers
    (n = ceil(40 / 8) = 5) the 40-point block is dealt into 8 chunks."""
    from repro.mc.engine import CampaignSpec, run_campaign

    spec = CampaignSpec(("sha",), DESIGNS, seeds=tuple(range(4)),
                        scale=0.05, overrides={"engine": engine})
    return run_campaign(spec, jobs=jobs)


def test_dealt_kernel_holds_one_image_in_the_parent():
    from repro.verify.checker import check_crash_consistency
    from repro.workloads import build_workload

    got = _dealt_campaign()
    assert lockstep_stats()["columns"] == len(got) == 40
    assert batch_stats()["lockstep"] == len(got)
    assert len({id(r.final_memory) for r in got.values()}) == 1
    check_crash_consistency(build_workload("sha", 0.05),
                            next(iter(got.values())))
    _assert_equal_results(_dealt_campaign("reference", jobs=1), got,
                          "dealt campaign")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the PREP_HOOK")
def test_dealt_differing_image_keeps_its_own_array(monkeypatch):
    from repro.errors import ConsistencyError
    from repro.verify.checker import check_crash_consistency
    from repro.workloads import build_workload

    odd = ("sha", "WL-Cache", "mc-rf-home", 1)

    def prep(task, system):
        # WL-Cache comes last in each dealt chunk, so the chunk's first
        # image is an equal one
        if (task.design, task.trace, task.overrides["trace_seed"]) \
                == odd[1:]:
            system.design.nvm.words[-1] ^= 1

    monkeypatch.setattr(scheduler, "PREP_HOOK", prep)
    got = _dealt_campaign()
    assert lockstep_stats()["columns"] == 40
    res = got.pop(odd)
    assert len({id(r.final_memory) for r in got.values()}) == 1
    assert all(r.final_memory is not res.final_memory for r in got.values())
    program = build_workload("sha", 0.05)
    with pytest.raises(ConsistencyError):
        check_crash_consistency(program, res)
    for other in got.values():
        check_crash_consistency(program, other)


# ---------------------------------------------------------------------------
# generated engines
# ---------------------------------------------------------------------------

def test_engine_cached_per_signature(monkeypatch):
    """A signature renders and compiles once, and every point of it
    runs the same compiled function."""
    from repro.lockstep import codegen

    renders: list[tuple] = []
    real_render = codegen.render_engine_source

    def render_engine_source(sig):
        renders.append(sig)
        return real_render(sig)

    runs: dict[tuple, set] = {}
    real_get = codegen.get_engine

    def get_engine(sig):
        run = real_get(sig)
        runs.setdefault(sig, set()).add(id(run))
        return run

    monkeypatch.setattr(codegen, "render_engine_source",
                        render_engine_source)
    monkeypatch.setattr(scheduler, "get_engine", get_engine)
    clear_engines()
    run_grid(["sha", "qsort"], _DESIGNS, "trace1", jobs=1, scale=0.2,
             engine="fast")
    sources = engine_sources()
    assert sorted(renders) == sorted(sources) == sorted(runs)
    assert engine_cache_stats()["signatures"] == len(sources) >= 1
    assert all(len(ids) == 1 for ids in runs.values())
    for sig, src in sources.items():
        compile(src, f"<lockstep {sig}>", "exec")  # stays valid Python
    clear_streams()
    run_grid(["sha"], _DESIGNS, "trace1", jobs=1, scale=0.2,
             engine="fast")
    # same signatures: the compiled engines are reused, not re-rendered
    assert len(renders) == len(sources)
    clear_engines()
    assert engine_cache_stats()["signatures"] == 0


# ---------------------------------------------------------------------------
# shared on-disk skeleton cache (campaign shards)
# ---------------------------------------------------------------------------

def test_disk_cache_shared_across_cold_starts(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    first = run_grid(["sha"], ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                     jobs=1, scale=0.2, engine="fast")
    assert batch_stats()["disk_writes"] >= 1
    clear_streams()  # a fresh process/shard: in-memory caches are cold
    again = run_grid(["sha"], ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                     jobs=1, scale=0.2, engine="fast")
    stats = batch_stats()
    assert stats["disk_hits"] >= 1
    assert stats["recordings"] == 0  # served from the shared cache
    _assert_equal_results(first, again, "disk-cache round trip")


def test_campaign_cache_stats_merge():
    from repro.mc.engine import campaign_to_dict, merge_campaigns

    a = campaign_to_dict({}, cache_stats={"recordings": 1, "hits": 2,
                                          "disk_hits": 0})
    b = campaign_to_dict({}, cache_stats={"recordings": 0, "hits": 3,
                                          "disk_hits": 4})
    assert a["cache_stats"] == {"recordings": 1, "hits": 2}
    merged = merge_campaigns([a, b])
    assert merged["cache_stats"] == {"recordings": 1, "hits": 5,
                                     "disk_hits": 4}
    # campaigns without stats merge exactly as before
    assert "cache_stats" not in merge_campaigns(
        [campaign_to_dict({}), campaign_to_dict({})])


# ---------------------------------------------------------------------------
# full grid (tier-2)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                    reason="full grid is tier-2 (set REPRO_TIER2=1)")
def test_run_results_identical_full_grid():
    for trace in (None, "trace1"):
        ref = run_grid(ALL_WORKLOADS, DESIGNS, trace, jobs=1, scale=1.0,
                       engine="reference")
        lk = run_grid(ALL_WORKLOADS, DESIGNS, trace, jobs=1, scale=1.0,
                      engine="fast")
        bad = [k for k in ref if ref[k] != lk[k]]
        assert not bad, f"{trace}: lockstep diverged on {bad}"
