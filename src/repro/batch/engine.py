"""The fast sweep engine: group grid points, record once, replay each.

The engine sits between :mod:`repro.sim.parallel` and the per-run
machinery. Given a list of sweep tasks it:

1. resolves each task's effective :class:`SimConfig` and routes it to
   the fast engine when :func:`repro.sim.factory.runs_fast` says so -
   ``engine="fast"`` (or ``REPRO_ENGINE=fast`` under an unset engine)
   and neither the trace recorder nor the invariant checker attached;
   every other task runs alone on the interpreter;
2. groups fast tasks by ``(workload, scale, effective cost model)``
   - the *design family*: ``NVCache-WB`` folds ``nvcache_ifetch_extra``
   into its costs, so it expands its own stream, apart from the
   SRAM-cost designs;
3. records each kernel once (:mod:`repro.batch.record`) - the
   architectural stream is cost-independent, so every family of a
   kernel shares one recording - and expands it per group into a
   :class:`GuestStream`, cached process-wide so consecutive grids (one
   per power trace) reuse it;
4. runs every point of a ``(workload, scale)`` cluster of groups - the
   cost families of one kernel share one stream skeleton - alone on a
   generated engine (:func:`repro.lockstep.scheduler.run_column`), in
   plan order; the engine calls its design's own methods on a miss, and
   per-point outages, stalls and threshold adaptation all happen in the
   point's own ``System``, bit-identically;
5. bails any group the stream model cannot serve - a guest fault or
   runaway kernel during recording - to the caller-supplied slow path
   (a lone run on the interpreter), task by task, preserving exact
   error behaviour.

Select the fast engine with ``SimConfig(engine="fast")``, ``--engine
fast`` on ``repro sweep``/``repro campaign``, or ``REPRO_ENGINE=fast``
in the environment (it fills only an unset ``engine``).
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Iterator

from repro.batch.record import (RecordingBail, record_run,
                                recording_fingerprint)
from repro.batch.replay import ReplayCore
from repro.batch.stream import GuestStream, build_stream
from repro.cpu.core import program_content_key
from repro.cpu.costs import CycleCosts
from repro.isa.program import Program
from repro.mem.nvm import NVMainMemory
from repro.sim.config import SimConfig
from repro.sim.factory import build_design, effective_costs, runs_fast
# imported by name only so perfbench/spans.py, which wraps
# repro.batch.engine.attach_memfast, still resolves it; never called
from repro.sim.factory import attach_memfast  # noqa: F401
from repro.sim.system import System
from repro.workloads import build_workload, verify_checks

#: program content key -> raw recording ``(codes, n_total, cycles,
#: rec_costs, final_regs, ops)``. The architectural stream is *cost-
#: independent* (control flow never reads the cycle counter), so one
#: recording serves every design family; only the cheap static-cycle
#: expansion happens per family. Recordings are the big allocation
#: (exit codes + memory ops), so the cache holds only the most recent
#: few - enough for every family of the kernel being planned to expand
#: from one recording; the stream cache below serves later grids.
_RECORDING_CACHE: dict[tuple, tuple] = {}
_RECORDING_CACHE_CAP = 4

#: (program content key, effective costs) -> GuestStream. Streams share
#: their event list with the kernel's skeleton, so the per-family entry
#: adds only the cycle prefix sum. The cap holds a full figure grid - 23
#: kernels x 2 cost families = 46 streams - so back-to-back grids over
#: the same kernels (Figs. 4-6, one per power condition) expand each
#: stream once.
_STREAM_CACHE: dict[tuple, GuestStream] = {}
_STREAM_CACHE_CAP = 64
_STREAM_STATS = {"recordings": 0, "expansions": 0, "hits": 0, "bails": 0,
                 "solo": 0, "lockstep": 0, "disk_hits": 0,
                 "disk_writes": 0}


def resolve_config(task) -> SimConfig:
    """A task's effective config (base config + overrides)."""
    config = task.config or SimConfig()
    if task.overrides:
        config = config.with_(**task.overrides)
    return config


class _Group:
    """Fast-engine tasks sharing one recording."""

    __slots__ = ("workload", "scale", "costs", "tasks", "configs",
                 "budget")

    def __init__(self, workload: str, scale: float, costs: CycleCosts):
        self.workload = workload
        self.scale = scale
        self.costs = costs
        self.tasks: list = []
        self.configs: list[SimConfig] = []
        self.budget = 0

    def add(self, task, config: SimConfig) -> None:
        self.tasks.append(task)
        self.configs.append(config)
        self.budget = max(self.budget, config.max_instructions)


def plan(tasks) -> list[tuple]:
    """Partition tasks into ``("solo", task)`` and ``("group", _Group)``
    units, in first-appearance order."""
    units: list[tuple] = []
    groups: dict[tuple, _Group] = {}
    for task in tasks:
        try:
            config = resolve_config(task)
        except Exception:
            # invalid overrides: the slow path raises the real error
            units.append(("solo", task))
            continue
        if not runs_fast(config):
            units.append(("solo", task))
            continue
        costs = effective_costs(task.design, config)
        key = (task.workload, task.scale, costs)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _Group(task.workload, task.scale,
                                         costs)
            units.append(("group", group))
        group.add(task, config)
    return units


def _stream_store_key(ckey: tuple) -> tuple:
    return ("stream-rec", recording_fingerprint(), ckey)


def _disk_load(ckey: tuple) -> tuple | None:
    """A previously shared recording, or None (not cached / unreadable -
    a bad entry is never an error, just a re-record). Recordings live in
    the ``"stream"`` class of the persistent artifact store
    (:mod:`repro.store`)."""
    from repro.store.core import get_store

    store = get_store()
    if store is None:
        return None
    recording = store.load("stream", _stream_store_key(ckey))
    if not (isinstance(recording, tuple) and len(recording) == 6):
        return None
    _STREAM_STATS["disk_hits"] += 1
    return recording


def _disk_store(ckey: tuple, recording: tuple) -> None:
    from repro.store.core import get_store

    store = get_store()
    if store is None:
        return
    if store.save("stream", _stream_store_key(ckey), recording):
        _STREAM_STATS["disk_writes"] += 1


def get_stream(program: Program, costs: CycleCosts,
               budget: int) -> GuestStream:
    """The kernel's guest stream, recording it on first demand.

    Raises :class:`RecordingBail` when the kernel cannot be recorded;
    bails are not cached (a larger budget may succeed later). With the
    artifact store on (``REPRO_CACHE_DIR``), recordings round-trip
    through it so campaign shards record each kernel once fleet-wide (a
    completed recording is budget-independent - the budget only caps
    runaway kernels, which bail and are never stored).
    """
    ckey = program_content_key(program)
    key = (ckey, costs)
    stream = _STREAM_CACHE.get(key)
    if stream is not None:
        _STREAM_STATS["hits"] += 1
        return stream
    recording = _RECORDING_CACHE.get(ckey)
    if recording is None:
        recording = _disk_load(ckey)
        if recording is None:
            codes, n, cycles, final_regs, ops = record_run(
                program, costs, budget)
            recording = (codes, n, cycles, costs, final_regs, ops)
            _STREAM_STATS["recordings"] += 1
            _disk_store(ckey, recording)
        if len(_RECORDING_CACHE) >= _RECORDING_CACHE_CAP:
            _RECORDING_CACHE.pop(next(iter(_RECORDING_CACHE)))
        _RECORDING_CACHE[ckey] = recording
    # every family of a kernel expands from one skeleton, so the
    # points of a cluster walk one event list
    skel = next((s.skel for k, s in _STREAM_CACHE.items()
                 if k[0] == ckey), None)
    stream = build_stream(program, costs, recording, skel)
    if len(_STREAM_CACHE) >= _STREAM_CACHE_CAP:
        _STREAM_CACHE.pop(next(iter(_STREAM_CACHE)))
    _STREAM_CACHE[key] = stream
    _STREAM_STATS["expansions"] += 1
    return stream


def build_replay_system(program: Program, task, config: SimConfig,
                        stream: GuestStream) -> System:
    """A System whose core is a :class:`ReplayCore` over ``stream``,
    ready for a lockstep engine to drive.

    Mirrors :func:`repro.sim.factory.build_system` minus the
    instrumentation the fast engine refuses to coexist with (trace
    recorder, invariant checker - :func:`plan` never routes such tasks
    here). Nothing is attached to the design: the engine inlines its
    hit paths and calls its own methods on a miss.
    """
    from repro.energy.synthetic import make_trace

    trace = task.trace
    if isinstance(trace, str):
        trace = (make_trace(trace) if config.trace_seed is None
                 else make_trace(trace, config.trace_seed))
    nvm = NVMainMemory(program.initial_memory(), config.nvm)
    design = build_design(task.design, nvm, config)
    costs = effective_costs(task.design, config)
    system = System(program, design, config, trace, costs)
    system.core = ReplayCore(stream, costs)
    return system


def _outcome(fn, *args) -> tuple:
    """Run ``fn``, boxing the result: ("ok", result) or ("err", exc,
    formatted traceback)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("err", exc, traceback.format_exc())


def iter_outcomes(tasks, run_slow: Callable) -> Iterator[tuple]:
    """Yield ``(task, outcome)`` for every task, on the fast engine
    where it can.

    ``run_slow`` is the caller's single-task path; it must not consult
    the result memo again. Reference-engine, instrumented and bailed
    tasks go through it and finish as lone runs on the interpreter.
    Adjacent groups sharing a ``(workload, scale)`` - the cost families
    of one design sweep, which share a :class:`~repro.batch.stream.
    StreamSkeleton` - form one *cluster* whose points run one after
    another over that skeleton. Outcomes are yielded unit by unit in
    first-appearance order, which is group-major; callers needing task
    order re-index by task.

    When result memoization is on (:mod:`repro.store.results`), every
    task is first checked against the persistent memo: hits are yielded
    up front without touching the recorder, so an all-hit grid never
    records, expands, or replays anything.
    """
    from repro.store.results import lookup_task

    pending = []
    for task in tasks:
        memo = lookup_task(task)
        if memo is not None:
            yield task, ("ok", memo)
        else:
            pending.append(task)
    units = plan(pending)
    i = 0
    while i < len(units):
        kind, unit = units[i]
        if kind == "solo":
            _STREAM_STATS["solo"] += 1
            yield unit, _outcome(run_slow, unit)
            i += 1
            continue
        cluster = [unit]
        j = i + 1
        while (j < len(units) and units[j][0] == "group"
               and units[j][1].workload == unit.workload
               and units[j][1].scale == unit.scale):
            cluster.append(units[j][1])
            j += 1
        i = j
        yield from _run_cluster(cluster, run_slow)


def _run_cluster(groups: list, run_slow: Callable) -> Iterator[tuple]:
    """Run one ``(workload, scale)`` cluster over the shared skeleton,
    one point at a time in plan order, each alone on its generated
    engine.

    Each point's result is verified, stored and yielded before the next
    point is built, so a caller sees progress per point and the
    finished system is freed. Equal final images share the cluster's
    first ok image, so a cluster holds one image whatever its width.
    """
    from repro.lockstep.scheduler import run_column
    from repro.store.results import store_task

    try:
        program = build_workload(groups[0].workload, groups[0].scale)
    except Exception as exc:
        tb = traceback.format_exc()
        for group in groups:
            for task in group.tasks:
                yield task, ("err", exc, tb)
        return
    image = None
    for group in groups:
        try:
            stream = get_stream(program, group.costs, group.budget)
        except RecordingBail:
            _STREAM_STATS["bails"] += 1
            for task in group.tasks:
                yield task, _outcome(run_slow, task)
            continue
        except Exception as exc:
            tb = traceback.format_exc()
            for task in group.tasks:
                yield task, ("err", exc, tb)
            continue
        for task, config in zip(group.tasks, group.configs):
            outcome = run_column(program, task, config, stream)
            if outcome[0] == "ok" and task.verify:
                try:
                    verify_checks(program, outcome[1].final_memory)
                except Exception as exc:
                    outcome = ("err", exc, traceback.format_exc())
            if outcome[0] == "ok":
                # every halted point of a kernel ends in the oracle's
                # image: an image equal to the cluster's first takes
                # that array, so the cluster holds (and a pool chunk
                # pickles) one copy
                res = outcome[1]
                if image is None:
                    image = res.final_memory
                elif res.final_memory == image:
                    res.final_memory = image
                _STREAM_STATS["lockstep"] += 1
                store_task(task, res)
            yield task, outcome


def batch_stats() -> dict:
    """Engine counters (tests/benchmarks)."""
    return {"streams": len(_STREAM_CACHE),
            "raw_recordings": len(_RECORDING_CACHE), **_STREAM_STATS}


def clear_streams() -> None:
    """Drop cached recordings/streams and reset counters (tests)."""
    _STREAM_CACHE.clear()
    _RECORDING_CACHE.clear()
    from repro.batch.stream import clear_stream_meta
    clear_stream_meta()
    for k in _STREAM_STATS:
        _STREAM_STATS[k] = 0


__all__ = [
    "batch_stats",
    "build_replay_system",
    "clear_streams",
    "get_stream",
    "iter_outcomes",
    "plan",
    "resolve_config",
]
