"""The fast sweep engine: record each kernel once, replay each point.

The engine sits between :mod:`repro.sim.parallel` and the per-run
machinery. :func:`iter_outcomes` routes each task on its own, in task
order:

1. a hit in the persistent result memo (when on) is the outcome;
2. a task that :func:`repro.sim.factory.runs_fast` rejects - the
   reference engine, or the trace recorder or invariant checker
   attached - runs alone on the interpreter (the caller's slow path);
3. any other task gets its kernel's stream under its design's cost
   model (:func:`get_stream`) and runs alone on a generated engine
   (:func:`repro.lockstep.scheduler.run_column`); the engine calls its
   design's own methods on a miss, and per-point outages, stalls and
   threshold adaptation all happen in the point's own ``System``,
   bit-identically.

A kernel is recorded once (:mod:`repro.batch.record`): the architectural
stream is cost-independent, so its one :class:`StreamSkeleton` serves
every *cost family* - ``NVCache-WB`` folds ``nvcache_ifetch_extra``
into its costs, so it expands its own cycle prefix sum apart from the
SRAM-cost designs. A kernel the stream model cannot serve - a guest
fault or runaway kernel during recording - bails its tasks to the slow
path one by one, preserving exact error behaviour.

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
from repro.batch.stream import (GuestStream, StreamSkeleton, build_stream,
                                clear_stream_meta)
from repro.cpu.core import program_content_key
from repro.cpu.costs import CycleCosts
from repro.isa.program import Program
from repro.sim.config import SimConfig
from repro.sim.factory import build_system, effective_costs, runs_fast
# imported by name only so perfbench/spans.py, which wraps
# repro.batch.engine.attach_memfast, still resolves it; never called
from repro.sim.factory import attach_memfast  # noqa: F401
from repro.sim.system import System
from repro.workloads import build_workload, verify_checks

#: program content key -> the kernel's StreamSkeleton (its expanded
#: cost families in ``skel.streams``), or ``(reason, budget)`` when its
#: last recording bailed under that instruction budget
_KERNELS: dict[tuple, StreamSkeleton | tuple] = {}
#: holds every kernel of a figure grid (23), so back-to-back grids over
#: the same kernels (Figs. 4-6, one per power condition) record and
#: expand each kernel once
_KERNEL_CACHE_CAP = 32
_STREAM_STATS = {"recordings": 0, "expansions": 0, "hits": 0, "bails": 0,
                 "solo": 0, "lockstep": 0, "disk_hits": 0,
                 "disk_writes": 0}


def resolve_config(task) -> SimConfig:
    """A task's effective config (base config + overrides)."""
    config = task.config or SimConfig()
    if task.overrides:
        config = config.with_(**task.overrides)
    return config


def _remember(ckey: tuple, entry: StreamSkeleton | tuple) -> None:
    _KERNELS.pop(ckey, None)
    if len(_KERNELS) >= _KERNEL_CACHE_CAP:
        old = _KERNELS.pop(next(iter(_KERNELS)))
        if isinstance(old, StreamSkeleton):
            # its streams point back at it: drop them so reference
            # counting frees the evicted kernel, not the cyclic GC
            old.streams.clear()
    _KERNELS[ckey] = entry


def get_stream(program: Program, costs: CycleCosts,
               budget: int) -> GuestStream:
    """The kernel's guest stream under ``costs``, recording the kernel
    on first demand.

    A bailed recording raises :class:`RecordingBail`, and so does every
    later request whose ``budget`` is no larger, without recording; a
    larger budget records again. With the artifact store on
    (``REPRO_CACHE_DIR``), skeletons round-trip through its ``skel``
    class, so campaign shards record each kernel once fleet-wide (a
    completed recording is budget-independent - the budget only caps
    runaway kernels, which bail and are never stored).
    """
    from repro.store.core import get_store

    ckey = program_content_key(program)
    source = _KERNELS.get(ckey)
    if isinstance(source, StreamSkeleton):
        stream = source.streams.get(costs)
        if stream is not None:
            _STREAM_STATS["hits"] += 1
            return stream
    elif source is not None and budget <= source[1]:
        raise RecordingBail(source[0])
    else:
        store = get_store()
        key = ("stream-skel", recording_fingerprint("repro.batch.stream"),
               ckey)
        payload = store.load("skel", key) if store is not None else None
        if isinstance(payload, tuple) and len(payload) == 5:
            _STREAM_STATS["disk_hits"] += 1
            source = StreamSkeleton(*payload)
        else:
            try:
                source = record_run(program, costs, budget)
            except RecordingBail as bail:
                _STREAM_STATS["bails"] += 1
                _remember(ckey, (bail.reason, budget))
                raise
            _STREAM_STATS["recordings"] += 1
    stream = build_stream(program, costs, source)
    _STREAM_STATS["expansions"] += 1
    skel = stream.skel
    if not isinstance(source, StreamSkeleton) and store is not None \
            and store.save("skel", key, (skel.n_total, skel.events,
                                         skel.blk_g, skel.codes,
                                         skel.final_regs)):
        _STREAM_STATS["disk_writes"] += 1
    _remember(ckey, skel)
    return stream


def build_replay_system(program: Program, task, config: SimConfig,
                        stream: GuestStream) -> System:
    """A System whose core is a :class:`ReplayCore` over ``stream``,
    ready for a lockstep engine to drive: :func:`~repro.sim.factory.
    build_system` with the interpreter core swapped out. Only tasks
    :func:`runs_fast` accepts get here, so nothing is attached to the
    design: the engine inlines its hit paths and calls its own methods
    on a miss.
    """
    system = build_system(program, task.design, task.trace, config)
    system.core = ReplayCore(stream, effective_costs(task.design, config))
    return system


def _outcome(fn, *args) -> tuple:
    """Run ``fn``, boxing the result: ("ok", result) or ("err", exc,
    formatted traceback)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("err", exc, traceback.format_exc())


def iter_outcomes(tasks, run_slow: Callable) -> Iterator[tuple]:
    """Yield ``(task, outcome)`` for every task, in task order, on the
    fast engine where it can.

    ``run_slow`` is the caller's single-task path; it must not consult
    the result memo again. Each task is first looked up in the
    persistent result memo (:mod:`repro.store.results`), when on, so an
    all-hit grid never records, expands, or replays anything.
    Reference-engine, instrumented and bailed tasks go through
    ``run_slow`` and finish as lone runs on the interpreter. Every other
    task runs on its generated engine, and its result is verified,
    stored and yielded before the next task starts, so a caller sees
    progress per point and the finished system is freed. Equal final
    images share the first ok image of their ``(workload, scale)``, so a
    kernel holds one image however many points it has.
    """
    from repro.lockstep.scheduler import run_column
    from repro.store.results import lookup_task, store_task

    images: dict[tuple, object] = {}
    for task in tasks:
        memo = lookup_task(task)
        if memo is not None:
            yield task, ("ok", memo)
            continue
        try:
            config = resolve_config(task)
        except Exception:
            config = None  # invalid overrides: the slow path raises them
        if config is None or not runs_fast(config):
            _STREAM_STATS["solo"] += 1
            yield task, _outcome(run_slow, task)
            continue
        try:
            program = build_workload(task.workload, task.scale)
            stream = get_stream(program,
                                effective_costs(task.design, config),
                                config.max_instructions)
        except RecordingBail:
            yield task, _outcome(run_slow, task)
            continue
        except Exception as exc:
            yield task, ("err", exc, traceback.format_exc())
            continue
        outcome = run_column(program, task, config, stream)
        if outcome[0] == "ok" and task.verify:
            try:
                verify_checks(program, outcome[1].final_memory)
            except Exception as exc:
                outcome = ("err", exc, traceback.format_exc())
        if outcome[0] == "ok":
            # every halted point of a kernel ends in the oracle's image:
            # an image equal to the kernel's first takes that array, so
            # the call holds (and a pool chunk pickles) one copy
            res = outcome[1]
            image = images.setdefault((task.workload, task.scale),
                                      res.final_memory)
            if image is not res.final_memory and image == res.final_memory:
                res.final_memory = image
            _STREAM_STATS["lockstep"] += 1
            store_task(task, res)
        yield task, outcome


def batch_stats() -> dict:
    """Engine counters, plus the ``kernels`` gauge (tests/benchmarks)."""
    return {"kernels": len(_KERNELS), **_STREAM_STATS}


def clear_streams() -> None:
    """Drop cached kernels and expansion metadata and reset counters
    (tests)."""
    _KERNELS.clear()
    clear_stream_meta()
    for k in _STREAM_STATS:
        _STREAM_STATS[k] = 0


__all__ = [
    "batch_stats",
    "build_replay_system",
    "clear_streams",
    "get_stream",
    "iter_outcomes",
    "resolve_config",
]
