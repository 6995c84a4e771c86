"""The sweep driver: run tasks serially or on a process pool.

A sweep grid (workload x design x trace) is embarrassingly parallel: every
run builds its own System, NVM image, and power trace, and traces are
re-seeded deterministically per run (``make_trace(name, seed)``), so a
parallel sweep is *bit-identical* to the serial one - the tests enforce
RunResult equality. Workers receive only ``(workload name, scale)`` and
rebuild the program image locally, which keeps task pickles small and the
per-process workload cache warm across the tasks of a chunk.

:func:`run_tasks` is the one driver every sweep and campaign goes
through. Results come back keyed by caller-supplied point keys (default
``task.key``) in task order; serial and pooled runs both execute through
:func:`repro.batch.engine.iter_outcomes`, which puts fast-engine points
on generated lockstep engines and every other point on the
interpreter.

Worker counts resolve as: explicit ``jobs`` argument, then the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``. ``jobs=1``
runs serially in-process (no pool, easy tracebacks).

A worker never lets an exception escape as a bare pool error: failures are
shipped back as records and re-raised here as :class:`~repro.errors.
SweepError` naming every failing point. A hard worker crash (segfault,
OOM-kill) breaks the pool; the in-flight chunks' tasks are reported the
same way instead of hanging the sweep.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Hashable, Iterable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.batch.engine import iter_outcomes, resolve_config
from repro.errors import ConfigError, SweepError
from repro.sim.config import SimConfig
from repro.sim.factory import run_one, runs_fast, validate_design
from repro.sim.results import RunResult
from repro.store.results import lookup_task, store_task
from repro.workloads import build_workload, get_workload, verify_checks

#: ``progress(done, total, key)`` - called in the parent process after
#: each finished run, in completion (not submission) order, with the
#: run's point key (``(workload, design)`` unless the caller keys it); a
#: pooled run reports a chunk's runs as soon as that chunk returns.
ProgressFn = Callable[[int, int, Hashable], None]


def resolve_jobs(jobs: int | None = None, *,
                 fallback: int | None = None) -> int:
    """Resolve a worker count: ``jobs`` > ``REPRO_JOBS`` > fallback/cores.

    Returns at least 1. ``fallback=None`` means "all cores" (the
    :func:`run_grid_parallel` default); :func:`repro.sim.sweep.run_grid`
    passes ``fallback=1`` so plain calls stay serial unless opted in.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_JOBS must be an integer worker count, "
                    f"got {env!r}") from None
        else:
            jobs = fallback if fallback is not None else os.cpu_count() or 1
    return max(1, jobs)


@dataclass(frozen=True)
class SweepTask:
    """One run of the grid, as shipped to a worker process.

    The program is identified by name+scale (rebuilt in the worker), not
    embedded: workload images are hundreds of KB and deterministic.
    """

    workload: str
    design: str
    trace: str | None
    scale: float
    verify: bool
    config: SimConfig | None
    overrides: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.workload, self.design)

    @property
    def where(self) -> tuple[str, str, str | None]:
        return (self.workload, self.design, self.trace)


def run_task(task: SweepTask) -> RunResult:
    """Run one task in this process on the interpreter: the persisted
    result when memoization (:mod:`repro.store.results`) has one, else
    :func:`simulate_task`."""
    memo = lookup_task(task)
    return memo if memo is not None else simulate_task(task)


def simulate_task(task: SweepTask) -> RunResult:
    """Simulate one task on the interpreter, without consulting the
    result memo - the driver's slow path, whose memo lookup already
    happened in :func:`~repro.batch.engine.iter_outcomes`. The fresh
    result is persisted on the way out (after verification, so the
    entry can vouch for later ``verify=True`` lookups)."""
    prog = build_workload(task.workload, task.scale)
    res = run_one(prog, task.design, task.trace, task.config,
                  **task.overrides)
    if task.verify:
        verify_checks(prog, res.final_memory)
    store_task(task, res)
    return res


def worker_initargs() -> dict[str, str]:
    """The parent's ``REPRO_*`` variables, shipped to every pool worker
    (:func:`_init_worker`), so a switch set in the parent - the engine,
    tracing, checking, the store root, the result memo - applies in
    every worker, whatever the pool's start method."""
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def _init_worker(env: dict[str, str]) -> None:
    """Worker initializer: mirror the parent's ``REPRO_*`` variables
    exactly - set each one, and drop any the parent does not set. The
    worker's process-global record-mode code cache and guest-stream
    cache then warm once and serve all the tasks it executes."""
    for var in [k for k in os.environ if k.startswith("REPRO_")]:
        if var not in env:
            del os.environ[var]
    os.environ.update(env)


def _counter_groups() -> dict[str, dict[str, int]]:
    """The live event-counter dicts a pool chunk ships home, by group.
    The cache-size gauge (``batch_stats()``'s ``kernels``) is not in
    them: it describes a worker's cache, not the sweep."""
    from repro.batch import engine
    from repro.lockstep import scheduler
    from repro.store import core

    return {"batch": engine._STREAM_STATS, "store": core._STATS,
            "lockstep": scheduler._STATS}


def absorb_counters(delta: dict[str, dict]) -> None:
    """Fold a chunk's ``{group: {counter: delta}}`` record into this
    process's counters (nonzero ints only)."""
    groups = _counter_groups()
    for group, counts in delta.items():
        live = groups[group]
        for key, value in counts.items():
            if isinstance(value, int) and value:
                live[key] = live.get(key, 0) + value


def _run_chunk(chunk: list[SweepTask]) -> list[tuple]:
    """Worker entry: run a chunk, converting exceptions to records.

    Returns one record per task in chunk order - ``("ok", result)`` or
    ``("err", exc type name, message, traceback)`` - followed by one
    trailing ``("stats", delta)`` record carrying this chunk's counter
    deltas per group (batch engine, store, lockstep scheduler); the
    parent folds them back with :func:`absorb_counters`, so sweep-wide
    counters stay observable under the pool."""
    pre = {g: dict(c) for g, c in _counter_groups().items()}
    records: list[tuple] = []
    for _task, outcome in iter_outcomes(chunk, simulate_task):
        if outcome[0] == "ok":
            records.append(outcome)
        else:
            exc = outcome[1]
            records.append(("err", type(exc).__name__, str(exc),
                            outcome[2]))
    delta = {g: {k: v - pre[g].get(k, 0) for k, v in c.items()}
             for g, c in _counter_groups().items()}
    records.append(("stats", delta))
    return records


def _pop_stats(records: list[tuple]) -> list[tuple]:
    """Absorb and strip a chunk's trailing stats record."""
    absorb_counters(records[-1][1])
    return records[:-1]


def make_tasks(workloads: Iterable[str],
               designs: Iterable[str],
               trace: str | None,
               config: SimConfig | None,
               scale: float,
               verify: bool,
               overrides: dict) -> list[SweepTask]:
    """Expand a grid into validated tasks (workload-major, serial order)."""
    designs = [validate_design(d) for d in designs]
    tasks = []
    for wname in workloads:
        get_workload(wname)  # fail fast on unknown names
        for design in designs:
            tasks.append(SweepTask(wname, design, trace, scale, verify,
                                   config, dict(overrides)))
    return tasks


def _chunked(tasks: list[SweepTask], jobs: int,
             align_batches: bool = False) -> list[list[int]]:
    """Split task indices into chunks of ``n`` or more, ~4 per worker.

    ``n = ceil(len(tasks) / (4 * jobs))``. Without ``align_batches`` the
    chunks are contiguous runs of ``n``. With it, tasks are taken in
    ``(workload, scale)`` blocks (tasks arrive workload-major): blocks
    smaller than ``2n`` pack whole, in order, into chunks of at least
    ``n``; a block of at least ``2n`` is dealt round-robin into
    ``k = len(block) // n`` chunks of its own, chunk ``j`` taking the
    block's tasks ``j, j+k, j+2k, ...``. Each dealt chunk then carries
    the block's design x family x seed mix in the same order, so every
    chunk of a kernel runs the same engines and costs the same. Every
    index appears once, ascending within its chunk.
    """
    n = max(1, -(-len(tasks) // (jobs * 4)))
    if not align_batches:
        return [list(range(i, min(i + n, len(tasks))))
                for i in range(0, len(tasks), n)]
    chunks: list[list[int]] = []
    cur: list[int] = []
    start = 0
    for i, task in enumerate(tasks):
        nxt = tasks[i + 1] if i + 1 < len(tasks) else None
        if nxt is not None and (
                (nxt.workload, nxt.scale) == (task.workload, task.scale)):
            continue
        block = range(start, i + 1)
        start = i + 1
        if len(block) >= 2 * n:
            k = len(block) // n
            chunks.extend(list(block[j::k]) for j in range(k))
            continue
        cur.extend(block)
        if len(cur) >= n:
            chunks.append(cur)
            cur = []
    if cur:
        chunks.append(cur)
    return chunks


def _share_images(tasks: list[SweepTask], fast: list[bool],
                  chunk: list[int], records: list[tuple],
                  kept: dict[tuple, object]) -> None:
    """Give a returned chunk's fast-engine results the image ``kept``
    holds for their ``(workload, scale)`` where it is equal, so a kernel
    dealt over several chunks still holds one image in the parent.

    A chunk hands a kernel's equal images one array, so each distinct
    array of the chunk is compared once; the first one seen for a block
    is kept. Reference-engine results keep their private images.
    """
    # id(array) -> (array, its replacement); the array stays referenced
    # so its id cannot be reused while the chunk is walked
    seen: dict[int, tuple] = {}
    for i, rec in zip(chunk, records):
        if rec[0] != "ok" or not fast[i]:
            continue
        res = rec[1]
        image = res.final_memory
        if id(image) not in seen:
            same = kept.setdefault((tasks[i].workload, tasks[i].scale),
                                   image)
            seen[id(image)] = (
                image, same if same is image or same == image else image)
        res.final_memory = seen[id(image)][1]


def _fast(task: SweepTask) -> bool:
    """The task runs on the fast engine. Invalid overrides are the run
    path's error to raise (attributed to the failing run); a malformed
    ``REPRO_ENGINE`` raises here."""
    try:
        config = resolve_config(task)
    except Exception:
        return False
    return runs_fast(config)


def run_tasks(tasks: list[SweepTask], jobs: int | None = None,
              progress: ProgressFn | None = None,
              keys: list[Hashable] | None = None) -> dict:
    """Run tasks, serially or on a process pool; results in task order.

    Results are keyed by ``keys`` (one per task; default ``task.key``)
    and ordered as the tasks are, whatever order workers finish in;
    ``progress`` receives the same keys. A serial run re-raises the
    first failure unchanged. A pool raises one :class:`SweepError`
    whose ``failures`` name every failing point by its key - or, under
    the default keys, by ``task.where``.

    A pool runs the index chunks of :func:`_chunked` (wide kernel
    blocks dealt round-robin when any task runs on the fast engine) and
    maps each chunk's records, progress and crash blame back through
    its index list. Fast-engine results then take the first equal image
    this call kept for their kernel (:func:`_share_images`), so a dealt
    kernel holds one image here as in a serial run.
    """
    names = keys if keys is not None else [t.where for t in tasks]
    keys = keys if keys is not None else [t.key for t in tasks]
    jobs = resolve_jobs(jobs)
    total = len(tasks)
    # probing every task up front makes a malformed REPRO_ENGINE raise
    # before any run, serial or pooled
    fast = [_fast(t) for t in tasks]
    results: list = [None] * total
    done = 0
    if jobs <= 1 or total < 2:
        for i, (_task, outcome) in enumerate(
                iter_outcomes(tasks, simulate_task)):
            if outcome[0] != "ok":
                raise outcome[1]
            results[i] = outcome[1]
            done += 1
            if progress is not None:
                progress(done, total, keys[i])
        return dict(zip(keys, results))

    # (name, exc_name | None, msg | None, detail) records
    failures: list[tuple] = []
    # (workload, scale) -> the first fast-engine image this call kept
    kept: dict[tuple, object] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, total),
                             initializer=_init_worker,
                             initargs=(worker_initargs(),)) as pool:
        futures = {pool.submit(_run_chunk, [tasks[i] for i in chunk]): chunk
                   for chunk in _chunked(tasks, jobs, any(fast))}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                chunk = futures[fut]
                try:
                    records = _pop_stats(fut.result())
                except BrokenProcessPool:
                    # a worker died without reporting; blame its chunk
                    failures.extend((names[i], None, None,
                                     "worker process crashed "
                                     "(pool broken)") for i in chunk)
                    continue
                _share_images(tasks, fast, chunk, records, kept)
                for i, rec in zip(chunk, records):
                    if rec[0] == "ok":
                        results[i] = rec[1]
                        done += 1
                        if progress is not None:
                            progress(done, total, keys[i])
                    else:
                        failures.append((names[i], rec[1], rec[2], rec[3]))
    if failures:
        head = failures[0]
        detail = head[3] if head[2] is None else f"{head[1]}: {head[2]}"
        raise SweepError(
            f"{len(failures)} of {total} runs failed across {jobs} "
            f"workers; first failure at {head[0]!r}: {detail}",
            failures=tuple(f[0] for f in failures))
    return dict(zip(keys, results))


def run_grid_parallel(workloads: Iterable[str],
                      designs: Iterable[str],
                      trace: str | None = "trace1",
                      config: SimConfig | None = None,
                      scale: float = 1.0,
                      verify: bool = True,
                      jobs: int | None = None,
                      progress: ProgressFn | None = None,
                      **overrides) -> dict[tuple[str, str], RunResult]:
    """Parallel twin of :func:`repro.sim.sweep.run_grid`.

    Bit-identical to the serial sweep (enforced by
    ``tests/test_parallel.py``); ``jobs=None`` means ``REPRO_JOBS`` or all
    cores.
    """
    tasks = make_tasks(list(workloads), designs, trace, config, scale,
                       verify, overrides)
    return run_tasks(tasks, jobs=jobs, progress=progress)
