"""Process-pool execution of simulation sweeps.

A sweep grid (workload x design x trace) is embarrassingly parallel: every
run builds its own System, NVM image, and power trace, and traces are
re-seeded deterministically per run (``make_trace(name, seed)``), so a
parallel sweep is *bit-identical* to the serial one - the tests enforce
RunResult equality. Workers receive only ``(workload name, scale)`` and
rebuild the program image locally, which keeps task pickles small and the
per-process workload cache warm across the tasks of a chunk.

Worker counts resolve as: explicit ``jobs`` argument, then the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``. ``jobs=1``
runs serially in-process (no pool, easy tracebacks).

A worker never lets an exception escape as a bare pool error: failures are
shipped back as records and re-raised here as :class:`~repro.errors.
SweepError` naming every failing ``(workload, design, trace)`` tuple. A
hard worker crash (segfault, OOM-kill) breaks the pool; the in-flight
chunks' tasks are reported the same way instead of hanging the sweep.
"""

from __future__ import annotations

import os
import traceback
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.batch.engine import (CACHE_DIR_ENV as _STREAM_CACHE_ENV,
                                ENV_VAR as _BATCH_ENV, absorb_stats,
                                batch_stats, maybe_run_batched,
                                maybe_run_chunk_batched,
                                task_batch_eligible)
from repro.errors import ConfigError, SweepError
from repro.lint.invariants import ENV_VAR as _CHECK_ENV
from repro.lockstep import ENV_VAR as _LOCKSTEP_ENV
from repro.obs.recorder import ENV_VAR as _TRACE_ENV
from repro.sim.config import SimConfig
from repro.sim.factory import run_one, validate_design
from repro.sim.results import RunResult
from repro.store.core import ENV_VAR as _STORE_ENV
from repro.store.core import absorb_store_stats, store_stats
from repro.store.results import ENV_VAR as _RESULT_CACHE_ENV
from repro.store.results import lookup_task, store_task
from repro.workloads import build_workload, get_workload, verify_checks

#: ``progress(done, total, (workload, design))`` - called in the parent
#: process after each finished run, in completion (not submission) order.
ProgressFn = Callable[[int, int, tuple[str, str]], None]


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
    """Execute one task in this process (worker body; also the serial path).

    With result memoization on (:mod:`repro.store.results`), a persisted
    result for this exact task is returned without simulating, and a
    fresh result is persisted on the way out (after verification, so the
    entry can vouch for later ``verify=True`` lookups)."""
    memo = lookup_task(task)
    if memo is not None:
        return memo
    prog = build_workload(task.workload, task.scale)
    res = run_one(prog, task.design, task.trace, task.config,
                  **task.overrides)
    if task.verify:
        verify_checks(prog, res.final_memory)
    store_task(task, res)
    return res


def _init_worker(check_env: str | None, trace_env: str | None,
                 batch_env: str | None = None,
                 lockstep_env: str | None = None,
                 stream_cache_env: str | None = None,
                 store_env: str | None = None,
                 result_cache_env: str | None = None) -> None:
    """Worker initializer: re-export the instrumentation switches.

    Pools spawned with a non-fork start method begin from a fresh
    interpreter whose environment may not mirror the parent's, so the
    invariant-checking (REPRO_CHECK), tracing (REPRO_TRACE), batch
    (REPRO_BATCH), and lockstep (REPRO_LOCKSTEP) switches are shipped
    explicitly - a checked/traced/batched parallel sweep must apply
    them in every worker, not just the parent. The persistent artifact store
    switches ride along too - the store root (REPRO_CACHE_DIR and its
    legacy alias REPRO_STREAM_CACHE) and the result memo
    (REPRO_RESULT_CACHE) - so campaign shards record each kernel, render
    each source, and simulate each point once across *processes*. The
    worker's process-global record-mode code cache and guest-stream
    cache then warm once and serve all the tasks the worker executes.
    """
    for var, value in ((_CHECK_ENV, check_env), (_TRACE_ENV, trace_env),
                       (_BATCH_ENV, batch_env),
                       (_LOCKSTEP_ENV, lockstep_env),
                       (_STREAM_CACHE_ENV, stream_cache_env),
                       (_STORE_ENV, store_env),
                       (_RESULT_CACHE_ENV, result_cache_env)):
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def worker_initargs() -> tuple:
    """The environment-switch values shipped to pool-worker initializers.

    Shared by :func:`run_tasks` and the Monte-Carlo campaign engine
    (:mod:`repro.mc.engine`), which runs the same worker body over its
    own point keying.
    """
    return (os.environ.get(_CHECK_ENV), os.environ.get(_TRACE_ENV),
            os.environ.get(_BATCH_ENV), os.environ.get(_LOCKSTEP_ENV),
            os.environ.get(_STREAM_CACHE_ENV), os.environ.get(_STORE_ENV),
            os.environ.get(_RESULT_CACHE_ENV))


def _run_chunk(chunk: list[SweepTask]) -> list[tuple]:
    """Worker entry: run a chunk, converting exceptions to records.

    The chunk's records are followed by one trailing ``("stats",
    delta)`` record carrying this chunk's batch-engine counter deltas
    (recordings, cache hits, disk hits) plus, under the ``"store"``
    key, the chunk's persistent-store event deltas; the parent folds
    them back with :func:`repro.batch.engine.absorb_stats` /
    :func:`repro.store.absorb_store_stats` so sweep-wide cache
    behaviour stays observable under the pool."""
    pre = batch_stats()
    pre_store = store_stats()
    records = maybe_run_chunk_batched(chunk, run_task)
    if records is None:
        records = []
        for task in chunk:
            try:
                records.append(("ok", run_task(task)))
            except Exception as exc:  # shipped home, raised as SweepError
                records.append(("err", type(exc).__name__, str(exc),
                                traceback.format_exc()))
    post = batch_stats()
    delta = {k: post[k] - pre.get(k, 0)
             for k in post if k not in ("streams", "raw_recordings")}
    post_store = store_stats()
    delta["store"] = {k: post_store[k] - pre_store.get(k, 0)
                      for k in post_store}
    records.append(("stats", delta))
    return records


def _pop_stats(records: list[tuple]) -> list[tuple]:
    """Absorb and strip a chunk's trailing stats record, if present."""
    if records and records[-1][0] == "stats":
        delta = records[-1][1]
        absorb_store_stats(delta.get("store", {}))
        absorb_stats(delta)
        return records[:-1]
    return records


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
             align_batches: bool = False) -> list[list[SweepTask]]:
    """Split tasks into contiguous chunks, ~4 per worker for load balance.

    With ``align_batches`` the cuts land only where ``(workload, scale)``
    changes (tasks arrive workload-major), so a batch group is never torn
    across workers - a torn group records its kernel once per worker.
    """
    n = max(1, -(-len(tasks) // (jobs * 4)))
    if not align_batches:
        return [tasks[i:i + n] for i in range(0, len(tasks), n)]
    chunks: list[list[SweepTask]] = []
    cur: list[SweepTask] = []
    for i, task in enumerate(tasks):
        cur.append(task)
        nxt = tasks[i + 1] if i + 1 < len(tasks) else None
        at_block_end = nxt is None or (
            (nxt.workload, nxt.scale) != (task.workload, task.scale))
        if at_block_end and len(cur) >= n:
            chunks.append(cur)
            cur = []
    if cur:
        chunks.append(cur)
    return chunks


def _raise_failures(failures: list[tuple], nworkers: int) -> None:
    where = tuple(f[0] for f in failures)
    head = failures[0]
    detail = head[3] if head[2] is None else f"{head[1]}: {head[2]}"
    raise SweepError(
        f"{len(failures)} of the sweep's runs failed across {nworkers} "
        f"workers; first failure in (workload={head[0][0]!r}, "
        f"design={head[0][1]!r}, trace={head[0][2]!r}): {detail}",
        failures=where)


def run_tasks(tasks: list[SweepTask], jobs: int | None = None,
              progress: ProgressFn | None = None
              ) -> dict[tuple[str, str], RunResult]:
    """Run tasks, serially or on a process pool; results in task order.

    Results are keyed and ordered by ``(workload, design)`` exactly as the
    serial loop would produce them, whatever order workers finish in.
    """
    jobs = resolve_jobs(jobs)
    total = len(tasks)
    if jobs <= 1 or total < 2:
        out = maybe_run_batched(tasks, run_task, progress)
        if out is not None:
            return out
        out = {}
        for i, task in enumerate(tasks):
            out[task.key] = run_task(task)
            if progress is not None:
                progress(i + 1, total, task.key)
        return out

    batching = any(task_batch_eligible(t) for t in tasks)
    chunks = _chunked(tasks, jobs, align_batches=batching)
    by_task: dict[tuple[str, str], RunResult] = {}
    # (where, exc_name | None, msg | None, detail) records
    failures: list[tuple] = []
    done = 0
    with ProcessPoolExecutor(max_workers=min(jobs, total),
                             initializer=_init_worker,
                             initargs=worker_initargs()) as pool:
        futures = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for fut in finished:
                chunk = futures[fut]
                try:
                    records = fut.result()
                except BrokenProcessPool:
                    # a worker died without reporting; blame its chunk
                    for task in chunk:
                        failures.append((task.where, None, None,
                                         "worker process crashed "
                                         "(pool broken)"))
                    continue
                records = _pop_stats(records)
                for task, rec in zip(chunk, records):
                    if rec[0] == "ok":
                        by_task[task.key] = rec[1]
                        done += 1
                        if progress is not None:
                            progress(done, total, task.key)
                    else:
                        failures.append((task.where, rec[1], rec[2], rec[3]))
    if failures:
        _raise_failures(failures, jobs)
    return {task.key: by_task[task.key] for task in tasks}


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
