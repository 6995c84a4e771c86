"""Sweep helpers: run program x design x trace grids and collect results.

The benchmark harness is built on these. ``REPRO_BENCH_SCALE`` (env var)
scales workload sizes globally; the paper's trace names ('trace1',
'trace2', 'trace3', 'solar', 'thermal') or None (no failures) select the
power condition.

Grids run serially by default; pass ``jobs`` or set ``REPRO_JOBS`` to fan
out over a process pool (see :mod:`repro.sim.parallel`) - the parallel
results are bit-identical to the serial ones.

Grids are also where the fast engine pays off: ``engine="fast"`` (or
``REPRO_ENGINE=fast`` under an unset engine) records each kernel's
architectural stream once and replays it for every grid point of the
kernel, each on its own generated engine, bit-identically (see
:mod:`repro.batch` and ``docs/batch.md``).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable

from repro.errors import ConfigError
from repro.sim.config import BASELINE_DESIGN, DESIGNS, SimConfig
from repro.sim.parallel import ProgressFn, make_tasks, resolve_jobs, run_tasks
from repro.sim.results import RunResult


def bench_scale(default: float = 1.0) -> float:
    """Workload scale for benchmarks, overridable via REPRO_BENCH_SCALE."""
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    try:
        scale = float(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_BENCH_SCALE must be a number (workload size "
            f"multiplier, e.g. 0.5), got {raw!r}") from None
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(
            f"REPRO_BENCH_SCALE must be > 0 and finite, got {scale!r}")
    return scale


def run_grid(workloads: Iterable[str] | None = None,
             designs: Iterable[str] = DESIGNS,
             trace: str | None = "trace1",
             config: SimConfig | None = None,
             scale: float | None = None,
             verify: bool = True,
             jobs: int | None = None,
             progress: ProgressFn | None = None,
             **overrides) -> dict[tuple[str, str], RunResult]:
    """Run every (workload, design) pair; returns results keyed by the pair.

    Every run gets a fresh trace instance (same seed), so designs see
    identical harvesting conditions - and so the grid parallelizes without
    changing a single bit of any result. ``jobs`` (default: ``REPRO_JOBS``,
    else serial) selects the worker count; ``progress`` is called after
    each finished run as ``progress(done, total, (workload, design))``.
    """
    from repro.workloads import ALL_WORKLOADS

    workloads = (list(workloads) if workloads is not None
                 else list(ALL_WORKLOADS))
    scale = bench_scale() if scale is None else scale
    tasks = make_tasks(workloads, designs, trace, config, scale, verify,
                       overrides)
    return run_tasks(tasks, jobs=resolve_jobs(jobs, fallback=1),
                     progress=progress)


def speedups_vs_baseline(results: dict[tuple[str, str], RunResult],
                         baseline: str = BASELINE_DESIGN
                         ) -> dict[tuple[str, str], float]:
    """Normalized speedup of each run against the baseline on the same app."""
    out = {}
    for (wname, design), res in results.items():
        base = results.get((wname, baseline))
        if base is None:
            raise ConfigError(
                f"cannot normalize {wname!r} against {baseline!r}: the "
                f"results grid has no ({wname!r}, {baseline!r}) run - "
                f"include the baseline design in the sweep or pass "
                f"baseline=<design> explicitly")
        out[(wname, design)] = base.total_time_ns / res.total_time_ns
    return out
