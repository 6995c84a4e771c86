"""Hypothesis differential: the per-instance replay path is bit-identical
to the interpreter.

Under ``engine="fast"`` a sweep point whose column instance bails
finishes on :class:`~repro.batch.replay.ReplayCore`, one instance at a
time - the path every evictee takes. Forcing every
instance out at event 0 (the scheduler's ``BAIL_HOOK`` seam) leaves the
column empty, so nothing rejoins and whole randomized grids - kernel
subsets, design subsets, power condition, workload scale, instruction
budget - run on that path alone. Each grid runs twice, once with
``engine="reference"`` on the interpreter and once this way, and every
:class:`~repro.sim.results.RunResult` field is compared exactly
(including the float energy breakdown, which is sensitive to chunk
boundaries and therefore the sharpest bit-identity probe the simulator
has).

The grid shape matters more than the kernel count: mixed design
families (NVCache-WB records separately) and repeated (workload,
design) cells across conditions exercise the engine's grouping and
cache paths differently, so the strategies draw the *shape*, not just
the points.

``tests/test_engine_differential.py`` covers the columns themselves,
with random bail points; this module pins the replay half on its own.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.lockstep.scheduler as scheduler
from repro.batch import clear_streams
from repro.lockstep.scheduler import clear_lockstep_stats, lockstep_stats
from repro.sim.sweep import run_grid

#: small, fast kernels covering both suites and both store densities
_APPS = ("sha", "qsort", "adpcmdecode", "dijkstra")
#: includes both recording families (NVCache-WB folds ifetch_extra into
#: its costs) and a design whose stores never hit inline (VCache-WT)
_DESIGNS = ("WL-Cache", "NVCache-WB", "VCache-WT", "NVSRAM(ideal)")


@st.composite
def grid_st(draw):
    apps = draw(st.lists(st.sampled_from(_APPS), min_size=1, max_size=2,
                         unique=True))
    designs = draw(st.lists(st.sampled_from(_DESIGNS), min_size=1,
                            max_size=3, unique=True))
    trace = draw(st.sampled_from([None, "trace1", "trace2"]))
    scale = draw(st.sampled_from([0.1, 0.15]))
    overrides = {}
    if draw(st.booleans()):
        # a tight budget exercises the group-budget plumbing (and, when
        # it truncates the kernel, the error path must match exactly)
        overrides["max_instructions"] = draw(
            st.sampled_from([200_000, 1_000_000]))
    return apps, designs, trace, scale, overrides


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid_st())
def test_batched_grid_bit_identical_to_serial(grid):
    apps, designs, trace, scale, overrides = grid
    clear_streams()
    try:
        ref = run_grid(apps, designs, trace, jobs=1, scale=scale,
                       engine="reference", **overrides)
        ref_err = None
    except Exception as exc:  # budget truncation must match too
        ref, ref_err = None, (type(exc), str(exc))
    clear_lockstep_stats()
    scheduler.BAIL_HOOK = lambda task: 0
    try:
        bat = run_grid(apps, designs, trace, jobs=1, scale=scale,
                       engine="fast", **overrides)
        bat_err = None
    except Exception as exc:
        bat, bat_err = None, (type(exc), str(exc))
    finally:
        scheduler.BAIL_HOOK = None
    assert ref_err == bat_err
    if ref_err is not None:
        return
    # every point left its column before the first event
    assert lockstep_stats()["evictions"] == len(ref)
    assert lockstep_stats()["rejoins"] == 0
    assert ref.keys() == bat.keys()
    for key in ref:
        a, b = ref[key], bat[key]
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), \
                f"{key}: RunResult.{f.name} diverged"
