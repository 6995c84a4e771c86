"""Hypothesis differential: whole randomized grids on the fast engine are
bit-identical to the reference engine, one generated engine per point.

Under ``engine="fast"`` every recorded point runs alone on an engine
rendered for it. Randomized grids - kernel subsets, design subsets,
power condition, workload scale, instruction budget - run twice, once
with ``engine="reference"`` on the interpreter and once on the fast
engine, and every :class:`~repro.sim.results.RunResult` field is
compared exactly (including the float energy breakdown, which is
sensitive to chunk boundaries and therefore the sharpest bit-identity
probe the simulator has); the fast run must start one engine per point.

The grid shape matters more than the kernel count: mixed design
families (NVCache-WB records separately) and repeated (workload,
design) cells across conditions exercise the engine's grouping and
cache paths differently, so the strategies draw the *shape*, not just
the points.

``tests/test_engine_differential.py`` draws cache geometries and
thresholds on top; this module keeps the default geometry and draws
the grid shape.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    try:
        bat = run_grid(apps, designs, trace, jobs=1, scale=scale,
                       engine="fast", **overrides)
        bat_err = None
    except Exception as exc:
        bat, bat_err = None, (type(exc), str(exc))
    assert ref_err == bat_err
    if ref_err is not None:
        return
    stats = lockstep_stats()
    assert stats["columns"] == stats["instances"] == len(ref)
    assert ref.keys() == bat.keys()
    for key in ref:
        a, b = ref[key], bat[key]
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), \
                f"{key}: RunResult.{f.name} diverged"
