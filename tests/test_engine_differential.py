"""Hypothesis differential: the fast engine is bit-identical to the
reference engine.

Randomized small grids - kernel subsets, design subsets spanning every
engine shape (wl/wb fast stores, the wt and rc inline stores, call) and
both recording families (NVCache-WB folds ``nvcache_ifetch_extra`` into
its costs), power condition (named and stochastic traces), scale,
instruction budget, WL-Cache's dynamic maxline policy - run twice, once
with ``SimConfig(engine="reference")`` on the interpreter and once with
``engine="fast"`` on generated per-point engines, and every
:class:`~repro.sim.results.RunResult` field is compared exactly
(including the float energy breakdown, which is sensitive to chunk
boundaries and therefore the sharpest bit-identity probe the simulator
has). Traced and untraced points render different capacitor
accounting blocks, so the condition draw covers both epilogues.

Every example also draws a cache geometry (512/1024/2048 B, 16/32/64 B
lines, 1/2/4-way, so every cache holds at least 8 lines), a replacement
policy (LRU/FIFO), WL-Cache thresholds (``maxline`` 2/4/6 with
``waterline = maxline - 1``) and ReplayCache's persist queue depth
(2/8) and region length (3/8/64 stores). The engine bakes each
geometry's shift and masks into its source and inlines the LRU stamp,
the below-waterline insert and the persist queue's stall, so these
draws check every specialization of the inline hit path against the
interpreter.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import clear_streams
from repro.mem.setassoc import CacheGeometry
from repro.sim.sweep import run_grid

_APPS = ("sha", "qsort", "adpcmdecode", "dijkstra")
#: every engine shape: wl, wb (two cost families), wt, rc, call
_DESIGNS = ("WL-Cache", "NVCache-WB", "VCache-WT", "ReplayCache",
            "NVSRAM(ideal)", "WT+Buffer")


@st.composite
def grid_st(draw):
    apps = draw(st.lists(st.sampled_from(_APPS), min_size=1, max_size=2,
                         unique=True))
    designs = draw(st.lists(st.sampled_from(_DESIGNS), min_size=1,
                            max_size=3, unique=True))
    trace = draw(st.sampled_from([None, "trace1", "trace2", "trace3",
                                  "mc-rf-office"]))
    scale = draw(st.sampled_from([0.1, 0.15]))
    maxline = draw(st.sampled_from([2, 4, 6]))
    overrides = {
        "geometry": CacheGeometry(
            size_bytes=draw(st.sampled_from([512, 1024, 2048])),
            assoc=draw(st.sampled_from([1, 2, 4])),
            line_bytes=draw(st.sampled_from([16, 32, 64]))),
        "cache_replacement": draw(st.sampled_from(["lru", "fifo"])),
        "maxline": maxline,
        "waterline": maxline - 1,
        # the policy reads the capacitor from inside a store
        "dynamic": draw(st.booleans()),
        # ReplayCache's queue-full stall runs only with a queue
        # shallower than a region
        "persist_depth": draw(st.sampled_from([2, 8])),
        "region_stores": draw(st.sampled_from([3, 8, 64])),
    }
    if draw(st.booleans()):
        # a tight budget exercises the group-budget plumbing (and, when
        # it truncates the kernel, the error path must match exactly)
        overrides["max_instructions"] = draw(
            st.sampled_from([200_000, 1_000_000]))
    return apps, designs, trace, scale, overrides


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid_st())
def test_fast_engine_grid_bit_identical_to_reference(grid):
    apps, designs, trace, scale, overrides = grid
    clear_streams()
    try:
        ref = run_grid(apps, designs, trace, jobs=1, scale=scale,
                       engine="reference", **overrides)
        ref_err = None
    except Exception as exc:  # budget truncation must match too
        ref, ref_err = None, (type(exc), str(exc))
    try:
        fast = run_grid(apps, designs, trace, jobs=1, scale=scale,
                        engine="fast", **overrides)
        fast_err = None
    except Exception as exc:
        fast, fast_err = None, (type(exc), str(exc))
    assert ref_err == fast_err
    if ref_err is not None:
        return
    assert ref.keys() == fast.keys()
    for key in ref:
        a, b = ref[key], fast[key]
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), \
                f"{key}: RunResult.{f.name} diverged"
