"""Structural tests of the memsys fast path: attach/detach/refusal rules,
the observability pecking order, and RunResult equality.

The bit-level differential over randomized access sequences lives in
``tests/test_memfast_differential.py``; this file pins the *engagement*
rules: which designs get which handlers, when the fast tier must
silently stand down (trace recorder and invariant checker always win),
that detaching restores the pristine design, and that the handlers plus
the chunk-end flush of :func:`attach_memfast` leave every run's result
unchanged. Batch replay is the tier's only production caller
(``tests/test_batch.py``); the whole-run tests here attach it to an
interpreter system so the handlers are checked apart from replay.
"""

from __future__ import annotations

import os

import pytest

from repro.memfast import attach_design, attach_memfast, detach_design
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.factory import build_system, run_one
from repro.workloads import ALL_WORKLOADS, build_workload

#: designs the fast tier fully engages on (fast loads + fast stores)
FAST_STORE_SHAPES = {
    "WL-Cache": "wl",
    "WL-Cache(eager)": "wl",
    "NVSRAM(ideal)": "wb",
    "NVSRAM(full)": "wb",
    "NVCache-WB": "wb",
}
#: designs that get fast loads but keep bracketed slow stores
LOAD_ONLY = ("VCache-WT", "ReplayCache")
#: designs the tier refuses outright (custom load path or no array)
REFUSED = ("NoCache", "WT+Buffer", "NVSRAM(practical)")


def _system(design="WL-Cache"):
    return build_system(build_workload("sha", 0.2), design)


# ---------------------------------------------------------------------------
# attach / detach / refusal rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("design,shape", sorted(FAST_STORE_SHAPES.items()))
def test_fast_store_families(design, shape):
    system = _system(design)
    state = attach_design(system.design)
    assert state is not None and state.fast_store
    assert state.store_shape == shape


@pytest.mark.parametrize("design", LOAD_ONLY)
def test_load_only_designs_attach_with_slow_stores(design):
    system = _system(design)
    state = attach_design(system.design)
    assert state is not None and not state.fast_store
    assert state.store_shape is None
    # the installed store is the bracketed slow path, not a fast handler
    assert "store" in vars(system.design)
    assert not hasattr(system.design.store, "_memfast_source")


@pytest.mark.parametrize("design", REFUSED)
def test_ineligible_designs_are_refused(design):
    system = _system(design)
    assert attach_design(system.design) is None
    assert not hasattr(system.design, "_memfast_state")


def test_attach_is_idempotent():
    system = _system()
    s1 = attach_design(system.design)
    s2 = attach_design(system.design)
    assert s1 is s2


def test_detach_restores_pristine_design():
    system = _system()
    m = system.design
    before = set(vars(m))
    assert attach_design(m) is not None
    assert {"load", "store", "store_masked"} <= set(vars(m))
    assert detach_design(m) is True
    assert set(vars(m)) == before  # every shadow removed, nothing leaked
    assert detach_design(m) is False  # second detach is a no-op


def test_refuses_when_methods_are_shadowed():
    system = _system()
    m = system.design
    orig = m.load
    m.load = lambda addr, now: orig(addr, now)  # recorder-style shadow
    assert attach_design(m) is None


# ---------------------------------------------------------------------------
# observability pecking order
# ---------------------------------------------------------------------------

def test_trace_recorder_wins_over_memfast():
    prog = build_workload("sha", 0.2)
    system = build_system(prog, "WL-Cache", None, SimConfig(trace=True))
    # the recorder shadows the memsys methods, so the fast tier refuses
    assert attach_memfast(system) is None
    assert getattr(system.design, "_memfast_state", None) is None
    assert system.run() == run_one(prog, "WL-Cache", None,
                                   SimConfig(trace=True))


def test_invariant_checker_wins_over_memfast():
    prog = build_workload("sha", 0.2)
    system = build_system(prog, "WL-Cache", None,
                          SimConfig(check_invariants=True))
    assert attach_memfast(system) is None
    assert getattr(system.design, "_memfast_state", None) is None
    assert system.run() == run_one(prog, "WL-Cache", None,
                                   SimConfig(check_invariants=True))


# ---------------------------------------------------------------------------
# RunResult equality (reduced grid tier-1, full grid tier-2)
# ---------------------------------------------------------------------------

def _fast_run(prog, design, trace):
    system = build_system(prog, design, trace)
    attach_memfast(system)
    return system.run()


@pytest.mark.parametrize("app", ["sha", "qsort"])
@pytest.mark.parametrize("trace", [None, "trace1"])
def test_run_results_identical_reduced_grid(app, trace):
    prog = build_workload(app, 0.2)
    for design in DESIGNS:
        ref = run_one(prog, design, trace, SimConfig())
        assert _fast_run(prog, design, trace) == ref, \
            f"{app}/{design}/{trace}"


@pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                    reason="full grid is tier-2 (set REPRO_TIER2=1)")
def test_run_results_identical_full_grid():
    for app in ALL_WORKLOADS:
        prog = build_workload(app, 1.0)
        for design in DESIGNS:
            ref = run_one(prog, design, "trace1", SimConfig())
            assert _fast_run(prog, design, "trace1") == ref, \
                f"{app}/{design}"
