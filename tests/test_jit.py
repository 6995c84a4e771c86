"""Structural tests of the record-mode code cache: programs compile once
per (content, cost model) and the cache key really is the content.

The bit-level differential of record mode against the interpreter over
randomized programs lives in ``tests/test_record_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.jit import clear_code_cache, code_cache_stats, get_compiled
from repro.sim.config import SimConfig
from repro.workloads import build_workload
from tests.conftest import build_sum_program


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_code_cache()
    yield
    clear_code_cache()


def test_code_cache_shared_across_program_rebuilds():
    # sweep workers rebuild Program objects; the content key must hit
    # even when the per-program meta shortcut is cold
    import copy
    a = build_workload("qsort", 0.2)
    b = copy.deepcopy(a)
    b.meta.clear()
    get_compiled(a, SimConfig().costs)
    get_compiled(b, SimConfig().costs)
    stats = code_cache_stats()
    assert stats["compiles"] == 1 and stats["hits"] == 1


def test_distinct_costs_compile_separately():
    from dataclasses import replace
    prog = build_sum_program()
    costs = SimConfig().costs
    get_compiled(prog, costs)
    get_compiled(prog, replace(costs, mem_issue=costs.mem_issue + 1))
    assert code_cache_stats()["compiles"] == 2
