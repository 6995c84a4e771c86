"""The NVM word image is a flat ``array("I")`` on every execution path.

``Program.initial_memory`` builds the image every memory model starts
from, so each path - the reference interpreter, the fast engine's
lockstep engines, pool workers, the oracle and the batch recorder -
must end holding one flat u32 buffer whose bytes equal the
failure-free oracle's. The collector still tracks an array (CPython makes
it a GC-aware type), but its only referent is its type, so a collection
pass visits one object per image; a list image would put its 262,144
slots back in front of every pass.
"""

from __future__ import annotations

import gc
from array import array

import pytest

from repro.batch import batch_stats, clear_streams
from repro.batch.record import RecordingMemsys
from repro.cpu.core import InOrderCore
from repro.energy.synthetic import make_trace
from repro.lockstep.scheduler import clear_lockstep_stats, lockstep_stats
from repro.mem.nvm import NVMainMemory
from repro.sim.config import SimConfig
from repro.sim.factory import build_design, build_system
from repro.sim.sweep import run_grid
from repro.sim.system import System
from repro.verify.checker import compare_states
from repro.verify.oracle import run_oracle
from repro.workloads import build_workload

SCALE = 0.1
GRID_DESIGNS = ("WL-Cache", "NVSRAM(ideal)")


@pytest.fixture(scope="module")
def program():
    return build_workload("sha", SCALE)


@pytest.fixture(scope="module")
def oracle(program):
    return run_oracle(program)


@pytest.fixture(autouse=True)
def _fresh_streams():
    clear_streams()
    clear_lockstep_stats()
    yield
    clear_streams()


def _assert_flat_image(image, oracle) -> None:
    assert isinstance(image, array) and image.typecode == "I"
    assert gc.get_referents(image) == [array]
    assert image.tobytes() == oracle.memory.tobytes()


def _grid_images(**kwargs) -> list:
    results = run_grid(["sha"], GRID_DESIGNS, "trace1", scale=SCALE, **kwargs)
    assert len(results) == len(GRID_DESIGNS)
    return [res.final_memory for res in results.values()]


def test_oracle_image(oracle):
    _assert_flat_image(oracle.memory, oracle)


def test_reference_lone_run(program, oracle):
    res = build_system(program, "WL-Cache", trace="trace1").run()
    _assert_flat_image(res.final_memory, oracle)


def test_lockstep_column(oracle):
    for image in _grid_images(jobs=1, engine="fast"):
        _assert_flat_image(image, oracle)
    assert lockstep_stats()["columns"] == len(GRID_DESIGNS)
    assert batch_stats()["lockstep"] == len(GRID_DESIGNS)


def test_pool_sweep(oracle):
    for image in _grid_images(jobs=2):
        _assert_flat_image(image, oracle)


def test_recording_memsys(program, oracle):
    mem = RecordingMemsys(program)
    InOrderCore(program, mem).run_to_halt(50_000_000)
    _assert_flat_image(mem.words, oracle)
    assert mem.ops  # it logged the run it executed


def test_list_backed_nvm_still_works(program, oracle):
    nvm = NVMainMemory([0] * 64)
    nvm.write_line(32, [1, 2, 3, 0xFFFFFFFF])
    assert nvm.words[8:12] == [1, 2, 3, 0xFFFFFFFF]
    data, _cycles = nvm.read_line(32, 4)
    assert list(data) == [1, 2, 3, 0xFFFFFFFF]

    # a whole crashy run on a list image: fills, write-backs and the
    # checker's word-by-word comparison against the array oracle
    config = SimConfig()
    nvm = NVMainMemory(list(program.initial_memory()), config.nvm)
    design = build_design("WL-Cache", nvm, config)
    res = System(program, design, config, make_trace("trace1")).run()
    assert res.outages > 0
    assert isinstance(res.final_memory, list)
    assert res.final_memory == oracle.memory.tolist()
    assert compare_states(res, oracle).ok
