"""The persistent artifact store: roots, round-trips, corruption
tolerance, warm-started recordings, result memoization, and maintenance.

Every test opts into a throwaway store root under ``tmp_path`` (the
suite-wide default is ``REPRO_CACHE_DIR=off``, see conftest) and resets
the process-global counters around itself, so store tests never leak
state into the rest of the suite - the whole point of the store being
that state *does* leak across processes when asked to.
"""

from __future__ import annotations

import errno
import os
import pickle
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stats_io import result_to_dict
from repro.batch import batch_stats, clear_streams
from repro.batch.stream import clear_stream_meta
from repro.cpu.costs import CycleCosts
from repro.lockstep.codegen import clear_engines
from repro.sim.config import SimConfig
from repro.sim.parallel import (SweepTask, _init_worker, absorb_counters,
                                run_task, worker_initargs)
from repro.sim.results import EnergyBreakdown, PeriodStats, RunResult
from repro.sim.sweep import run_grid
from repro.store import (CLASSES, FORMAT, ArtifactStore, cache_report,
                         clear_store, disk_usage, gc_store, get_store,
                         interp_tag, key_digest, lookup_task,
                         modules_fingerprint, package_fingerprint,
                         reset_store_stats, result_from_payload,
                         result_to_payload, store_root, store_stats,
                         store_task)
from tests.conftest import build_sum_program

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def store_dir(tmp_path, monkeypatch):
    """A live store rooted in tmp_path, with clean counters/caches."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_store_stats()
    yield str(tmp_path)
    reset_store_stats()


@pytest.fixture
def fresh_codegen():
    """Cold in-memory codegen caches on both sides of the test."""
    def _clear():
        clear_engines()
        clear_streams()
        clear_stream_meta()
    _clear()
    yield _clear
    _clear()


# ---------------------------------------------------------------------------
# root resolution
# ---------------------------------------------------------------------------

class TestRoot:
    @pytest.mark.parametrize("value", ["0", "off", "none", "disabled",
                                       "OFF", "", "  "])
    def test_off_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CACHE_DIR", value)
        assert store_root() is None
        assert get_store() is None

    def test_explicit_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert store_root() == str(tmp_path)
        assert get_store().root == str(tmp_path)

    def test_default_under_xdg(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert store_root() == str(tmp_path / "repro")


# ---------------------------------------------------------------------------
# entry round-trips and corruption tolerance
# ---------------------------------------------------------------------------

_PAYLOADS = {
    "skel": (5, [1, 2], [0, 1], [0], [4], [0] * 8),
    "result": {"stats": {"instructions": 1}, "verified": True},
}


class TestRoundTrip:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_save_load(self, store_dir, cls):
        store = get_store()
        key = ("test", cls, 1, 2.5, ("nested", True))
        assert store.load(cls, key) is None  # counted miss
        assert store.save(cls, key, _PAYLOADS[cls])
        assert store.contains(cls, key)
        assert store.load(cls, key) == _PAYLOADS[cls]
        stats = store_stats()
        assert stats[f"{cls}_misses"] == 1
        assert stats[f"{cls}_writes"] == 1
        assert stats[f"{cls}_hits"] == 1
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] > 0

    def test_contains_counts_nothing(self, store_dir):
        store = get_store()
        assert not store.contains("skel", ("nope",))
        assert store_stats() == {}

    def test_distinct_keys_distinct_entries(self, store_dir):
        store = get_store()
        store.save("skel", ("a",), "payload a")
        store.save("skel", ("b",), "payload b")
        assert store.load("skel", ("a",)) == "payload a"
        assert store.load("skel", ("b",)) == "payload b"

    def test_interp_tag_in_layout(self, store_dir):
        store = get_store()
        store.save("skel", ("k",), "v")
        path = store._path("skel", key_digest(("k",)))
        assert f"/v{FORMAT}/{interp_tag()}/skel/" in path


class TestCorruption:
    def _entry_path(self, store, cls, key):
        return store._path(cls, key_digest(key))

    def _assert_corrupt_miss(self, store, cls, key):
        before = store_stats().get(f"{cls}_corrupt", 0)
        assert store.load(cls, key) is None
        stats = store_stats()
        assert stats[f"{cls}_corrupt"] == before + 1
        assert stats[f"{cls}_misses"] >= 1

    def test_truncated_entry(self, store_dir):
        store = get_store()
        key = ("trunc",)
        store.save("skel", key, "x" * 4096)
        path = self._entry_path(store, "skel", key)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        self._assert_corrupt_miss(store, "skel", key)

    def test_garbage_entry(self, store_dir):
        store = get_store()
        key = ("garbage",)
        store.save("skel", key, (1, 2))
        with open(self._entry_path(store, "skel", key), "wb") as fh:
            fh.write(b"\x00not a pickle at all")
        self._assert_corrupt_miss(store, "skel", key)

    def test_format_stamp_mismatch(self, store_dir):
        store = get_store()
        key = ("stamp",)
        digest = key_digest(key)
        path = self._entry_path(store, "result", key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps((FORMAT + 1, digest, {"stats": {}})))
        self._assert_corrupt_miss(store, "result", key)

    def test_misfiled_entry(self, store_dir):
        # an entry copied to another key's path fails the digest check
        store = get_store()
        store.save("skel", ("original",), "the payload")
        src = self._entry_path(store, "skel", ("original",))
        dst = self._entry_path(store, "skel", ("elsewhere",))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(src, "rb") as fh:
            blob = fh.read()
        with open(dst, "wb") as fh:
            fh.write(blob)
        self._assert_corrupt_miss(store, "skel", ("elsewhere",))

    def test_unwritable_root_is_soft(self, monkeypatch, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the tree wants a directory")
        store = ArtifactStore(str(blocker))
        assert store.save("skel", ("k",), "v") is False  # no exception


class TestStats:
    def test_absorb_int_only(self, store_dir):
        reset_store_stats()
        absorb_counters({"store": {"skel_hits": 3, "bytes_read": 10,
                                   "junk": "nope", "zero": 0, "f": 1.5}})
        assert store_stats() == {"skel_hits": 3, "bytes_read": 10}

    def test_absorb_accumulates(self, store_dir):
        reset_store_stats()
        absorb_counters({"store": {"result_hits": 1}})
        absorb_counters({"store": {"result_hits": 2}})
        assert store_stats()["result_hits"] == 3

    def test_failed_write_leaves_no_temp_and_counts(self, store_dir,
                                                    monkeypatch):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        assert get_store().save("result", ("full",), {"stats": {}}) is False
        leftovers = [name for _dir, _sub, names in os.walk(store_dir)
                     for name in names if ".tmp." in name]
        assert leftovers == []
        assert store_stats() == {"result_write_errors": 1}


class TestRacingWriters:
    def test_last_atomic_rename_wins(self, store_dir):
        store = get_store()
        key = ("contended",)
        payloads = [f"payload-{i}" * 200 for i in range(8)]
        errors = []

        def hammer(payload):
            try:
                for _ in range(25):
                    store.save("skel", key, payload)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(p,))
                   for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = store.load("skel", key)
        assert loaded in payloads  # valid and complete, never torn
        assert store_stats().get("skel_corrupt", 0) == 0


# ---------------------------------------------------------------------------
# maintenance: usage, GC, clear
# ---------------------------------------------------------------------------

class TestMaintenance:
    def _fill(self, store, n=6):
        keys = [(f"entry-{i}",) for i in range(n)]
        for i, key in enumerate(keys):
            store.save("skel", key, f"entry {i} " * 50)
        return keys

    def test_disk_usage_per_class(self, store_dir):
        store = get_store()
        self._fill(store, 3)
        store.save("result", ("r",), {"stats": {}})
        usage = disk_usage(store_dir)
        assert usage["classes"]["skel"]["files"] == 3
        assert usage["classes"]["result"]["files"] == 1
        assert usage["files"] == 4
        assert usage["bytes"] > 0

    def test_gc_evicts_lru(self, store_dir):
        store = get_store()
        keys = self._fill(store, 6)
        # backdate all but the last two: GC must take the stale ones
        for i, key in enumerate(keys[:-2]):
            path = store._path("skel", key_digest(key))
            os.utime(path, (1000.0 + i, 1000.0 + i))
        entry_bytes = disk_usage(store_dir)["bytes"] // 6
        report = gc_store(store_dir, max_bytes=2 * entry_bytes + 2)
        assert report["removed_files"] == 4
        assert report["kept_bytes"] <= 2 * entry_bytes + 2
        for key in keys[:-2]:
            assert not store.contains("skel", key)
        for key in keys[-2:]:
            assert store.contains("skel", key)

    def test_gc_load_touches_recency(self, store_dir):
        store = get_store()
        keys = self._fill(store, 3)
        for key in keys:
            path = store._path("skel", key_digest(key))
            os.utime(path, (1000.0, 1000.0))
        store.load("skel", keys[0])  # the hit must refresh its stamp
        entry_bytes = disk_usage(store_dir)["bytes"] // 3
        gc_store(store_dir, max_bytes=entry_bytes + 2)
        assert store.contains("skel", keys[0])

    def test_clear_store(self, store_dir):
        store = get_store()
        self._fill(store, 4)
        assert clear_store(store_dir) == 4
        assert disk_usage(store_dir)["files"] == 0
        assert store.load("skel", ("entry-0",)) is None


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_deterministic(self):
        a = modules_fingerprint("repro.batch.stream", "repro.cpu.core")
        b = modules_fingerprint("repro.batch.stream", "repro.cpu.core")
        assert a == b
        assert len(a) == 16 and int(a, 16) >= 0

    def test_distinct_module_sets(self):
        assert (modules_fingerprint("repro.batch.stream")
                != modules_fingerprint("repro.cpu.core"))
        assert (modules_fingerprint("repro.batch.stream")
                != modules_fingerprint("repro.batch.stream",
                                       "repro.cpu.core"))

    def test_package_fingerprint(self):
        fp = package_fingerprint()
        assert fp == package_fingerprint()
        assert len(fp) == 16 and int(fp, 16) >= 0


# ---------------------------------------------------------------------------
# warm-started recordings and skeletons
# ---------------------------------------------------------------------------

class TestWarmCodegen:
    def test_stream_skeleton_and_recording_load(self, store_dir,
                                                fresh_codegen):
        kwargs = dict(scale=0.2, jobs=1, engine="fast")
        cold = run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                        **kwargs)
        assert batch_stats()["recordings"] == 1
        assert batch_stats()["disk_writes"] == 1

        fresh_codegen()
        warm = run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                        **kwargs)
        stats = batch_stats()
        assert (stats["recordings"], stats["disk_hits"]) == (0, 1)
        assert cold == warm

    def test_one_skel_entry_per_kernel(self, store_dir, fresh_codegen):
        kwargs = dict(scale=0.2, jobs=1, engine="fast")
        cold = run_grid(("sha",), ("NVCache-WB", "WL-Cache"), "trace1",
                        **kwargs)
        assert batch_stats()["expansions"] == 2
        assert store_stats()["skel_writes"] == 1
        assert disk_usage(store_dir)["classes"]["skel"]["files"] == 1
        assert not any(os.path.isdir(os.path.join(d, "stream"))
                       for d, _sub, _names in os.walk(store_dir))

        fresh_codegen()  # a fresh process: in-memory caches are cold
        reset_store_stats()
        warm = run_grid(("sha",), ("NVCache-WB", "WL-Cache"), "trace1",
                        **kwargs)
        stats = batch_stats()
        assert (stats["recordings"], stats["disk_hits"]) == (0, 1)
        assert store_stats().get("skel_hits") == 1
        assert cold == warm

    def test_data_edit_rerecords(self, store_dir, fresh_codegen,
                                 monkeypatch):
        # an edited input table with unchanged code: the recording and
        # skeleton on disk captured the old values and must not be reused
        from repro.cpu.core import program_content_key
        from repro.isa.program import Program
        from repro.sim.factory import build_system
        from repro.workloads import get_workload

        kwargs = dict(scale=0.1, jobs=1, verify=False, engine="fast")
        workload = get_workload("sha")
        old = workload.build(0.1)
        run_grid(("sha",), ("WL-Cache",), "trace1", **kwargs)
        assert batch_stats()["recordings"] == 1

        # a fresh build, as a new process makes it: same name and
        # instructions, one input word changed
        new = Program(name=old.name, instructions=list(old.instructions),
                      data=dict(old.data), labels=dict(old.labels),
                      symbols=dict(old.symbols), mem_bytes=old.mem_bytes)
        new.data[old.symbols["msg"] >> 2] ^= 0x5A5A5A5A
        monkeypatch.setitem(workload._cache, 0.1, new)
        assert program_content_key(new) != program_content_key(old)

        fresh_codegen()
        got = run_grid(("sha",), ("WL-Cache",), "trace1", **kwargs)
        stats = batch_stats()
        assert stats["recordings"] == 1 and stats["disk_hits"] == 0
        ref = build_system(new, "WL-Cache", trace="trace1").run()
        assert got[("sha", "WL-Cache")] == ref

    @pytest.mark.parametrize("module", [
        "repro.batch.record", "repro.batch.stream", "repro.cpu.core",
        "repro.isa.opcodes", "repro.isa.program", "repro.lint.cfg"])
    def test_generator_edit_rerecords(self, store_dir, fresh_codegen,
                                      monkeypatch, tmp_path_factory,
                                      module):
        # a stale fingerprint: an edit to any module a recording's
        # content depends on (say, the interpreter's XOR) must not serve
        # the skeleton the old code made
        import importlib

        from repro.store import keys

        kwargs = dict(scale=0.1, jobs=1, verify=False, engine="fast")
        run_grid(("sha",), ("WL-Cache",), "trace1", **kwargs)
        assert batch_stats()["recordings"] == 1

        mod = importlib.import_module(module)
        edited = tmp_path_factory.mktemp("edited") / "module.py"
        with open(mod.__file__, "rb") as fh:
            edited.write_bytes(fh.read() + b"\n# edited\n")
        monkeypatch.setattr(mod, "__file__", str(edited))
        monkeypatch.setattr(keys, "_FP_CACHE", {})

        fresh_codegen()
        run_grid(("sha",), ("WL-Cache",), "trace1", **kwargs)
        stats = batch_stats()
        assert (stats["recordings"], stats["disk_hits"]) == (1, 0)


# ---------------------------------------------------------------------------
# the store holds data only: generated code is never persisted or read
# ---------------------------------------------------------------------------

class TestDataOnly:
    def test_sweeps_write_data_classes_only(self, store_dir, fresh_codegen):
        run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                 scale=0.2, jobs=1, engine="fast")
        run_grid(("sha",), ("WL-Cache",), "trace1", scale=0.2, jobs=1,
                 config=SimConfig(result_cache=True))
        assert set(disk_usage(store_dir)["classes"]) == {"skel", "result"}
        assert CLASSES == ("skel", "result")

    def test_retired_stream_entries_are_other(self, store_dir):
        # an older tree's raw recordings under ``stream/`` are never
        # read: usage files them as ``other`` and clear removes them
        store = get_store()
        store.save("stream", ("old recording",), (b"\x01", 7))
        assert disk_usage(store_dir)["classes"] == {
            "other": {"files": 1, "bytes": disk_usage(store_dir)["bytes"]}}
        assert clear_store(store_dir) == 1

    def test_old_source_entry_never_read(self, store_dir, fresh_codegen):
        # an entry under the retired "src" class, keyed the way older
        # releases keyed sha's record-mode blocks; running it would
        # raise, so a sweep that succeeds never executed it
        from repro.batch.record import recording_costs
        from repro.cpu.core import program_content_key
        from repro.sim.factory import effective_costs
        from repro.workloads import build_workload

        program = build_workload("sha", 0.2)
        costs = recording_costs(effective_costs("WL-Cache", SimConfig()))
        digest = key_digest(("jit-blocks", program_content_key(program),
                             costs))
        path = get_store()._path("src", digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(
                (FORMAT, digest, "raise RuntimeError('planted')\n")))

        grid = run_grid(("sha",), ("WL-Cache",), "trace1", scale=0.2,
                        jobs=1, engine="fast")
        assert grid[("sha", "WL-Cache")].halted
        assert batch_stats()["recordings"] >= 1
        assert not any(k.startswith("src_") for k in store_stats())
        usage = disk_usage(store_dir)
        assert usage["classes"]["other"] == {
            "files": 1, "bytes": os.path.getsize(path)}
        assert clear_store(store_dir) == usage["files"]
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# result memoization
# ---------------------------------------------------------------------------

def _memo_task(verify=True, config=None, **kwargs) -> SweepTask:
    config = config if config is not None else SimConfig(result_cache=True)
    fields = dict(workload="sha", design="WL-Cache", trace="trace1",
                  scale=0.2, verify=verify, config=config, overrides={})
    fields.update(kwargs)
    return SweepTask(**fields)


def _stats_equal(a: RunResult, b: RunResult) -> bool:
    return (result_to_dict(a, include_periods=True)
            == result_to_dict(b, include_periods=True)
            and list(a.final_regs) == list(b.final_regs))


class TestResultMemo:
    def test_write_then_hit(self, store_dir):
        fresh = run_task(_memo_task())
        assert store_stats().get("result_writes") == 1
        memo = run_task(_memo_task())
        assert store_stats().get("result_hits") == 1
        assert _stats_equal(fresh, memo)
        assert memo.final_memory is None  # stats-only by design
        assert fresh.final_memory is not None

    def test_disabled_without_opt_in(self, store_dir):
        run_task(_memo_task(config=SimConfig()))
        assert "result_writes" not in store_stats()

    def test_env_opt_in_shares_entries(self, store_dir, monkeypatch):
        run_task(_memo_task())  # flag-enabled write
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        # result_cache is normalized out of the key: the env-enabled
        # lookup of the flagless task hits the flag-enabled entry
        memo = lookup_task(_memo_task(config=SimConfig()))
        assert memo is not None
        assert store_stats().get("result_hits") == 1

    def test_reference_entries_serve_fast_sweeps(self, store_dir,
                                                 fresh_codegen):
        # the engine is normalized out of the key: both engines are
        # bit-identical, so a reference sweep's entries serve a fast one
        designs = ("WL-Cache", "NVSRAM(ideal)")
        kwargs = dict(trace="trace1", scale=0.2, jobs=1)
        ref = run_grid(("sha",), designs, config=SimConfig(
            engine="reference", result_cache=True), **kwargs)
        assert store_stats().get("result_writes") == 2
        reset_store_stats()
        fast = run_grid(("sha",), designs, config=SimConfig(
            engine="fast", result_cache=True), **kwargs)
        assert store_stats().get("result_hits") == 2
        assert batch_stats()["recordings"] == 0
        assert _grid_stats(ref) == _grid_stats(fast)

    def test_memo_consulted_once_per_task(self, store_dir, fresh_codegen,
                                          monkeypatch):
        # a bailed group's tasks finish on the slow path, which must not
        # look the memo up a second time
        import repro.batch.engine as engine
        from repro.batch.record import RecordingBail

        def always_bail(program, costs, budget):
            raise RecordingBail("forced")

        monkeypatch.setattr(engine, "record_run", always_bail)
        cfg = SimConfig(engine="fast", result_cache=True)
        run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                 scale=0.2, jobs=1, config=cfg)
        assert batch_stats()["bails"] == 1
        assert store_stats().get("result_misses") == 2
        assert store_stats().get("result_writes") == 2

    def test_trace_and_checker_runs_never_memoized(self, store_dir):
        run_task(_memo_task(config=SimConfig(result_cache=True,
                                             trace=True)))
        run_task(_memo_task(config=SimConfig(result_cache=True,
                                             check_invariants=True)))
        assert "result_writes" not in store_stats()

    def test_verified_semantics(self, store_dir):
        unverified = _memo_task(verify=False)
        res = run_task(unverified)
        assert store_stats().get("result_writes") == 1
        # a verify=True lookup must not trust an unverified entry
        assert lookup_task(_memo_task(verify=True)) is None
        # ...but an unverified lookup may
        assert lookup_task(unverified) is not None
        # a verified run upgrades the entry in place
        run_task(_memo_task(verify=True))
        assert store_stats().get("result_writes") == 2
        assert lookup_task(_memo_task(verify=True)) is not None
        # an unverified run never downgrades an existing entry
        assert store_task(unverified, res) is False
        assert store_stats().get("result_writes") == 2

    def test_payload_roundtrip_from_simulation(self, store_dir):
        res = run_task(_memo_task())
        back = result_from_payload(result_to_payload(res, True))
        assert _stats_equal(res, back)


_scalar_ints = st.integers(min_value=0, max_value=2 ** 50)
_energies = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
_synthetic_results = st.builds(
    RunResult,
    program=st.sampled_from(["sha", "qsort", "fft"]),
    design=st.sampled_from(["WL-Cache", "NVSRAM(ideal)"]),
    trace=st.sampled_from(["trace1", "trace2"]),
    halted=st.booleans(),
    total_time_ns=_scalar_ints, on_time_ns=_scalar_ints,
    off_time_ns=_scalar_ints, exec_cycles=_scalar_ints,
    instructions=_scalar_ints, outages=st.integers(0, 10 ** 6),
    checkpoint_lines_total=_scalar_ints, reconfig_count=_scalar_ints,
    maxline_min=st.integers(0, 6), maxline_max=st.integers(0, 6),
    prediction_accuracy=st.floats(0.0, 1.0, allow_nan=False),
    dyn_raises=_scalar_ints, nvm_reads=_scalar_ints,
    nvm_writes=_scalar_ints, read_hits=_scalar_ints,
    read_misses=_scalar_ints, write_hits=_scalar_ints,
    write_misses=_scalar_ints, store_stall_cycles=_scalar_ints,
    async_writebacks=_scalar_ints, dirty_evictions=_scalar_ints,
    energy=st.builds(EnergyBreakdown, cache_read_nj=_energies,
                     cache_write_nj=_energies, mem_read_nj=_energies,
                     mem_write_nj=_energies, compute_nj=_energies,
                     checkpoint_nj=_energies, discarded_nj=_energies),
    periods=st.lists(
        st.builds(PeriodStats, on_time_ns=_scalar_ints,
                  instrs=_scalar_ints, dirty_highwater=st.integers(0, 64),
                  async_writebacks=_scalar_ints, maxline=st.integers(0, 6)),
        max_size=4),
    final_regs=st.lists(st.integers(0, 2 ** 32 - 1), min_size=0,
                        max_size=16),
)


class TestPayloadProperty:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(result=_synthetic_results, verified=st.booleans())
    def test_payload_roundtrip(self, result, verified):
        payload = result_to_payload(result, verified)
        # the payload must survive the store's pickle framing
        payload = pickle.loads(pickle.dumps(payload))
        back = result_from_payload(payload)
        assert _stats_equal(result, back)
        assert payload["verified"] is verified
        assert back.final_memory is None


# ---------------------------------------------------------------------------
# warm == cold, bit for bit
# ---------------------------------------------------------------------------

def _grid_stats(grid) -> dict:
    return {key: (result_to_dict(res, include_periods=True),
                  list(res.final_regs)) for key, res in grid.items()}


class TestWarmEqualsCold:
    def test_reduced_grid_bit_identical(self, store_dir, fresh_codegen):
        cfg = SimConfig(engine="fast", result_cache=True)
        kwargs = dict(trace="trace1", scale=0.2, jobs=1, config=cfg)
        cold = run_grid(("sha",), ("NVSRAM(ideal)", "WL-Cache"), **kwargs)
        assert store_stats().get("result_writes") == 2

        fresh_codegen()
        reset_store_stats()
        warm = run_grid(("sha",), ("NVSRAM(ideal)", "WL-Cache"), **kwargs)
        assert store_stats().get("result_hits") == 2
        assert batch_stats()["recordings"] == 0
        assert _grid_stats(cold) == _grid_stats(warm)

    @pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                        reason="full grid is tier-2 (set REPRO_TIER2=1)")
    def test_full_grid_bit_identical(self, store_dir, fresh_codegen):
        cfg = SimConfig(engine="fast", result_cache=True)
        kwargs = dict(trace="trace1", scale=0.2, jobs=1, config=cfg)
        cold = run_grid(**kwargs)  # all 23 workloads x 5 designs
        fresh_codegen()
        reset_store_stats()
        warm = run_grid(**kwargs)
        assert store_stats().get("result_hits") == len(cold)
        assert batch_stats()["recordings"] == 0
        assert _grid_stats(cold) == _grid_stats(warm)


# ---------------------------------------------------------------------------
# pool propagation
# ---------------------------------------------------------------------------

class TestPoolPropagation:
    def test_initargs_carry_store_switches(self, store_dir, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        monkeypatch.setenv("NOT_REPRO", "x")
        env = worker_initargs()
        assert env["REPRO_CACHE_DIR"] == store_dir
        assert env["REPRO_RESULT_CACHE"] == "1"
        assert all(var.startswith("REPRO_") for var in env)

    def test_init_worker_sets_and_pops(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        monkeypatch.setenv("REPRO_STALE_SWITCH", "1")
        monkeypatch.setenv("NOT_REPRO", "x")
        _init_worker({"REPRO_CACHE_DIR": "/tmp/somewhere",
                      "REPRO_RESULT_CACHE": "1"})
        assert os.environ["REPRO_CACHE_DIR"] == "/tmp/somewhere"
        assert os.environ["REPRO_RESULT_CACHE"] == "1"
        # a switch the parent does not set is removed; other variables
        # are left alone
        assert "REPRO_STALE_SWITCH" not in os.environ
        assert os.environ["NOT_REPRO"] == "x"
        _init_worker({"REPRO_CACHE_DIR": "off"})
        assert os.environ["REPRO_CACHE_DIR"] == "off"
        assert "REPRO_RESULT_CACHE" not in os.environ

    def test_pooled_sweep_ships_store_stats_home(self, store_dir,
                                                 fresh_codegen):
        cfg = SimConfig(result_cache=True)
        kwargs = dict(trace="trace1", scale=0.2, config=cfg)
        run_grid(("sha", "qsort"), ("WL-Cache",), jobs=1, **kwargs)
        assert store_stats().get("result_writes") == 2
        reset_store_stats()
        warm = run_grid(("sha", "qsort"), ("WL-Cache",), jobs=2, **kwargs)
        # the workers' hit counters rode home on the chunk records
        assert store_stats().get("result_hits") == 2
        assert len(warm) == 2


# ---------------------------------------------------------------------------
# in-memory cache caps
# ---------------------------------------------------------------------------

class TestCacheCaps:
    def test_decode_cache_cap(self, monkeypatch):
        from repro.cpu import core
        saved = dict(core._DECODE_SHARED)
        saved_ev = core._DECODE_STATS["evictions"]
        try:
            core._DECODE_SHARED.clear()
            core._DECODE_STATS["evictions"] = 0
            monkeypatch.setattr(core, "_DECODE_SHARED_CAP", 2)
            costs = CycleCosts()
            for n in (11, 12, 13):
                core.predecode(build_sum_program(n), costs)
            stats = core.decode_cache_stats()
            assert stats["entries"] <= 2
            assert stats["evictions"] >= 1
        finally:
            core._DECODE_SHARED.clear()
            core._DECODE_SHARED.update(saved)
            core._DECODE_STATS["evictions"] = saved_ev

    def test_cache_report_covers_every_cache(self, store_dir):
        report = cache_report(include_disk=True)
        assert report["enabled"] and report["root"] == store_dir
        caches = report["process_caches"]
        assert set(caches) == {"lockstep", "batch", "decode"}
        assert "kernels" in caches["batch"]
        assert "entries" in caches["decode"]
        assert "disk" in report


# ---------------------------------------------------------------------------
# the `repro cache` CLI
# ---------------------------------------------------------------------------

class TestCacheCli:
    def test_stats_json(self, store_dir, capsys):
        import json

        from repro.cli import main
        get_store().save("skel", ("cli",), "x")
        assert main(["cache", "stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["root"] == store_dir
        assert report["disk"]["classes"]["skel"]["files"] == 1
        assert set(report["process_caches"]) == {"lockstep", "batch",
                                                 "decode"}

    def test_stats_human(self, store_dir, capsys):
        from repro.cli import main
        get_store().save("skel", ("cli",), "x")
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert store_dir in out and "skel" in out

    def test_gc_and_clear(self, store_dir, capsys):
        from repro.cli import main
        store = get_store()
        for i in range(5):
            store.save("skel", (f"cli-{i}",), "y" * 2048)
        assert main(["cache", "gc", "--max-size", "4K"]) == 0
        assert disk_usage(store_dir)["bytes"] <= 4096
        assert main(["cache", "clear"]) == 0
        assert disk_usage(store_dir)["files"] == 0

    def test_gc_disabled_store_fails(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert main(["cache", "gc", "--max-size", "1M"]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_bad_size_rejected(self, store_dir):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--max-size", "lots"])
