"""Extension designs: NVSRAM(full/practical), WT+Buffer, eager cleanup."""

import pytest

from repro.batch.engine import iter_outcomes
from repro.caches.nvsram_variants import NVSRAMFull, NVSRAMPractical
from repro.caches.params import CacheParams
from repro.caches.wt_buffer import WTBufferCache
from repro.core.variants import EagerCleanupWLCache, make_waterline_variant
from repro.errors import ConfigError
from repro.mem.nvm import NVMainMemory
from repro.mem.setassoc import CacheGeometry
from repro.sim.factory import run_one
from repro.sim.parallel import SweepTask, simulate_task
from repro.verify.checker import check_crash_consistency
from repro.workloads import build_workload, verify_checks

ADDR = 0x800


def make(cls, **kwargs):
    nvm = NVMainMemory([0] * (1 << 14))
    geo = CacheGeometry(512, 2, 64)
    return cls(nvm, geo, "lru", CacheParams(), **kwargs), nvm


class TestNVSRAMFull:
    def test_checkpoints_clean_lines_too(self):
        full, _ = make(NVSRAMFull)
        full.load(ADDR, now=0)          # clean
        full.store(ADDR + 256, 1, now=1)  # dirty
        report = full.flush_for_checkpoint(2)
        assert report.lines_flushed == 2  # ideal would flush only 1

    def test_restore_preserves_dirtiness(self):
        full, nvm = make(NVSRAMFull)
        full.store(ADDR, 9, now=0)
        full.load(ADDR + 256, now=1)
        full.flush_for_checkpoint(2)
        full.on_power_loss()
        full.on_boot(first=False)
        assert full.array.peek(ADDR).dirty
        assert not full.array.peek(ADDR + 256).dirty


class TestNVSRAMPractical:
    def test_migration_bounds_dirty_sram_lines(self):
        pr, _ = make(NVSRAMPractical)
        # two dirty lines in the same set trigger a migration to an NV way
        conflict = ADDR + 512  # same set (4 sets x 128B span... geometry 512/2/64 -> 4 sets)
        pr.store(ADDR, 1, now=0)
        pr.store(conflict, 2, now=1)
        assert pr.migrations == 1
        report = pr.flush_for_checkpoint(2)
        assert report.lines_flushed <= pr.geometry.n_sets

    def test_nv_way_hits_cost_more(self):
        pr, _ = make(NVSRAMPractical)
        conflict = ADDR + 512
        pr.store(ADDR, 1, now=0)
        pr.store(conflict, 2, now=1)  # migrates ADDR's line to the NV way
        _, sram_cycles = pr.load(conflict, now=2)
        _, nv_cycles = pr.load(ADDR, now=3)
        assert nv_cycles > sram_cycles

    def test_smaller_reserve_than_ideal(self):
        pr, _ = make(NVSRAMPractical)
        assert pr.reserve_lines() == pr.geometry.n_sets
        assert pr.reserve_lines() < pr.geometry.n_lines

    def test_nv_ways_survive_power_loss(self):
        pr, nvm = make(NVSRAMPractical)
        conflict = ADDR + 512
        pr.store(ADDR, 7, now=0)
        pr.store(conflict, 8, now=1)  # ADDR line now lives in an NV way
        pr.flush_for_checkpoint(2)
        pr.on_power_loss()
        pr.on_boot(first=False)
        assert pr.load(ADDR, now=3)[0] == 7
        assert pr.load(conflict, now=4)[0] == 8

    def test_crash_consistent_end_to_end(self):
        prog = build_workload("qsort", 0.5)
        res = run_one(prog, "NVSRAM(practical)", trace="trace2")
        assert res.outages > 0
        check_crash_consistency(prog, res)

    def test_needs_an_sram_and_an_nv_way(self):
        # a direct-mapped set has no room for both kinds of way
        nvm = NVMainMemory([0] * (1 << 14))
        with pytest.raises(ConfigError,
                           match=r"NVSRAM\(practical\).*assoc=1"):
            NVSRAMPractical(nvm, CacheGeometry(512, 1, 64), "lru",
                            CacheParams())
        tasks = [SweepTask("sha", "NVSRAM(practical)", None, 0.1, True, None,
                           {"geometry": CacheGeometry(1024, assoc, 16)})
                 for assoc in (1, 2)]
        with pytest.raises(ConfigError, match="assoc=1"):
            run_one(build_workload("sha", 0.1), tasks[0].design, None,
                    **tasks[0].overrides)
        one_way, two_way = (oc for _, oc in iter_outcomes(tasks,
                                                          simulate_task))
        assert one_way[0] == "err" and isinstance(one_way[1], ConfigError)
        assert two_way[0] == "ok" and two_way[1].halted


class TestWTBuffer:
    def test_store_latency_hidden(self):
        buf, nvm = make(WTBufferCache)
        plain, _ = make(WTBufferCache.__bases__[0])  # VCacheWT
        c_buf = buf.store(ADDR, 1, now=0)
        c_wt = plain.store(ADDR, 1, now=0)
        assert c_buf < c_wt

    def test_loads_pay_cam_probe(self):
        buf, _ = make(WTBufferCache)
        plain, _ = make(WTBufferCache.__bases__[0])
        buf.load(ADDR, now=0)
        plain.load(ADDR, now=0)
        _, c_buf = buf.load(ADDR, now=100)
        _, c_wt = plain.load(ADDR, now=100)
        assert c_buf == c_wt + buf.cam_probe_cycles  # §3.3 critical path

    def test_forwarding_returns_fresh_value(self):
        buf, nvm = make(WTBufferCache)
        buf.store(ADDR, 0xABCD, now=0)
        assert nvm.words[ADDR >> 2] == 0  # still in flight
        value, _ = buf.load(ADDR, now=1)
        assert value == 0xABCD

    def test_refill_patched_from_buffer(self):
        buf, _ = make(WTBufferCache, buffer_depth=16)
        # store two words of one (uncached) line, then load a third word
        buf.store(ADDR, 0x11, now=0)
        buf.store(ADDR + 4, 0x22, now=1)
        assert buf.load(ADDR + 4, now=2)[0] == 0x22
        assert buf.load(ADDR, now=3)[0] == 0x11

    def test_full_buffer_stalls(self):
        buf, _ = make(WTBufferCache, buffer_depth=2)
        t = 0
        stalled_before = buf.stats.store_stall_cycles
        for i in range(6):
            buf.store(ADDR + 64 * i, i, now=t)
            t += 1
        assert buf.stats.store_stall_cycles > stalled_before

    def test_checkpoint_drains_buffer(self):
        buf, nvm = make(WTBufferCache)
        buf.store(ADDR, 5, now=0)
        buf.flush_for_checkpoint(now=1)
        assert nvm.words[ADDR >> 2] == 5
        assert buf.reserve_extra_energy_nj() > 0

    def test_crash_consistent_end_to_end(self):
        prog = build_workload("sha", 0.3)
        res = run_one(prog, "WT+Buffer", trace="trace1")
        check_crash_consistency(prog, res)


class TestEagerCleanup:
    def test_eviction_removes_entries(self):
        wl, _ = make(EagerCleanupWLCache, maxline=6, waterline=6,
                     dq_capacity=8)
        # direct-mapped conflict within a 2-way set: 3 lines, same set
        a, b, c = 0x400, 0x400 + 512, 0x400 + 1024
        wl.store(a, 1, now=0)
        wl.store(b, 2, now=1)
        wl.store(c, 3, now=2)  # evicts a dirty line
        assert wl.eager_cleanups >= 1
        assert wl.dq.stale_drops == 0
        # every remaining queue entry points at a live dirty line
        for lineno in wl.dq.line_numbers():
            line = wl.array.peek(lineno << wl.array.line_shift)
            assert line is not None

    def test_consistency_maintained(self):
        prog = build_workload("qsort", 0.5)
        from repro.sim.factory import run_one
        res = run_one(prog, "WL-Cache(eager)", trace="trace2")
        check_crash_consistency(prog, res)
        verify_checks(prog, res.final_memory)


class TestWaterlineVariant:
    def test_gap_validation(self):
        nvm = NVMainMemory([0] * 256)
        geo = CacheGeometry(512, 2, 64)
        with pytest.raises(ConfigError):
            make_waterline_variant(nvm, geo, "lru", CacheParams(), gap=9)
        wl = make_waterline_variant(nvm, geo, "lru", CacheParams(),
                                    maxline=6, gap=3)
        assert wl.waterline == 3
