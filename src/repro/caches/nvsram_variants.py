"""The other two NVSRAM designs from §2.3.3.

* :class:`NVSRAMFull` - the original NVSRAM cache [41]: JIT checkpointing
  copies the *entire* SRAM array to the shadow, dirty or not. Same large
  reserve as the ideal variant but the checkpoint cost is always worst
  case; the paper uses it to motivate the "ideal" comparison point.

* :class:`NVSRAMPractical` - the hybrid design [72, 73]: SRAM ways and NV
  ways share each set. Data lands in SRAM ways; a background migration
  moves cold dirty SRAM lines into NV ways so that JIT checkpointing only
  has to move the *remaining* dirty SRAM lines. Accessing data that lives
  in an NV way costs NV-array latency/energy, which is why the paper finds
  it slower than the ideal variant.
"""

from __future__ import annotations

from repro.caches.nvsram import NVSRAMIdeal
from repro.caches.params import CacheParams
from repro.errors import ConfigError
from repro.mem.memsys import FlushReport
from repro.mem.nvm import NVMainMemory
from repro.mem.setassoc import CacheGeometry

_FULL = 0xFFFFFFFF


class NVSRAMFull(NVSRAMIdeal):
    """NVSRAM that checkpoints the whole array at every power failure."""

    name = "NVSRAM(full)"

    def flush_for_checkpoint(self, now: int) -> FlushReport:
        report = FlushReport()
        self._backup = []
        for line in self.array.valid_lines():
            self._backup.append((line.tag, list(line.data), line.dirty))
            report.lines_flushed += 1
            report.words_flushed += len(line.data)
            report.cycles += self.params.ckpt_line_cycles
            report.extra_energy_nj += self.params.ckpt_line_energy_nj
        self.stats.cache_write_energy_nj += report.extra_energy_nj
        return report


class NVSRAMPractical(NVSRAMIdeal):
    """Hybrid SRAM/NV-way cache with runtime migration.

    The upper half of each set's ways are NV lines: hits there pay NV
    latency/energy. On a store to an SRAM way, if the set has a free (or
    clean) NV way, the previously dirty SRAM resident of that set is
    migrated into it, keeping the number of dirty *SRAM* lines per set at
    most one - which is all the JIT checkpoint then has to move.
    Migrations and NV-way residency are the runtime overheads the paper
    calls out (§2.3.3).
    """

    name = "NVSRAM(practical)"

    def __init__(self, nvm: NVMainMemory, geometry: CacheGeometry,
                 replacement: str = "lru",
                 params: CacheParams | None = None,
                 nv_params: CacheParams | None = None, **kwargs):
        if geometry.assoc < 2:
            raise ConfigError(
                f"{self.name} needs at least one SRAM and one NV way per "
                f"set (assoc >= 2), got assoc={geometry.assoc}")
        super().__init__(nvm, geometry, replacement, params, **kwargs)
        self.nv_params = nv_params or CacheParams(
            hit_read_cycles=3, hit_write_cycles=5,
            read_energy_nj=0.30, write_energy_nj=0.80)
        self._nv_ways = geometry.assoc // 2
        # mark which physical ways are NV: the top ones of each set
        self._nv_threshold = geometry.assoc - self._nv_ways
        self.migrations = 0

    def _is_nv_way(self, set_index: int, line) -> bool:
        cset = self.array.sets[set_index]
        return cset.index(line) >= self._nv_threshold

    def _set_index(self, addr: int) -> int:
        return (addr >> self.array.line_shift) & self.array.set_mask

    def load(self, addr: int, now: int) -> tuple[int, int]:
        value, cycles = super().load(addr, now)
        line = self.array.peek(addr)
        if line is not None and self._is_nv_way(self._set_index(addr), line):
            cycles += (self.nv_params.hit_read_cycles
                       - self.params.hit_read_cycles)
            self.stats.cache_read_energy_nj += (
                self.nv_params.read_energy_nj - self._e_read)
        return (value, cycles)

    def store_masked(self, addr: int, bits: int, mask: int, now: int) -> int:
        cycles = super().store_masked(addr, bits, mask, now)
        line = self.array.peek(addr)
        if line is not None and self._is_nv_way(self._set_index(addr), line):
            cycles += (self.nv_params.hit_write_cycles
                       - self.params.hit_write_cycles)
            self.stats.cache_write_energy_nj += (
                self.nv_params.write_energy_nj - self._e_write)
        return cycles

    def _fill(self, addr: int, now: int):
        """Allocate into an SRAM way; migrate the displaced dirty SRAM
        resident into a non-dirty NV way when one exists (the design's
        runtime migration), else write it back to main NVM."""
        cset = self.array.sets[self._set_index(addr)]
        sram_ways = cset[:self._nv_threshold]
        victim = next((l for l in sram_ways if not l.valid), None)
        if victim is None:
            lru = self.array.replacement == "lru"
            victim = min(sram_ways,
                         key=lambda l: l.use_stamp if lru else l.fill_stamp)
        cycles = 0
        if victim.valid and victim.dirty:
            dst = next((l for l in cset[self._nv_threshold:]
                        if not (l.valid and l.dirty)), None)
            if dst is not None:
                dst.tag = victim.tag
                dst.valid = True
                dst.dirty = True
                dst.data = list(victim.data)
                dst.use_stamp = victim.use_stamp
                dst.fill_stamp = victim.fill_stamp
                self.migrations += 1
                cycles += self.nv_params.hit_write_cycles
                self.stats.cache_write_energy_nj += (
                    self.nv_params.write_energy_nj)
            else:
                self.stats.dirty_evictions += 1
                self.nvm.write_line(self.array.line_addr(victim), victim.data)
                cycles += self.posted_evict_cycles
        data, fetch_cycles = self.nvm.read_line(addr & self._line_mask,
                                                self._wpl)
        lineno = addr >> self.array.line_shift
        victim.tag = lineno
        victim.valid = True
        victim.dirty = False
        victim.data = list(data)
        self.array._stamp += 1
        victim.use_stamp = victim.fill_stamp = self.array._stamp
        return (victim, cycles + fetch_cycles)

    # JIT checkpoint only moves the dirty *SRAM* lines ------------------
    def reserve_lines(self) -> int:
        # at most one dirty SRAM line per set survives migration
        return self.geometry.n_sets

    def flush_for_checkpoint(self, now: int) -> FlushReport:
        report = FlushReport()
        self._backup = []
        for set_index, cset in enumerate(self.array.sets):
            for way, line in enumerate(cset):
                if not (line.valid and line.dirty):
                    continue
                if way >= self._nv_threshold:
                    continue  # NV ways survive power failure in place
                self._backup.append((line.tag, list(line.data), True))
                report.lines_flushed += 1
                report.words_flushed += len(line.data)
                report.cycles += self.params.ckpt_line_cycles
                report.extra_energy_nj += self.params.ckpt_line_energy_nj
        self.stats.cache_write_energy_nj += report.extra_energy_nj
        return report

    def on_power_loss(self) -> None:
        # SRAM ways are lost; NV ways keep their contents
        for cset in self.array.sets:
            for line in cset[:self._nv_threshold]:
                line.invalidate()

    def on_boot(self, first: bool) -> int:
        # restore backed-up SRAM lines into (now empty) SRAM ways only, so
        # surviving dirty NV lines are never silently clobbered
        cycles = 0
        for lineno, data, dirty in self._backup:
            cset = self.array.sets[lineno & self.array.set_mask]
            for line in cset[:self._nv_threshold]:
                if not line.valid:
                    line.tag = lineno
                    line.valid = True
                    line.dirty = dirty
                    line.data = list(data)
                    cycles += self.params.restore_line_cycles
                    self.stats.cache_write_energy_nj += (
                        self.params.restore_line_energy_nj)
                    break
        self._backup = []
        return cycles

    def leakage_w(self) -> float:
        sram_frac = self._nv_threshold / self.geometry.assoc
        return (self.params.leakage_w * sram_frac
                + self.nv_params.leakage_w * (1 - sram_frac))
