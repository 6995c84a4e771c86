"""WL-Cache: the paper's contribution (§3-§5).

A volatile SRAM write-back cache whose dirty-line population is bounded by
``maxline`` and drained toward ``waterline`` with asynchronous write-backs:

* A store that dirties a line inserts the line number into the
  :class:`~repro.core.dirty_queue.DirtyQueue`; if the queue already holds
  ``maxline`` entries the store *stalls* until an in-flight write-back ACKs
  (§5.1).
* When occupancy exceeds ``waterline``, one entry is selected (FIFO/LRU),
  its cache line is marked clean *first* (§5.3 step 1 - the correctness
  linchpin), and the line is written back to NVM asynchronously, overlapped
  with subsequent instructions (ILP). The queue entry is removed only when
  the ACK arrives (step 4), so JIT checkpointing always covers in-flight
  data.
* On an imminent power failure, the JIT checkpoint flushes the lines named
  by the queue (stale entries ignored) plus any in-flight write-back
  snapshots - at most ``maxline`` distinct lines, which is exactly what the
  ``Vbackup`` energy reserve is sized for.

NVM write ordering: the model applies asynchronous write-back data to NVM
at ACK time (so a crash between issue and ACK genuinely loses the transfer,
exercising the recovery protocol). Same-line orderings that real memory
controllers enforce are preserved by retiring an in-flight write-back for a
line before that line is evicted or re-filled.
"""

from __future__ import annotations

from collections import deque

from repro.caches.base import CachedMemorySystem
from repro.core.dirty_queue import DQ_LRU, DirtyQueue, DQEntry
from repro.errors import ConfigError, ReproError
from repro.mem.memsys import FlushReport

_FULL = 0xFFFFFFFF


class PendingWB:
    """An issued asynchronous write-back awaiting its ACK."""

    __slots__ = ("ack", "lineno", "addr", "data", "entry")

    def __init__(self, ack: int, lineno: int, addr: int, data: list[int],
                 entry: DQEntry):
        self.ack = ack
        self.lineno = lineno
        self.addr = addr
        self.data = data
        self.entry = entry


class WLCache(CachedMemorySystem):
    """Write-Light Cache with DirtyQueue, maxline and waterline."""

    name = "WL-Cache"
    volatile_cache = True

    def __init__(self, *args, dq_capacity: int = 8, maxline: int = 6,
                 waterline: int | None = None, dq_policy: str = "fifo",
                 dq_access_energy_nj: float = 0.0008,
                 dq_lru_extra_energy_nj: float = 0.004,
                 dq_leakage_w: float = 0.0001, **kwargs):
        super().__init__(*args, **kwargs)
        self.dq = DirtyQueue(dq_capacity, dq_policy)
        self.dq_access_energy_nj = dq_access_energy_nj
        self.dq_lru_extra_energy_nj = dq_lru_extra_energy_nj
        self.dq_leakage_w = dq_leakage_w
        self.maxline = maxline
        self.waterline = waterline if waterline is not None else maxline - 1
        self._check_thresholds(self.maxline, self.waterline)
        # ACKs arrive in issue order, so retirement is almost always a
        # popleft; the deque is never rebound (cleared in place) because
        # the lockstep column engine binds the object itself.
        self.pending: deque[PendingWB] = deque()
        self._channel_free = 0  # cycle when the NVM write channel is idle
        #: optional hook consulted before stalling; returning True raises
        #: maxline by one (dynamic adaptation, §4)
        self.dynamic_policy = None
        # statistics beyond MemStats
        self.stall_events = 0
        self.sync_cleans = 0
        self.dirty_highwater = 0

    # ------------------------------------------------------------------
    def _check_thresholds(self, maxline: int, waterline: int) -> None:
        if not 1 <= maxline <= self.dq.capacity:
            raise ConfigError(
                f"maxline must be in 1..|DirtyQueue|={self.dq.capacity}, "
                f"got {maxline}")
        if not 0 <= waterline <= maxline:
            raise ConfigError(
                f"waterline must be in 0..maxline={maxline}, got {waterline}")

    def set_thresholds(self, maxline: int, waterline: int | None = None) -> None:
        """Reconfigure maxline/waterline (boot-time adaptation, §4)."""
        waterline = maxline - 1 if waterline is None else waterline
        self._check_thresholds(maxline, waterline)
        self.maxline = maxline
        self.waterline = waterline

    # ------------------------------------------------------------------
    # pending write-back machinery
    # ------------------------------------------------------------------
    def _retire_pending(self, p: PendingWB) -> None:
        """Apply a write-back's data to NVM and free its queue entry."""
        self.nvm.write_line(p.addr, p.data)
        pending = self.pending
        if pending and pending[0] is p:
            pending.popleft()  # in-order ACK: the common case, O(1)
        else:
            pending.remove(p)  # same-line flush retiring mid-queue
        if p.entry.queued:
            self.dq.remove(p.entry)

    def _retire_acks(self, now: int) -> None:
        pending = self.pending
        while pending and pending[0].ack <= now:
            self._retire_pending(pending[0])

    def _issue_writeback(self, t: int) -> PendingWB | None:
        """Clean one dirty line asynchronously (§5.3 steps 1-2).

        Returns the issued :class:`PendingWB`, or None when every dirty
        line is already in flight (observers rely on the return value
        rather than peeking at ``pending``).
        """
        if self.dq.policy == DQ_LRU:
            self.stats.cache_write_energy_nj += self.dq_lru_extra_energy_nj
        entry = self.dq.select_victim(self.array)
        if entry is None:
            return None
        line = self.array.peek(entry.lineno << self.array.line_shift)
        line.dirty = False  # step 1: mark clean BEFORE the write-back
        entry.in_flight = True
        addr = self.array.line_addr(line)
        ack = max(t, self._channel_free) + self.nvm.timings.line_write(
            len(line.data))
        self._channel_free = ack
        p = PendingWB(ack, entry.lineno, addr, list(line.data), entry)
        self.pending.append(p)
        self.stats.async_writebacks += 1
        return p

    def _ensure_slot(self, t: int) -> int:
        """Make room in the DirtyQueue for one new dirty line (§5.1).

        Returns stall cycles. Consults the dynamic-adaptation hook first;
        otherwise waits for the earliest in-flight ACK, or synchronously
        cleans a line when nothing is in flight.
        """
        stall = 0
        while self.dq.occupancy >= self.maxline:
            if (self.dynamic_policy is not None
                    and self.dynamic_policy.try_raise_maxline(self)):
                continue  # maxline grew; recheck
            if self.pending:
                p = self.pending[0]
                wait = p.ack - (t + stall)
                if wait > 0:
                    stall += wait
                    self.stall_events += 1
                self._retire_pending(p)
            else:
                entry = self.dq.select_victim(self.array)
                if entry is None:
                    if self.dq.occupancy >= self.maxline:
                        raise ReproError(
                            "DirtyQueue wedged: full of in-flight entries "
                            "with no pending write-backs")
                    continue
                # synchronous clean: no ILP available, pay the NVM write
                line = self.array.peek(entry.lineno << self.array.line_shift)
                line.dirty = False
                stall += self.nvm.write_line(self.array.line_addr(line),
                                             line.data)
                self.dq.remove(entry)
                self.sync_cleans += 1
                self.stall_events += 1
        self.stats.store_stall_cycles += stall
        return stall

    # ------------------------------------------------------------------
    # eviction/fill ordering overrides
    # ------------------------------------------------------------------
    def _flush_same_line_pending(self, lineno: int) -> None:
        if not self.pending:  # runs on every evict and fill: skip the scan
            return
        for p in [p for p in self.pending if p.lineno == lineno]:
            self._retire_pending(p)

    def _evict(self, line, now: int) -> int:
        # NVM same-address ordering: retire an older in-flight snapshot of
        # this line before writing the eviction data.
        self._flush_same_line_pending(line.tag)
        return super()._evict(line, now)

    def _fill(self, addr: int, now: int):
        # A re-fill must observe any in-flight write-back of the same line.
        self._flush_same_line_pending(addr >> self.array.line_shift)
        return super()._fill(addr, now)

    # ------------------------------------------------------------------
    # the write policy (§5.1)
    # ------------------------------------------------------------------
    def store(self, addr: int, value: int, now: int) -> int:
        return self.store_masked(addr, value, _FULL, now)

    def store_masked(self, addr: int, bits: int, mask: int, now: int) -> int:
        stats = self.stats
        stats.stores += 1
        stats.cache_write_energy_nj += self._e_write
        if self.pending:
            self._retire_acks(now)
        cycles = 0
        line = self._find(addr)
        if line is None:
            stats.write_misses += 1
            line, cycles = self._fill(addr, now)
        else:
            stats.write_hits += 1
        widx = (addr >> 2) & self._word_mask
        data = line.data
        if line.dirty:
            # same-dirty-line store: no DirtyQueue interaction (§5.1)
            data[widx] = (data[widx] & ~mask) | (bits & mask)
            return cycles + self._hit_write_cycles
        # clean -> dirty transition: needs a DirtyQueue slot
        cycles += self._ensure_slot(now + cycles)
        data[widx] = (data[widx] & ~mask) | (bits & mask)
        line.dirty = True
        self.dq.insert(line.tag)
        stats.cache_write_energy_nj += self.dq_access_energy_nj
        occ = self.dq.occupancy
        if occ > self.dirty_highwater:
            self.dirty_highwater = occ
        if occ > self.waterline:
            self._issue_writeback(now + cycles)
        return cycles + self._hit_write_cycles

    # ------------------------------------------------------------------
    # persistence protocol (§3.2)
    # ------------------------------------------------------------------
    def reserve_lines(self) -> int:
        # the JIT checkpoint writes at most maxline distinct lines
        return self.maxline

    def flush_for_checkpoint(self, now: int) -> FlushReport:
        report = FlushReport()
        # in-flight write-backs complete from the reserve (their entries are
        # still in the queue, so they are part of the maxline budget)
        for p in list(self.pending):
            self.nvm.write_line(p.addr, p.data)
            report.cycles += self.nvm.timings.line_write(len(p.data))
            report.lines_flushed += 1
            report.words_flushed += len(p.data)
        self.pending.clear()
        # then the dirty lines named by the DirtyQueue; a line that was both
        # in flight and re-dirtied is flushed twice, newest data last
        for lineno in self.dq.line_numbers():
            line = self.array.peek(lineno << self.array.line_shift)
            if line is None or not line.dirty:
                continue  # stale entry: safely ignored (§5.4)
            addr = self.array.line_addr(line)
            self.nvm.write_line(addr, line.data)
            line.dirty = False
            report.cycles += self.nvm.timings.line_write(len(line.data))
            report.lines_flushed += 1
            report.words_flushed += len(line.data)
        self.dq.clear()
        self._channel_free = 0
        return report

    def on_power_loss(self) -> None:
        super().on_power_loss()
        self.dq.clear()
        self.pending.clear()
        self._channel_free = 0

    def finalize(self, now: int) -> int:
        cycles = 0
        for p in list(self.pending):
            remaining = p.ack - now
            if remaining > 0:
                cycles += remaining
                now = p.ack
            self._retire_pending(p)
        self.dq.clear()
        self._channel_free = 0
        return cycles + super().finalize(now)

    def leakage_w(self) -> float:
        return self.params.leakage_w + self.dq_leakage_w

    # ------------------------------------------------------------------
    @property
    def dirty_count(self) -> int:
        """Number of currently dirty lines (for invariant checking)."""
        return len(self.array.dirty_lines())
