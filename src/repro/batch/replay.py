"""Replay core: one sweep instance advancing over a shared guest stream.

A :class:`ReplayCore` presents the exact ``run_chunk`` surface
:class:`~repro.sim.system.System` drives - retired count, cycle delta,
``instret``/``ic_fetches``/``ic_misses`` counters, ``halted``,
``flush_icache``/``restore_arch_state`` - but instead of interpreting
instructions it walks the recorded event list, calling the instance's
*own* memory system (the real cache design) for every recorded
load/store and maintaining the instance's *own* I-cache residency. All
per-instance divergence the paper's designs exhibit - outage timing,
store stalls, threshold adaptation, checkpoint flushes - lives in the
design/capacitor objects and in ``System.run`` itself, both of which
are untouched; the replay core only removes the redundant re-execution
of identical arithmetic.

Cycle bookkeeping splits the interpreter's single counter in three:

* the stream's *static* prefix sum (``cum_cycles``), this cost family's
  half of the shared expansion;
* ``_dyn``, this instance's accumulated dynamic cycles (I-cache miss
  penalties + memory latencies, which differ per design);
* ``_offset``, which absorbs the external ``core.cycle +=`` additions
  ``System.run`` makes for restores and reboots - recomputed as
  ``self.cycle - (static + _dyn)`` only when the entry cycle differs
  from the one the previous chunk left (i.e. exactly when an external
  addition happened).

The ``now`` passed to each memory call is ``cum_cycles[i] - mem_issue +
_dyn + _offset`` - the interpreter issues the call after charging the
instruction's base cost, before ``mem_issue`` - which equals the
interpreter's cycle counter at the same call, bit for bit.

One asymmetry needs care: after :meth:`flush_icache` the interpreter
re-fetches the current line even when it matches the previous
instruction's line, a fetch the stream has no event for (events only
mark line *changes*). The flush therefore sets a pending-refetch flag,
and the next chunk synthesizes the fetch unless a line event already
sits at the resume position.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.batch.stream import GuestStream
from repro.cpu.core import ARCH_REGS, _ILINE_SHIFT
from repro.cpu.costs import CycleCosts
from repro.isa.program import Program


class ReplayCore:
    """Drop-in ``System`` core replaying a shared :class:`GuestStream`."""

    def __init__(self, program: Program, memsys, costs: CycleCosts,
                 stream: GuestStream):
        self.program = program
        self.memsys = memsys
        self.costs = costs
        self.stream = stream
        self.regs: list[int] = [0] * (ARCH_REGS + 1)
        self.cycle = 0
        self.instret = 0
        self.halted = stream.n_total == 0
        self.mem_bytes = program.mem_bytes
        self.ic_lines: set[int] = set()
        self.ic_last = -1
        self.ic_fetches = 0
        self.ic_misses = 0
        self.n_loads = 0
        self.n_stores = 0
        self.n_branches = 0
        self._p = 0  # stream position == retired instructions
        self._ei = 0  # next event index
        self._dyn = 0  # accumulated per-instance dynamic cycles
        self._offset = 0  # external-cycle absorber (see module doc)
        self._cycle_seen = 0  # the cycle the last chunk left behind
        self._pending_fetch = False
        # residency-set provenance, maintained for the lockstep tier:
        # ic_lines always equals {lines of line events in
        # [_flush_ei, _ei)} plus _synth_line (when >= 0), because the
        # set only grows between flushes and every addition comes from
        # a walked line event or the single post-flush synthesized
        # fetch. The lockstep column keeps only these two scalars and
        # reconstructs the set on eviction.
        self._flush_ei = 0
        self._synth_line = -1
        self._c_imiss = costs.ifetch_miss
        # bound lazily on the first chunk: a lockstep PREP_HOOK may wrap
        # the design's methods after this core is built
        self._load = None
        self._store = None
        self._sm = None

    # -- the System-facing surface (mirrors InOrderCore) ---------------
    @property
    def arch_regs(self) -> list[int]:
        """Zero until HALT retires (mid-run registers are observable
        only through NVFF checkpoints, which replay round-trips)."""
        return self.regs[:ARCH_REGS]

    @property
    def pc(self) -> int:
        """The architectural pc at the current stream position (the
        next instruction to retire; the HALT pc once halted) -
        recovered from the block-entry prefix arrays, matching the
        interpreter's ``pc`` at every chunk boundary."""
        s = self.stream
        p = self._p
        if p >= s.n_total and p:
            p = s.n_total - 1  # after HALT the interpreter's pc rests on it
        j = bisect_right(s.blk_g, p) - 1
        if j < 0:
            return 0
        return s.blk_pc[j] + (p - s.blk_g[j])

    def snapshot_arch_state(self) -> tuple[list[int], int]:
        return (self.regs[:ARCH_REGS], self.pc)

    def restore_arch_state(self, state: tuple[list[int], int]) -> None:
        # the stream position *is* the architectural state; the NVFF
        # round-trip System.run performs restores the same pc the
        # position already encodes, so there is nothing to write back
        pass

    def flush_icache(self) -> None:
        self.ic_lines.clear()
        self.ic_last = -1
        self._pending_fetch = True
        self._flush_ei = self._ei
        self._synth_line = -1

    # ------------------------------------------------------------------
    def run_chunk(self, max_instrs: int) -> tuple[int, int]:
        """Advance up to ``max_instrs`` recorded instructions."""
        if self.halted:
            return (0, 0)
        s = self.stream
        p0 = self._p
        n_total = s.n_total
        target = p0 + max_instrs
        if target > n_total:
            target = n_total
        cum = s.cum_cycles
        dyn = self._dyn
        cycle = self.cycle
        if cycle != self._cycle_seen:
            # System.run added cycles externally (restore / reboot /
            # on_boot) since the last chunk: fold them into the offset
            self._offset = cycle - ((cum[p0 - 1] if p0 else 0) + dyn)
        offset = self._offset
        events = s.events
        ne = s.n_events
        ei = self._ei
        ic_lines = self.ic_lines
        c_imiss = self._c_imiss
        c_mem = s.c_mem
        load = self._load
        if load is None:
            # first chunk: any wrapper around the design's methods is
            # installed by now, and nothing rebinds them mid-run
            mem = self.memsys
            load = self._load = mem.load
            self._store = mem.store
            self._sm = mem.store_masked
        store = self._store
        store_masked = self._sm
        fetches = 0
        misses = 0
        loads = 0
        stores = 0

        if self._pending_fetch:
            self._pending_fetch = False
            ev = events[ei] if ei < ne else None
            if ev is None or ev[0] != p0 or ev[1] != 0:
                # flushed, and the resume pc shares its predecessor's
                # line: the interpreter still re-fetches (ic_last = -1).
                # The line comes from the restored pc - the stream has no
                # event here precisely because the line did not change.
                line = self.pc >> _ILINE_SHIFT
                self._synth_line = line
                fetches += 1
                if line not in ic_lines:
                    ic_lines.add(line)
                    misses += 1
                    dyn += c_imiss

        while ei < ne:
            ev = events[ei]
            i = ev[0]
            if i >= target:
                break
            k = ev[1]
            if k == 1:
                _v, lat = load(ev[2], cum[i] - c_mem + dyn + offset)
                dyn += lat
                loads += 1
            elif k == 0:
                fetches += 1
                line = ev[2]
                if line not in ic_lines:
                    ic_lines.add(line)
                    misses += 1
                    dyn += c_imiss
            elif k == 2:
                dyn += store(ev[2], ev[3], cum[i] - c_mem + dyn + offset)
                stores += 1
            else:
                dyn += store_masked(ev[2], ev[3], ev[4],
                                    cum[i] - c_mem + dyn + offset)
                stores += 1
            ei += 1

        self._ei = ei
        self._dyn = dyn
        self._p = target
        self.ic_fetches += fetches
        self.ic_misses += misses
        self.n_loads += loads
        self.n_stores += stores
        self.n_branches = s.cum_branches[target - 1] if target else 0
        n = target - p0
        self.instret += n
        new_cycle = (cum[target - 1] if target else 0) + dyn + offset
        dcycles = new_cycle - cycle
        self.cycle = new_cycle
        self._cycle_seen = new_cycle
        if target == n_total:
            self.halted = True
            self.regs[:ARCH_REGS] = s.final_regs
        return (n, dcycles)
