"""Replay core: one sweep point's core state over a shared guest stream.

A :class:`ReplayCore` stands where a ``System``'s interpreter core
would, but executes nothing: the point's generated lockstep engine
(:mod:`repro.lockstep.codegen`) walks the recorded event list, calling
the point's *own* memory system (the real cache design) for every
recorded load/store. Before each halt or outage lifecycle block the
engine writes its position and cycle into this core, and the ``System``
lifecycle blocks read and write it exactly as they would the
interpreter's: ``cycle``/``instret``/``halted``, the architectural
``pc`` and registers for the NVFF checkpoint, ``flush_icache`` and
``restore_arch_state``. All per-point divergence the paper's designs
exhibit - outage timing, store stalls, threshold adaptation, checkpoint
flushes - lives in the design/capacitor objects and in those lifecycle
blocks, both of which are untouched.

After :meth:`flush_icache` the interpreter re-fetches the current line
even when it matches the previous instruction's line, a fetch the
stream has no event for (events only mark line *changes*). The flush
therefore leaves a pending-refetch flag, and the engine synthesizes the
fetch after the lifecycle block returns unless a line event already
sits at the resume position.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.batch.stream import GuestStream
from repro.cpu.core import ARCH_REGS
from repro.cpu.costs import CycleCosts


class ReplayCore:
    """The ``System``-facing core state of one point replaying a shared
    :class:`GuestStream`."""

    def __init__(self, stream: GuestStream, costs: CycleCosts):
        self.stream = stream
        self.cycle = 0
        self.instret = 0  # == the stream position
        self.halted = False  # a recording always retires HALT
        self._pending_fetch = False  # a flush the engine has not consumed
        self._c_imiss = costs.ifetch_miss

    @property
    def arch_regs(self) -> list[int]:
        """The recorded final registers once HALT retired, zero before
        (mid-run registers are observable only through NVFF checkpoints,
        which replay round-trips)."""
        if self.halted:
            return list(self.stream.final_regs)
        return [0] * ARCH_REGS

    @property
    def pc(self) -> int:
        """The architectural pc at the current stream position (the
        next instruction to retire; the HALT pc once halted) -
        recovered from the block-entry indices and the recorded exit
        codes, matching the interpreter's ``pc`` at every chunk
        boundary."""
        s = self.stream
        p = self.instret
        if p >= s.n_total and p:
            p = s.n_total - 1  # after HALT the interpreter's pc rests on it
        j = bisect_right(s.blk_g, p) - 1
        if j < 0:
            return 0
        return (s.codes[j] >> 1) + (p - s.blk_g[j])

    def snapshot_arch_state(self) -> tuple[list[int], int]:
        return (self.arch_regs, self.pc)

    def restore_arch_state(self, state: tuple[list[int], int]) -> None:
        # the stream position *is* the architectural state; the NVFF
        # round-trip of an outage restores the same pc the position
        # already encodes, so there is nothing to write back
        pass

    def flush_icache(self) -> None:
        self._pending_fetch = True
