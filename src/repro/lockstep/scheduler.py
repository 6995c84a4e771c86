"""Lockstep scheduler: episode-driven column driver over a shared stream.

A *column* is a set of batched sweep instances replaying the same
:class:`~repro.batch.stream.StreamSkeleton` (across cost families - the
skeleton is cost-independent). One generated engine
(:mod:`repro.lockstep.codegen`) advances the whole column - windows,
walk, chunk epilogues, capacitor accounting - and yields *episodes*
whenever an instance needs the cold lifecycle machinery:

* **halt** - the instance retired its last instruction; the scheduler
  syncs its ``ReplayCore`` from the slot mirrors and runs halt
  finalization + result assembly.
* **outage** - the chunk accounting drained the capacitor to the backup
  level; the scheduler syncs the core and runs the outage lifecycle
  (checkpoint, recharge, reboot, adaptation) on the same ``System``
  object the serial path drives, then republishes the slot mirrors the
  reboot changed (wall time, baselines, flush epoch, cycle).
* **eviction** - an instance that diverges (a :class:`LockstepBail`
  from a wrapped design method, a forced bail from the test seam)
  leaves the column at an exact event index: its core is rewound to the
  open window's state (events already applied stay applied - the
  position fields are set so ``run_chunk`` finishes exactly the
  interrupted chunk, and the residency set is reconstructed from the
  flush epoch), and it continues on the ordinary per-instance replay
  path.
* **rejoin** - an evicted instance whose solo chunks land it exactly on
  the column's cursor at a boundary re-enters the column there; the
  engine's alive flags make membership changes free (no recompile).
* **fault isolation** - a non-bail exception is terminal for its
  instance only (boxed like the serial path would box it); the event it
  faulted on is applied out of line to the instances behind it in the
  column and the walk resumes one event later.

Everything here is driven through the same ``System`` objects the
serial path runs - ``_begin`` / ``_outage_reboot`` / ``_halt_finalize``
/ ``_finish`` are the single source of truth for lifecycle arithmetic -
so every ``RunResult`` field is bit-identical to serial execution.
"""

from __future__ import annotations

import traceback

from repro.batch.engine import build_replay_system
from repro.cpu.core import ARCH_REGS
from repro.lockstep.codegen import make_engine
from repro.lockstep.state import (S_CIMISS, S_CLT, S_CMEM, S_CSEEN, S_CT,
                                  S_CUM, S_CYC, S_DYN, S_FL, S_IR, S_LC,
                                  S_LF, S_LIM, S_LIR, S_LNV, S_LOAD,
                                  S_MISSES, S_OFFSET, S_P, S_PF, S_SM,
                                  S_STATS, S_STORE, S_SY, S_T, S_TG,
                                  S_TSF, S_W, build_slot, event_counts,
                                  event_prev)
from repro.sim.results import EnergyBreakdown, RunResult


class LockstepBail(Exception):
    """Evict the raising instance from its column to the per-instance
    replay path (it may rejoin at a later chunk boundary). Raised by
    test seams or design wrappers; never by the stock designs."""


#: test seam: ``BAIL_HOOK(task) -> event index | None`` forces the
#: instance out of the column exactly when the cursor reaches that
#: event (0 = before the first event).
BAIL_HOOK = None

#: test seam: ``PREP_HOOK(task, system)`` runs after each instance's
#: system is built, *before* :func:`~repro.lockstep.state.build_slot`
#: picks its mode - the place to wrap ``design.load``/``store`` for
#: fault injection. A wrapped method is an instance attribute, so the
#: instance runs in ``call`` mode and every access reaches the wrapper.
PREP_HOOK = None

#: the most instances one column runs; the batch engine cuts a wider
#: cluster into contiguous columns of this width. The generated engine's
#: source, its per-yield mirror sync and its per-round target scan all
#: grow with the width, and sharing one walk over more instances saves
#: less than that costs (docs/parallel-execution.md, "Column width is
#: bounded", has the measured curves).
COLUMN_WIDTH = 8

_STATS = {"columns": 0, "instances": 0, "segments": 0, "evictions": 0,
          "rejoins": 0, "faults": 0, "solo_chunks": 0,
          "column_chunks": 0}

#: shared-cell layout (see codegen): the event cursor, the forced-bail
#: event limit, the instruction cursor (last closed boundary), the
#: sync-mode flag, and the chunk/round counters
C_EI, C_BLIM, C_CUR, C_SYNC, C_CHUNKS, C_ROUNDS = range(6)


def lockstep_stats() -> dict:
    """Scheduler counters (tests/benchmarks)."""
    return dict(_STATS)


def clear_lockstep_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def _apply_event(sl, po, ei: int, ev) -> None:
    """Apply one stream event to one instance through its slot - the
    ``ReplayCore.run_chunk`` event body with residency decided by the
    shared previous-occurrence array. Used off the engine fast path
    (fault recovery for the instances behind a faulting one)."""
    k = ev[1]
    dyn = sl[S_DYN]
    if k == 0:
        if po[ei] < sl[S_FL] and ev[2] != sl[S_SY]:
            sl[S_MISSES] += 1
            sl[S_DYN] = dyn + sl[S_CIMISS]
        return
    now = sl[S_CUM][ev[0]] - sl[S_CMEM] + dyn + sl[S_OFFSET]
    if k == 1:
        _v, lat = sl[S_LOAD](ev[2], now)
        sl[S_DYN] = dyn + lat
    elif k == 2:
        sl[S_DYN] = dyn + sl[S_STORE](ev[2], ev[3], now)
    else:
        sl[S_DYN] = dyn + sl[S_SM](ev[2], ev[3], ev[4], now)


class _Inst:
    """One sweep point's full lifecycle state inside a column."""

    __slots__ = (
        "task", "config", "system", "core", "design", "stats", "nvm",
        "trace", "cap", "sl", "sig", "res", "bd",
        # hoisted accounting constants (the serial loop's local binds,
        # used by the solo path; the engine carries them in the slot)
        "core_leak_w", "design_leak_w", "compute_nj", "ifetch_nj",
        "ifetch_miss_nj", "worst_instr_nj", "chunk_instrs",
        "max_instructions",
        # accounting accumulators (the serial loop's baselines; live in
        # the slot mirrors while in-column, here while solo)
        "last_instret", "last_fetch", "last_imiss", "last_cache",
        "last_nvm", "compute_total", "cache_leak_total", "t", "period",
        "no_progress",
        # divergence bookkeeping
        "pending_target", "bail_ei", "outcome", "done",
    )


def _build_inst(program, task, config, stream) -> _Inst:
    """Build one replay instance and run its pre-loop lifecycle,
    mirroring ``build_replay_system`` + the ``System.run`` prologue
    exactly."""
    system = build_replay_system(program, task, config, stream)
    if PREP_HOOK is not None:
        PREP_HOOK(task, system)
    inst = _Inst()
    inst.task = task
    inst.config = config
    inst.system = system
    inst.core = system.core
    design = inst.design = system.design
    inst.stats = design.stats
    inst.nvm = design.nvm
    trace = inst.trace = system.trace
    inst.cap = system.capacitor
    inst.sl, inst.sig = build_slot(system, stream)
    em = config.energy
    inst.core_leak_w = em.core_leakage_w
    inst.design_leak_w = design.leakage_w()
    inst.compute_nj = em.compute_nj
    inst.ifetch_nj = em.ifetch_nj
    inst.ifetch_miss_nj = em.ifetch_miss_nj
    inst.worst_instr_nj = em.worst_instr_nj
    inst.chunk_instrs = config.chunk_instrs
    inst.max_instructions = config.max_instructions
    inst.res = RunResult(program=program.name, design=design.name,
                         trace=trace.name if trace else "no-failure")
    inst.bd = EnergyBreakdown()
    inst.last_instret = 0
    inst.last_fetch = 0
    inst.last_imiss = 0
    inst.last_cache = 0.0
    inst.last_nvm = 0.0
    inst.compute_total = 0.0
    inst.cache_leak_total = 0.0
    inst.t = system._begin(inst.res)
    inst.sl[S_T] = inst.t
    inst.period = system._new_period()
    inst.no_progress = 0
    inst.pending_target = None
    inst.bail_ei = BAIL_HOOK(task) if BAIL_HOOK is not None else None
    inst.outcome = None
    inst.done = False
    return inst


class _Column:
    """One lockstep column plus its evicted solo satellites."""

    def __init__(self, program, entries):
        self.program = program
        skel = entries[0][2].skel
        self.events = skel.events
        self.ne = skel.n_events
        self.evf, self.evl, self.evs = event_counts(entries[0][2])
        self.po = event_prev(entries[0][2])
        self.cell = [0, self.ne + 1, 0, 0, 0, 0]
        self.insts: list[_Inst] = []    # every instance, entry order
        self.members: list[_Inst] = []  # built instances, engine order
        self.solos: list[_Inst] = []    # evicted from the column
        for task, config, stream in entries:
            try:
                inst = _build_inst(program, task, config, stream)
            except Exception as exc:
                inst = _Inst()
                inst.task = task
                inst.outcome = ("err", exc, traceback.format_exc())
                inst.done = True
                self.insts.append(inst)
                continue
            self.insts.append(inst)
            self.members.append(inst)
            if inst.core.halted:  # empty stream: serial-shape solo run
                inst.sl[S_W] = 0
                self.solos.append(inst)
        self._update_blim()

    def _update_blim(self) -> None:
        """The engine stops the walk at the smallest pending forced-bail
        event index (clamped to the stream end so late bails still fire
        at the final boundary)."""
        pend = [min(i.bail_ei, self.ne) for i in self.members
                if i.bail_ei is not None and i.sl[S_W]]
        self.cell[C_BLIM] = min(pend) if pend else self.ne + 1

    # -- core synchronization ------------------------------------------
    def _sync_core(self, inst: _Inst) -> None:
        """Publish an instance's slot mirrors to its ``ReplayCore`` -
        the state the core would hold had it replayed alone. At a
        boundary (halt/outage) the mirrors hold the closed chunk; mid-
        walk (eviction) they hold the open window, so position/cycle
        rewind to the chunk entry while the counters cover the events
        already applied - ``run_chunk`` then finishes exactly the
        interrupted window."""
        sl = inst.sl
        core = inst.core
        ei = self.cell[C_EI]
        core._p = sl[S_P]
        core._ei = ei
        core._dyn = sl[S_DYN]
        core._offset = sl[S_OFFSET]
        # entry cycle restored *and* marked seen: run_chunk must not
        # recompute the offset (the slot value is authoritative)
        core.cycle = sl[S_CYC]
        core._cycle_seen = sl[S_CYC]
        core.instret = sl[S_IR]
        core.ic_fetches = self.evf[ei] + sl[S_TSF]
        core.ic_misses = sl[S_MISSES]
        core.n_loads = self.evl[ei]
        core.n_stores = self.evs[ei]
        p = sl[S_P]
        core.n_branches = core.stream.cum_branches[p - 1] if p else 0
        core._pending_fetch = bool(sl[S_PF])
        core._flush_ei = sl[S_FL]
        core._synth_line = sl[S_SY]

    # -- episode handlers ----------------------------------------------
    def _finish_inst(self, j: int) -> None:
        """Halt episode: the chunk accounting is done; run the halt
        lifecycle and assemble the result."""
        inst = self.members[j]
        sl = inst.sl
        self._sync_core(inst)
        core = inst.core
        core.halted = True
        core.regs[:ARCH_REGS] = core.stream.final_regs
        try:
            t = inst.system._halt_finalize(sl[S_T])
            res = inst.system._finish(inst.res, inst.bd, t, inst.period,
                                      sl[S_CT], sl[S_CLT])
        except Exception as exc:
            self._fail_member(j, exc)
            return
        inst.outcome = ("ok", res)
        inst.done = True

    def _outage(self, j: int) -> None:
        """Outage episode: run the power-failure lifecycle on the
        instance's own ``System`` and republish the mirrors the reboot
        changed (the engine re-reads them on resume)."""
        inst = self.members[j]
        sl = inst.sl
        self._sync_core(inst)
        try:
            (t, inst.period, inst.no_progress, lc,
             lnv) = inst.system._outage_reboot(
                inst.res, inst.bd, sl[S_T], inst.period,
                inst.no_progress)
        except Exception as exc:
            self._fail_member(j, exc)
            return
        core = inst.core
        sl[S_T] = t
        sl[S_LC] = lc
        sl[S_LNV] = lnv
        inst.stats = inst.design.stats
        sl[S_STATS] = inst.stats
        sl[S_CYC] = core.cycle  # restore/on_boot cycles: the next open
        sl[S_CSEEN] = core._cycle_seen  # ...recomputes the offset
        sl[S_PF] = 1 if core._pending_fetch else 0
        sl[S_FL] = core._flush_ei
        sl[S_SY] = core._synth_line

    def _fail_member(self, j: int, exc: Exception) -> None:
        """Terminal fault: box the error exactly as the serial path's
        ``_outcome`` would and drop the instance."""
        inst = self.members[j]
        inst.sl[S_W] = 0
        inst.outcome = ("err", exc,
                        "".join(traceback.format_exception(exc)))
        inst.done = True

    def _evict(self, inst: _Inst) -> None:
        """Rewind the instance's core to its open window and hand it to
        the per-instance replay path. Events already applied stay
        applied: position/counter fields are set so ``run_chunk``
        resumes mid-chunk and finishes the window exactly, and the
        residency set is reconstructed from the flush epoch."""
        sl = inst.sl
        self._sync_core(inst)
        core = inst.core
        ic = core.ic_lines
        ic.clear()
        events = self.events
        for idx in range(sl[S_FL], self.cell[C_EI]):
            ev = events[idx]
            if ev[1] == 0:
                ic.add(ev[2])
        if sl[S_SY] >= 0:
            ic.add(sl[S_SY])
        inst.pending_target = sl[S_TG]
        inst.t = sl[S_T]
        inst.last_instret = sl[S_LIR]
        inst.last_fetch = sl[S_LF]
        inst.last_imiss = sl[S_LIM]
        inst.last_cache = sl[S_LC]
        inst.last_nvm = sl[S_LNV]
        inst.compute_total = sl[S_CT]
        inst.cache_leak_total = sl[S_CLT]
        inst.stats = inst.design.stats
        sl[S_W] = 0
        self.solos.append(inst)
        _STATS["evictions"] += 1

    def _fault(self, j: int, exc: Exception) -> None:
        """Mid-walk fault at event ``cell[ei]``: divert the faulting
        instance, apply the event out of line to the instances behind
        it, and resume the walk one event later."""
        _STATS["faults"] += 1
        ei = self.cell[C_EI]
        if j < 0:
            raise exc  # not attributable to one instance
        if isinstance(exc, LockstepBail):
            self._evict(self.members[j])
        else:
            self._fail_member(j, exc)
        ev = self.events[ei]
        for j2 in range(j + 1, len(self.members)):
            sl2 = self.members[j2].sl
            if not sl2[S_W]:
                continue
            try:
                _apply_event(sl2, self.po, ei, ev)
            except Exception as exc2:
                if isinstance(exc2, LockstepBail):
                    self._evict(self.members[j2])
                else:
                    self._fail_member(j2, exc2)
        self.cell[C_EI] = ei + 1

    def _bails(self) -> None:
        """Bail episode: the walk reached the forced-bail limit; evict
        the flagged instances there and raise the limit."""
        ei = self.cell[C_EI]
        for inst in self.members:
            if (inst.bail_ei is not None and inst.sl is not None
                    and inst.sl[S_W] and min(inst.bail_ei, self.ne) <= ei):
                inst.bail_ei = None
                self._evict(inst)
        self._update_blim()

    def _handle(self, episodes: list) -> None:
        for ep in episodes:
            kind = ep[0]
            if kind == "halt":
                self._finish_inst(ep[1])
            elif kind == "outage":
                self._outage(ep[1])
            elif kind == "err":
                self._fail_member(ep[1], ep[2])
            elif kind == "fault":
                self._fault(ep[1], ep[2])
            else:
                self._bails()
        if self.solos:
            self._advance_solos()
        # sync mode: yield at every boundary while a live solo could
        # still rejoin a live column
        live = any(m.sl[S_W] for m in self.members)
        pending = any(not i.done for i in self.solos)
        self.cell[C_SYNC] = 1 if (live and pending) else 0

    # -- the solo path --------------------------------------------------
    def _solo_chunk(self, inst: _Inst) -> None:
        """One chunk on the ordinary replay path: finish a pending
        (interrupted) window first, then natural serial budgets."""
        core = inst.core
        if inst.pending_target is not None:
            budget = inst.pending_target - core._p
            inst.pending_target = None
        elif inst.trace is None:
            budget = 65536
        else:
            headroom = inst.cap.energy - inst.system._e_backup_level
            budget = min(inst.chunk_instrs,
                         max(2, int(headroom / inst.worst_instr_nj)))
        _n, dcycles = core.run_chunk(budget)
        _STATS["solo_chunks"] += 1
        self._account(inst, dcycles)

    def _account(self, inst: _Inst, dcycles: int) -> None:
        """The ``System.run`` post-chunk block for a solo instance (the
        engine inlines the same arithmetic for column instances)."""
        core = inst.core
        system = inst.system
        trace = inst.trace
        instret = core.instret
        if instret > inst.max_instructions:
            from repro.errors import ExecutionError
            raise ExecutionError(
                f"{self.program.name}: exceeded instruction budget")
        stats = inst.stats
        d_compute = ((instret - inst.last_instret) * inst.compute_nj
                     + (core.ic_fetches - inst.last_fetch)
                     * inst.ifetch_nj
                     + (core.ic_misses - inst.last_imiss)
                     * inst.ifetch_miss_nj
                     + inst.core_leak_w * dcycles)
        d_leak_cache = inst.design_leak_w * dcycles
        inst.cache_leak_total += d_leak_cache
        cache_now = (stats.cache_read_energy_nj
                     + stats.cache_write_energy_nj)
        nvm = inst.nvm
        nvm_now = nvm.energy_read_nj + nvm.energy_write_nj
        d_cache = cache_now - inst.last_cache
        d_nvm = nvm_now - inst.last_nvm
        inst.compute_total += d_compute
        inst.last_instret = instret
        inst.last_fetch = core.ic_fetches
        inst.last_imiss = core.ic_misses
        inst.last_cache = cache_now
        inst.last_nvm = nvm_now
        cap = inst.cap
        if trace is not None:
            cap.consume(d_compute + d_leak_cache + d_cache + d_nvm)
            cap.harvest(trace.energy_nj(inst.t, inst.t + dcycles))
        inst.t += dcycles
        if core.halted:
            inst.t = system._halt_finalize(inst.t)
            res = system._finish(inst.res, inst.bd, inst.t, inst.period,
                                 inst.compute_total,
                                 inst.cache_leak_total)
            inst.outcome = ("ok", res)
            inst.done = True
            return
        if trace is not None and cap.energy <= system._e_backup_level:
            (inst.t, inst.period, inst.no_progress, inst.last_cache,
             inst.last_nvm) = system._outage_reboot(
                inst.res, inst.bd, inst.t, inst.period,
                inst.no_progress)
            inst.stats = inst.design.stats

    def _advance_solos(self) -> None:
        """Run solos up to the column cursor; rejoin exact landings."""
        cursor = self.cell[C_CUR]
        ei = self.cell[C_EI]
        live = any(m.sl[S_W] for m in self.members)
        rejoin = []
        for inst in self.solos:
            if inst.done:
                continue
            try:
                while not inst.done and inst.core._p < cursor:
                    self._solo_chunk(inst)
            except Exception as exc:
                inst.outcome = ("err", exc, traceback.format_exc())
                inst.done = True
                continue
            if not inst.done and live and inst.core._p == cursor:
                rejoin.append(inst)
        for inst in rejoin:
            core = inst.core
            assert core._ei == ei, "rejoin cursor mismatch"
            self.solos.remove(inst)
            sl = inst.sl
            sl[S_TG] = cursor
            sl[S_P] = core._p
            sl[S_IR] = core.instret
            sl[S_DYN] = core._dyn
            sl[S_OFFSET] = core._offset
            sl[S_MISSES] = core.ic_misses
            sl[S_CYC] = core.cycle
            sl[S_CSEEN] = core._cycle_seen
            sl[S_T] = inst.t
            sl[S_FL] = core._flush_ei
            sl[S_SY] = core._synth_line
            sl[S_PF] = 1 if core._pending_fetch else 0
            sl[S_TSF] = core.ic_fetches - self.evf[ei]
            sl[S_LIR] = inst.last_instret
            sl[S_LF] = inst.last_fetch
            sl[S_LIM] = inst.last_imiss
            sl[S_LC] = inst.last_cache
            sl[S_LNV] = inst.last_nvm
            sl[S_CT] = inst.compute_total
            sl[S_CLT] = inst.cache_leak_total
            sl[S_STATS] = inst.stats
            sl[S_W] = 1
            inst.pending_target = None
            _STATS["rejoins"] += 1

    # -- driver ---------------------------------------------------------
    def run(self) -> None:
        _STATS["columns"] += 1
        _STATS["instances"] += sum(1 for m in self.members
                                   if m.sl[S_W])
        if any(m.sl[S_W] for m in self.members):
            sig = tuple(m.sig for m in self.members)
            gen = make_engine(sig, self.events, self.ne, self.po,
                              self.evf, self.cell,
                              [m.sl for m in self.members],
                              self.program.name)
            try:
                while True:
                    self._handle(gen.send(None))
            except StopIteration:
                pass
            _STATS["column_chunks"] += self.cell[C_CHUNKS]
            _STATS["segments"] += self.cell[C_ROUNDS]
        for inst in self.solos:
            if inst.done:
                continue
            try:
                while not inst.done:
                    self._solo_chunk(inst)
            except Exception as exc:
                inst.outcome = ("err", exc, traceback.format_exc())
                inst.done = True


def run_column(program, entries) -> list[tuple]:
    """Run one column over ``entries`` (``(task, config, stream)``
    triples sharing a skeleton) and return ``(task, outcome)`` pairs in
    entry order, outcomes boxed like the batch engine's ``_outcome``."""
    col = _Column(program, entries)
    col.run()
    out = []
    for inst in col.insts:
        assert inst.done, "lockstep instance ended without an outcome"
        out.append((inst.task, inst.outcome))
    return out
