"""Lockstep scheduler: runs one sweep point on its generated engine.

:func:`run_column` builds the point's ``System`` - the object the
reference engine's ``System.run`` drives, with a
:class:`~repro.batch.replay.ReplayCore` over the kernel's shared stream
- and advances its generated engine (:mod:`repro.lockstep.codegen`),
which runs the chunks and yields an *episode* whenever the point needs
the cold lifecycle machinery:

* **halt** - the point retired its last instruction; the scheduler
  syncs its ``ReplayCore`` from the slot mirrors and runs halt
  finalization + result assembly.
* **outage** - the chunk accounting drained the capacitor to the backup
  level; the scheduler syncs the core and runs the outage lifecycle
  (checkpoint, recharge, reboot, adaptation) on the point's ``System``,
  then republishes the slot mirrors the reboot changed (wall time,
  baselines, cycle) and resumes the engine.
* **err** - a memory call or a chunk close raised; the point ends as
  that error, boxed like any exception from its build or lifecycle.

``_begin`` / ``_outage_reboot`` / ``_halt_finalize`` / ``_finish`` are
the single source of truth for lifecycle arithmetic, so every
``RunResult`` field is bit-identical to the reference engine.
"""

from __future__ import annotations

import traceback

from repro.batch.engine import build_replay_system
from repro.cpu.core import ARCH_REGS
from repro.lockstep.codegen import make_engine
from repro.lockstep.state import (S_CLT, S_CT, S_CYC, S_LC, S_LNV, S_P,
                                  S_STATS, S_T, build_slot, event_counts,
                                  event_prev)
from repro.sim.results import EnergyBreakdown, RunResult

#: test seam: ``PREP_HOOK(task, system)`` runs after each point's
#: system is built, *before* :func:`~repro.lockstep.state.build_slot`
#: picks its mode - the place to wrap ``design.load``/``store`` for
#: fault injection. A wrapped method is an instance attribute, so the
#: point runs in ``call`` mode and every access reaches the wrapper.
PREP_HOOK = None

#: ``columns`` counts run_column calls, ``instances`` the points whose
#: engine started, ``faults`` the points an engine ended with an error
#: and ``column_chunks`` the chunks the engines closed
_STATS = {"columns": 0, "instances": 0, "faults": 0, "column_chunks": 0}


def lockstep_stats() -> dict:
    """Scheduler counters (tests/benchmarks)."""
    return dict(_STATS)


def clear_lockstep_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def run_column(program, task, config, stream) -> tuple:
    """Run one sweep point on its generated engine and return its
    outcome, boxed like the batch engine's ``_outcome``: ``("ok",
    result)`` or ``("err", exc, formatted traceback)``."""
    _STATS["columns"] += 1
    cell = [0, 0]  # the engine's event index and closed-chunk count
    try:
        system = build_replay_system(program, task, config, stream)
        if PREP_HOOK is not None:
            PREP_HOOK(task, system)
        sl, sig = build_slot(system, stream)
        trace = system.trace
        res = RunResult(program=program.name, design=system.design.name,
                        trace=trace.name if trace else "no-failure")
        bd = EnergyBreakdown()
        sl[S_T] = system._begin(res)
        period = system._new_period()
        no_progress = 0
        gen = make_engine(sig, stream.events, stream.n_events,
                          event_prev(stream), event_counts(stream), cell,
                          sl, program.name)
        _STATS["instances"] += 1
        core = system.core
        while True:
            episode = gen.send(None)
            if episode[0] == "err":
                _STATS["faults"] += 1
                raise episode[1]
            # the boundary the lifecycle blocks read
            core._p = core.instret = sl[S_P]
            core._ei = cell[0]
            core.cycle = sl[S_CYC]
            if episode[0] == "halt":
                core.halted = True
                core.regs[:ARCH_REGS] = stream.final_regs
                t = system._halt_finalize(sl[S_T])
                return ("ok", system._finish(res, bd, t, period, sl[S_CT],
                                             sl[S_CLT]))
            (sl[S_T], period, no_progress, sl[S_LC],
             sl[S_LNV]) = system._outage_reboot(res, bd, sl[S_T], period,
                                                no_progress)
            sl[S_STATS] = system.design.stats
            sl[S_CYC] = core.cycle
    except Exception as exc:
        return ("err", exc, traceback.format_exc())
    finally:
        _STATS["column_chunks"] += cell[1]
