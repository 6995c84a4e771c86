"""Lockstep scheduler: runs one sweep point on its generated engine.

:func:`run_column` builds the point's ``System`` - the object the
reference engine's ``System.run`` drives, with a
:class:`~repro.batch.replay.ReplayCore` over the kernel's shared stream
- and calls the compiled engine for its signature
(:mod:`repro.lockstep.codegen`) once. The engine runs the chunks and
calls the ``System`` lifecycle blocks itself: ``_begin`` at the start,
``_outage_reboot`` (checkpoint, recharge, reboot, adaptation) whenever
the chunk accounting drains the capacitor to the backup level, and
``_halt_finalize`` plus ``_finish`` at the halt, whose ``RunResult`` it
returns. Those blocks are the single source of truth for lifecycle
arithmetic, so every ``RunResult`` field is bit-identical to the
reference engine. An exception from the build, the engine or a
lifecycle block ends the point as that error, boxed, and nothing else.
"""

from __future__ import annotations

import traceback

from repro.batch.engine import build_replay_system
from repro.batch.stream import event_counts
from repro.lockstep.codegen import engine_signature, get_engine
from repro.sim.results import EnergyBreakdown, RunResult

#: test seam: ``PREP_HOOK(task, system)`` runs after each point's
#: system is built, *before* :func:`~repro.lockstep.codegen.
#: engine_signature` picks its mode - the place to wrap
#: ``design.load``/``store`` for fault injection. A wrapped method is an
#: instance attribute, so the point runs in ``call`` mode and every
#: access reaches the wrapper.
PREP_HOOK = None

#: ``columns`` counts run_column calls, ``instances`` the points whose
#: engine started, ``faults`` the points whose engine raised (lifecycle
#: errors included) and ``column_chunks`` the chunks the engines closed
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
    try:
        system = build_replay_system(program, task, config, stream)
        if PREP_HOOK is not None:
            PREP_HOOK(task, system)
        run = get_engine(engine_signature(system))
        trace = system.trace
        res = RunResult(program=program.name, design=system.design.name,
                        trace=trace.name if trace else "no-failure")
    except Exception as exc:
        return ("err", exc, traceback.format_exc())
    _STATS["instances"] += 1
    try:
        return ("ok", run(system, res, EnergyBreakdown(),
                          event_counts(stream), _STATS))
    except Exception as exc:
        _STATS["faults"] += 1
        return ("err", exc, traceback.format_exc())
