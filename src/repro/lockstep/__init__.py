"""Lockstep multi-instance replay: one walker advances the sweep column.

The batch tier (:mod:`repro.batch`) records a kernel once and replays it
per sweep point, but each point still walks the shared event stream
through its own ``ReplayCore`` loop - the event decode, the position
bookkeeping, and the loop machinery are repeated N times. This package
removes that repetition: points sharing a :class:`~repro.batch.stream.
StreamSkeleton` are planned into a *column* and advanced together by one
generated walker (:mod:`repro.lockstep.codegen`) that decodes every
event once and issues each instance's memory call with its own cost
bindings, with per-instance state held in parallel slot lists
(:mod:`repro.lockstep.state`). Chunk budgets, capacitor accounting,
outages, and adaptation stay per instance and bit-identical to serial -
the scheduler (:mod:`repro.lockstep.scheduler`) replicates the exact
``System.run`` / ``ReplayCore.run_chunk`` arithmetic at every chunk
boundary and evicts any diverging instance to the per-instance replay
path at an exact event index.

Columns are the fast engine's only replay mode: under
``SimConfig(engine="fast")`` (or ``REPRO_ENGINE=fast``) every recorded
``(workload, scale)`` cluster of a sweep runs as one column.
"""
