"""Lockstep replay: one generated engine per sweep point.

The batch tier (:mod:`repro.batch`) records a kernel once and expands
it into a shared event stream. This package replays that stream for
each sweep point on an engine generated for the point's signature
(:mod:`repro.lockstep.codegen`): the event walk, the cache hit path,
the chunk epilogues and the capacitor accounting run on locals, with
the point's costs and cache geometry baked in, and its per-point state
held in one slot list (:mod:`repro.lockstep.state`). Chunk budgets,
outages and adaptation stay per point and bit-identical to serial -
the scheduler (:mod:`repro.lockstep.scheduler`) runs the exact
``System`` lifecycle blocks at every halt and outage. A point that
raises ends as that error and nothing else.

Every recorded ``(workload, scale)`` point of a sweep runs this way
under ``SimConfig(engine="fast")`` (or ``REPRO_ENGINE=fast``).
"""
