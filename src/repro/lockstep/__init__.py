"""Lockstep replay: one generated engine per sweep point.

The batch tier (:mod:`repro.batch`) records a kernel once and expands
it into a shared event stream. This package replays that stream for
each sweep point on an engine generated for the point's signature
(:mod:`repro.lockstep.codegen`): one plain function that binds the
point's ``System`` to locals and runs the event walk, the cache hit
path, the chunk epilogues and the capacitor accounting on them, with
the point's cache geometry baked in. Chunk budgets, outages and
adaptation stay per point and bit-identical to serial - the engine
calls the exact ``System`` lifecycle blocks itself at every outage and
at the halt. The scheduler (:mod:`repro.lockstep.scheduler`) builds the
point, calls its engine once and boxes the outcome: a point that raises
ends as that error and nothing else.

Every recorded ``(workload, scale)`` point of a sweep runs this way
under ``SimConfig(engine="fast")`` (or ``REPRO_ENGINE=fast``).
"""
