"""Memory-hierarchy fast path: specialized hit-path tier for the memsys.

Generates per-design, geometry-specialized handlers for the three hot
cases - load hits, store hits to already-dirty lines, and WL-Cache's
clean->dirty transition below the waterline - with set mask, line shift,
LRU flag, and energy constants baked in, an MRU-way probe per set, and
deferred statistics flushed at every observable point. Bit-identical to
the slow path by construction (and by the differential test suite).
Batch replay attaches it to every replay instance, and lockstep columns
bind the same handlers; lone runs never use it. See
``docs/memsys-fastpath.md``.
"""

from repro.memfast.attach import (MemfastState, attach_design,
                                  attach_memfast, detach_design)
from repro.memfast.handlers import codegen_cache_stats

__all__ = [
    "MemfastState",
    "attach_design",
    "attach_memfast",
    "codegen_cache_stats",
    "detach_design",
]
