"""Record-mode code generation for the batch recorder.

Compiles each :class:`~repro.isa.program.Program` into specialized
Python functions (generated source + ``exec``), one per basic block plus
on-demand suffix blocks, whose exits append the exit codes the batch
engine replays (:mod:`repro.batch.record`). A process-global code cache
is shared across every recording of the same kernel and cost model.
Lone runs never use it: they run on the interpreter. See
``docs/jit.md`` for the compilation model and cache lifetime.
"""

from repro.jit.cache import (CompiledProgram, clear_code_cache,
                             code_cache_stats, get_compiled,
                             program_content_key)

__all__ = [
    "CompiledProgram",
    "clear_code_cache",
    "code_cache_stats",
    "get_compiled",
    "program_content_key",
]
