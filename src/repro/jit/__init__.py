"""Trace JIT for the guest interpreter.

Compiles each :class:`~repro.isa.program.Program` into specialized Python
functions (generated source + ``exec``): superblock *traces* for chunks
of at least ``TRACE_CAP`` instructions, run by a ``run_chunk`` installed
on the core that leaves smaller chunks to the interpreter, plus one
function per basic block for the batch recorder. A process-global code
cache is shared across every sweep point that runs the same kernel.
Enable with ``SimConfig(jit=True)``, ``--jit`` on the CLI,
or ``REPRO_JIT=1`` in the environment. See ``docs/jit.md`` for the
compilation model, cache lifetime, and fallback rules.
"""

from repro.jit.cache import (TRACE_CAP, CompiledProgram, clear_code_cache,
                             code_cache_stats, get_compiled,
                             program_content_key)
from repro.jit.dispatch import (ENV_VAR, JITState, attach_jit, detach_jit,
                                jit_enabled)

__all__ = [
    "ENV_VAR",
    "TRACE_CAP",
    "CompiledProgram",
    "JITState",
    "attach_jit",
    "clear_code_cache",
    "code_cache_stats",
    "detach_jit",
    "get_compiled",
    "jit_enabled",
    "program_content_key",
]
