"""Process-global record-mode code cache, keyed by program *content*.

A sweep builds one recording per (kernel, cost family), and pool
workers rebuild workload programs from scratch, so caching compiled code
on a ``Program`` instance alone would recompile per process task.
Instead compiled programs are cached process-globally under a content
key - ``(name, mem_bytes, instruction tuple, data digest)`` plus the
frozen :class:`CycleCosts` - so a sweep compiles each kernel once per
cost model per process. A per-program ``meta`` shortcut skips even the
key lookup after the first fetch.

A :class:`CompiledProgram` keeps the rendered whole-program block source
and compiles it into a module (whose ``_bind`` builds the basic-block
dispatch table) only when :meth:`CompiledProgram.bind` first asks.
Suffix blocks (the recorder's indirect ``jalr`` into a block interior)
compile lazily per pc and are shared across recordings; binding executes
a code object in a fresh namespace per recording, closed over that
recording's memory-system methods. Sources are never persisted: every
process renders the code it runs.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.cpu.core import program_content_key
from repro.cpu.costs import CycleCosts
from repro.isa.program import Program
from repro.jit.blocks import (block_spans, compile_blocks_source,
                              compile_suffix_source)

_COMPILED_KEY = "_jit_compiled"

#: content-key -> CompiledProgram; bounded only by distinct (kernel, cost
#: model) pairs per process, which a sweep keeps small. The cap is a
#: backstop for program-fuzzing tests.
_CODE_CACHE: dict[tuple, "CompiledProgram"] = {}
_CACHE_CAP = 512

_STATS = {"compiles": 0, "hits": 0, "suffix_compiles": 0}


def compile_trace_source(*_args):
    """Never called: there is no trace tier. ``perfbench/spans.py``
    wraps this name and raises when it is missing."""
    raise NotImplementedError("record mode has no trace tier")


class CompiledProgram:
    """Compiled form of one (program content, cost model) pair.

    ``module_code`` stays ``None`` until :meth:`bind` first needs it.
    """

    __slots__ = ("program", "costs", "n", "source", "module_code",
                 "block_meta", "_starts", "_suffix_codes", "suffix_sources")

    def __init__(self, program: Program, costs: CycleCosts):
        self.program = program
        self.costs = costs
        self.n = len(program.instructions)
        self.source, self.block_meta = compile_blocks_source(program, costs)
        self.module_code = None
        self._starts = sorted(s for s, _e in block_spans(program))
        self._suffix_codes: dict[int, object] = {}
        # lazily-compiled sources, retained so the static codegen
        # auditor (repro audit) can verify exactly what a run executed
        self.suffix_sources: dict[int, str] = {}

    def bind(self, args: tuple) -> list:
        """Instantiate the per-recording dispatch table: ``table[leader]
        = (fn, length)``, ``None`` at non-leader indices. The block module
        is compiled on the first call."""
        if self.module_code is None:
            self.module_code = compile(
                self.source, f"<jit:{self.program.name}>", "exec")
        ns: dict = {}
        exec(self.module_code, ns)
        return ns["_bind"](*args)

    def suffix_entry(self, pc: int, args: tuple) -> tuple:
        """Bind the suffix block resuming at mid-block ``pc`` (compiling
        it on first demand, then reusing the cached code object). Only
        the recorder asks, when an indirect ``jalr`` lands mid-block."""
        code = self._suffix_codes.get(pc)
        if code is None:
            j = bisect_right(self._starts, pc)
            end = self._starts[j] if j < len(self._starts) else self.n
            src = compile_suffix_source(self.program, self.costs, pc, end)
            _STATS["suffix_compiles"] += 1
            code = compile(src, f"<jit:{self.program.name}+{pc}>", "exec")
            self._suffix_codes[pc] = code
            self.suffix_sources[pc] = src
        ns: dict = {}
        exec(code, ns)
        return ns["_bind"](*args)

    def trace_entry(self, pc: int, args: tuple) -> tuple:
        """Never called: there is no trace tier. ``perfbench/spans.py``
        wraps this name and raises when it is missing."""
        raise NotImplementedError("record mode has no trace tier")


def get_compiled(program: Program, costs: CycleCosts) -> CompiledProgram:
    """The compiled form for ``(program, costs)``, via the per-program
    shortcut, then the process-global content-keyed cache."""
    per_program = program.meta.setdefault(_COMPILED_KEY, {})
    compiled = per_program.get(costs)
    if compiled is None:
        key = (program_content_key(program), costs)
        compiled = _CODE_CACHE.get(key)
        if compiled is None:
            if len(_CODE_CACHE) >= _CACHE_CAP:
                _CODE_CACHE.clear()
            compiled = _CODE_CACHE[key] = CompiledProgram(program, costs)
            _STATS["compiles"] += 1
        else:
            _STATS["hits"] += 1
        per_program[costs] = compiled
    else:
        _STATS["hits"] += 1
    return compiled


def code_cache_stats() -> dict:
    """Cache counters (for benchmarks and tests)."""
    return {"programs": len(_CODE_CACHE), **_STATS}


def clear_code_cache() -> None:
    """Drop all compiled code (tests)."""
    _CODE_CACHE.clear()
    for k in _STATS:
        _STATS[k] = 0
