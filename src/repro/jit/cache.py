"""Process-global JIT code cache, keyed by program *content*.

A sweep builds one ``System`` per grid point, and pool workers rebuild
workload programs from scratch, so caching compiled code on a ``Program``
instance alone would recompile per point. Instead compiled programs are
cached process-globally under a content key - ``(name, mem_bytes,
instruction tuple)`` plus the frozen :class:`CycleCosts` - so a 500-point
sweep compiles each kernel once per cost model per process. A per-program
``meta`` shortcut skips even the key lookup after the first fetch.

A :class:`CompiledProgram` keeps the rendered whole-program block source
and compiles it into a module (whose ``_bind`` builds the basic-block
dispatch table) only when :meth:`CompiledProgram.bind` first asks -
which only the batch recorder does. Traces (the live dispatcher's unit)
and suffix blocks (the recorder's indirect ``jalr`` into a block
interior) compile lazily per pc and are shared across cores; binding
executes a code object in a fresh namespace per core, closed over that
core's memory-system methods.

When the persistent artifact store is enabled (:mod:`repro.store`),
every rendered source is persisted under its content key + the jit
generator fingerprint, and a cold process *loads* the source text
instead of re-rendering it ("loads"/"suffix_loads"/"trace_loads" in the
stats; the Python ``compile`` still runs, rendering is what is saved).
Loaded sources land in the A009 audit ledger so ``repro audit`` can
prove they re-render byte-identical.
"""

from __future__ import annotations

import os
from bisect import bisect_right

from repro.cpu.core import program_content_key
from repro.cpu.costs import CycleCosts
from repro.isa.program import Program
from repro.jit.blocks import (block_meta, block_spans,
                              compile_blocks_source, compile_suffix_source,
                              compile_trace_source)
from repro.store.sources import jit_fingerprint, load_source, save_source

_COMPILED_KEY = "_jit_compiled"

#: Maximum instructions a trace may inline. Also the dispatch threshold:
#: the dispatcher only runs traces while the remaining chunk budget is at
#: least this large, so a trace can never overshoot the budget, and a
#: tight (power-trace) chunk runs on the interpreter.
TRACE_CAP = 256

#: content-key -> CompiledProgram; bounded only by distinct (kernel, cost
#: model) pairs per process, which a sweep keeps small. The cap is a
#: backstop for program-fuzzing tests.
_CODE_CACHE: dict[tuple, "CompiledProgram"] = {}
_CACHE_CAP = 512

_STATS = {"compiles": 0, "hits": 0, "suffix_compiles": 0,
          "trace_compiles": 0, "loads": 0, "suffix_loads": 0,
          "trace_loads": 0, "trace_evictions": 0}

#: cap on per-program cached traces; a pathological chunk pattern can
#: root a trace at every pc, and each trace holds source + code.
_TRACE_CAP_ENV = "REPRO_TRACE_CACHE_CAP"
_TRACE_CACHE_CAP = 512


def _trace_cache_cap() -> int:
    raw = os.environ.get(_TRACE_CAP_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return _TRACE_CACHE_CAP


class CompiledProgram:
    """Compiled form of one (program content, cost model, mode) tuple.

    ``memfast=True`` modules inline the fast-path load-hit probe (see
    :mod:`repro.memfast`); their ``_bind`` takes the extra ``_mf``
    bindings tuple. ``record=True`` modules append exit codes to the
    extra ``_q`` list (the batch engine's stream recorder, see
    :mod:`repro.batch`) and support blocks/suffixes only - recording
    needs the exact basic-block sequence, which traces erase. Each mode
    is cached separately because the generated source differs.
    ``module_code`` stays ``None`` until :meth:`bind` first needs it.
    """

    __slots__ = ("program", "costs", "memfast", "record", "n", "source",
                 "module_code", "block_meta", "_starts", "_suffix_codes",
                 "_trace_codes", "suffix_sources", "trace_sources")

    def __init__(self, program: Program, costs: CycleCosts,
                 memfast: str | bool = False, record: bool = False,
                 source: str | None = None):
        self.program = program
        self.costs = costs
        self.memfast = memfast
        self.record = record
        self.n = len(program.instructions)
        if source is None:
            self.source, self.block_meta = compile_blocks_source(
                program, costs, memfast, record)
        else:
            # warm start from persisted source text: the block metadata
            # is a pure function of the block partition (see block_meta)
            self.source = source
            self.block_meta = block_meta(program)
        self.module_code = None
        self._starts = sorted(s for s, _e in block_spans(program))
        self._suffix_codes: dict[int, object] = {}
        self._trace_codes: dict[int, object] = {}
        # lazily-compiled sources, retained so the static codegen
        # auditor (repro audit) can verify exactly what a run executed
        self.suffix_sources: dict[int, str] = {}
        self.trace_sources: dict[int, str] = {}

    def bind(self, args: tuple) -> list:
        """Instantiate the per-core dispatch table: ``table[leader] =
        (fn, length)``, ``None`` at non-leader indices. The block module
        is compiled on the first call."""
        if self.module_code is None:
            self.module_code = compile(
                self.source, f"<jit:{self.program.name}>", "exec")
        ns: dict = {}
        exec(self.module_code, ns)
        return ns["_bind"](*args)

    def _store_key(self, kind: str, *extra) -> tuple:
        return (kind, jit_fingerprint(), program_content_key(self.program),
                self.costs, self.memfast, self.record, *extra)

    def suffix_entry(self, pc: int, args: tuple) -> tuple:
        """Bind the suffix block resuming at mid-block ``pc`` (compiling
        it on first demand, then reusing the cached code object). Only
        the recorder asks, when an indirect ``jalr`` lands mid-block."""
        code = self._suffix_codes.get(pc)
        if code is None:
            j = bisect_right(self._starts, pc)
            end = self._starts[j] if j < len(self._starts) else self.n

            def render() -> str:
                return compile_suffix_source(self.program, self.costs, pc,
                                             end, self.memfast, self.record)

            key = self._store_key("jit-suffix", pc, end)
            src = load_source(key, f"jit:{self.program.name}+{pc}", render)
            if src is None:
                src = render()
                _STATS["suffix_compiles"] += 1
                save_source(key, src)
            else:
                _STATS["suffix_loads"] += 1
            code = compile(src, f"<jit:{self.program.name}+{pc}>", "exec")
            self._suffix_codes[pc] = code
            self.suffix_sources[pc] = src
        ns: dict = {}
        exec(code, ns)
        return ns["_bind"](*args)

    def trace_entry(self, pc: int, args: tuple) -> tuple:
        """Bind the trace rooted at ``pc`` (compiled on first demand per
        process, then shared across cores)."""
        assert not self.record, "record mode has no trace tier"
        code = self._trace_codes.get(pc)
        if code is None:

            def render() -> str:
                return compile_trace_source(self.program, self.costs, pc,
                                            TRACE_CAP, self.memfast)

            key = self._store_key("jit-trace", pc, TRACE_CAP)
            src = load_source(key, f"jit:{self.program.name}~{pc}", render)
            if src is None:
                src = render()
                _STATS["trace_compiles"] += 1
                save_source(key, src)
            else:
                _STATS["trace_loads"] += 1
            if len(self._trace_codes) >= _trace_cache_cap():
                oldest = next(iter(self._trace_codes))
                del self._trace_codes[oldest]
                self.trace_sources.pop(oldest, None)
                _STATS["trace_evictions"] += 1
            code = compile(src, f"<jit:{self.program.name}~{pc}>", "exec")
            self._trace_codes[pc] = code
            self.trace_sources[pc] = src
        ns: dict = {}
        exec(code, ns)
        return ns["_bind"](*args)


def get_compiled(program: Program, costs: CycleCosts,
                 memfast: str | bool = False,
                 record: bool = False) -> CompiledProgram:
    """The compiled form for ``(program, costs, memfast, record)``, via
    the per-program shortcut, then the process-global content-keyed
    cache."""
    per_program = program.meta.setdefault(_COMPILED_KEY, {})
    meta_key = (costs, memfast, record)
    compiled = per_program.get(meta_key)
    if compiled is None:
        key = (program_content_key(program), costs, memfast, record)
        compiled = _CODE_CACHE.get(key)
        if compiled is None:
            if len(_CODE_CACHE) >= _CACHE_CAP:
                _CODE_CACHE.clear()
            store_key = ("jit-blocks", jit_fingerprint(), key[0], costs,
                         memfast, record)
            src = load_source(
                store_key, f"jit:{program.name}",
                lambda: compile_blocks_source(program, costs, memfast,
                                              record)[0])
            if src is None:
                compiled = CompiledProgram(program, costs, memfast, record)
                _STATS["compiles"] += 1
                save_source(store_key, compiled.source)
            else:
                compiled = CompiledProgram(program, costs, memfast, record,
                                           source=src)
                _STATS["loads"] += 1
            _CODE_CACHE[key] = compiled
        else:
            _STATS["hits"] += 1
        per_program[meta_key] = compiled
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
