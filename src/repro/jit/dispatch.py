"""Attaching the JIT ``run_chunk`` to a core.

:func:`attach_jit` swaps the core's per-instruction interpreter loop for
a dispatcher keyed on the chunk budget: a chunk of at least
:data:`~repro.jit.cache.TRACE_CAP` instructions runs compiled *traces*
(superblocks spanning jumps and branch fall-throughs, see
:mod:`repro.jit.blocks`) while that many instructions remain, so the
dispatcher loops once per trace instead of once per instruction; a
smaller chunk, and the remainder of a larger one, runs on the pristine
interpreter. The replacement is an *instance attribute* - the same
zero-overhead-when-off shadowing the trace recorder and the invariant
checker use - so ``System.run`` picks it up through its ordinary
``core.run_chunk`` binding and nothing changes when the JIT is off.

Fidelity contract (enforced by the differential tests):

* Chunk semantics are bit-identical to the interpreter. A trace retires
  at most ``TRACE_CAP`` instructions, so it runs only while at least that
  many remain in the budget, and the interpreter gets exactly the rest.
  Since per-chunk retirement counts and cycle deltas match the
  interpreter exactly, the simulator's float energy accounting - which
  is sensitive to chunk boundaries - accumulates in the same order and
  stays bit-identical.
* The JIT refuses to attach (returns ``None``) when the methods it inlines
  around have been shadowed: a trace recorder wrapping ``run_chunk`` or
  the memory system's ``load``/``store``/``store_masked``, or the
  invariant checker wrapping ``store_masked``. Compiled traces bind those
  methods at attach time and would silently bypass any later wrapper, so
  observability and checking always win over speed.

``REPRO_JIT=1`` turns the JIT on globally (mirroring ``REPRO_TRACE`` /
``REPRO_CHECK``); ``SimConfig(jit=True)`` turns it on per run.
"""

from __future__ import annotations

import os

from repro.cpu.core import InOrderCore, _sdiv, _srem
from repro.errors import ExecutionError
from repro.jit.cache import TRACE_CAP, CompiledProgram, get_compiled

#: Environment switch: ``REPRO_JIT=1`` enables the JIT for every run in
#: this process (sweep pool workers re-export it, like the trace/check
#: switches).
ENV_VAR = "REPRO_JIT"

#: Methods the compiled traces bind directly; a wrapper on any of these
#: means the JIT must stand down.
_INLINED_MEM_METHODS = ("load", "store", "store_masked")


def jit_enabled() -> bool:
    """True when ``REPRO_JIT`` requests JIT compilation globally."""
    return os.environ.get(ENV_VAR, "").strip() not in ("", "0")


class JITState:
    """Per-core JIT bookkeeping, parked on ``core._jit_state``.

    ``compiled`` stays ``None`` until the first trace-sized chunk fetches
    the program's compiled form (``memfast`` is its module variant)."""

    __slots__ = ("compiled", "memfast", "bind_args")

    def __init__(self, memfast: str | bool, bind_args: tuple):
        self.compiled: CompiledProgram | None = None
        self.memfast = memfast
        self.bind_args = bind_args


def _shadowed(core: InOrderCore) -> bool:
    """True when instrumentation has wrapped a method the JIT inlines.

    The memfast tier's handlers (marked ``_memfast``) are the one kind
    of shadow the JIT cooperates with: compiled code binds them directly
    and the fast path's chunk-flush wrapper goes on *after* the JIT, so
    anything it finds already on ``run_chunk`` is a real wrapper.
    """
    if "run_chunk" in vars(core):
        return True
    mem_dict = vars(core.memsys)
    for name in _INLINED_MEM_METHODS:
        fn = mem_dict.get(name)
        if fn is not None and not getattr(fn, "_memfast", False):
            return True
    return False


def attach_jit(core: InOrderCore) -> JITState | None:
    """Install the budget-keyed dispatch ``run_chunk`` on ``core``.

    Returns the :class:`JITState` on success, or ``None`` when the JIT
    disengages because the trace recorder / invariant checker has shadowed
    the methods compiled traces bind (observability always wins).
    Attaching twice is a no-op returning the existing state. Nothing is
    compiled here.
    """
    state = getattr(core, "_jit_state", None)
    if state is not None:
        return state
    if getattr(core, "_replay", False):
        # a batch-tier ReplayCore: the stream already encodes execution,
        # there is nothing left to compile (batch outranks jit)
        return None
    if _shadowed(core):
        return None
    mem = core.memsys
    # With the memfast tier attached, compile in memfast mode: load and
    # store hits are inlined against the ``_mf`` runtime bindings and the
    # bound ``_load``/``_store``/``_sm`` below are the fast handlers. The
    # module variant is keyed by the design's store family ("base" keeps
    # stores as calls; "wl"/"wb" additionally inline that store hit), so
    # one compiled module is shared across every geometry sweep point of
    # a family.
    mf_state = getattr(mem, "_memfast_state", None)
    # ``ic_lines`` is mutated in place everywhere (flush uses .clear()),
    # so binding the set object itself is safe for the core's lifetime.
    bind_args = (mem.load, mem.store, mem.store_masked, core.ic_lines,
                 _sdiv, _srem, ExecutionError)
    if mf_state is None:
        state = JITState(False, bind_args)
    else:
        state = JITState(mf_state.store_shape or "base",
                         bind_args + (mf_state.jit_bindings(),))
    core.run_chunk = _make_run_chunk(core, state)
    core._jit_state = state
    return state


def detach_jit(core: InOrderCore) -> bool:
    """Remove the JIT ``run_chunk``, restoring the interpreter. Used by
    the trace recorder when it attaches to an already-JITted core (its
    wrappers must see every memory call). Returns True if detached.

    When the memfast chunk-flush wrapper sits on top of the dispatcher,
    the whole fast tier comes off with the JIT: the interpreter would
    otherwise bind the fast handlers with no chunk-end flush left to
    publish their deferred stats.
    """
    if getattr(core, "_jit_state", None) is None:
        return False
    rc = vars(core).get("run_chunk")
    del core.run_chunk
    del core._jit_state
    if rc is not None and getattr(rc, "_memfast", False):
        from repro.memfast import detach_design
        detach_design(core.memsys)
    return True


def _make_run_chunk(core: InOrderCore, state: JITState):
    """The budget-keyed dispatch loop, closed over one core.

    A budget below :data:`~repro.jit.cache.TRACE_CAP` goes straight to the
    interpreter. Otherwise traces (capped at that length, so they can
    never overshoot) run while at least ``TRACE_CAP`` instructions remain
    and the interpreter retires the rest in one call. Retirement and
    halting are read back from ``st[7]``/``st[8]`` after every trace.
    """
    bind_args = state.bind_args
    prog_n = len(core.program.instructions)
    trace_cap = TRACE_CAP
    # pc-indexed memo of this core's bound trace functions
    tfns: list = [None] * prog_n
    # the *pristine* interpreter (bound to the class so a shadowed
    # instance attribute can never recurse into us)
    interp = InOrderCore.run_chunk.__get__(core, InOrderCore)

    def run_chunk(max_instrs: int) -> tuple[int, int]:
        if max_instrs < trace_cap or core.halted:
            return interp(max_instrs)
        compiled = state.compiled
        if compiled is None:
            compiled = state.compiled = get_compiled(
                core.program, core.costs, memfast=state.memfast)
        regs = core.regs  # re-read every call: restore_arch_state rebinds
        pc = core.pc
        cycle0 = core.cycle
        st = [cycle0, core.ic_last, core.ic_fetches, core.ic_misses,
              core.n_loads, core.n_stores, core.n_branches, 0, 0]
        n = 0
        halted = False
        try:
            # an out-of-program pc is left to the interpreter's error
            while max_instrs - n >= trace_cap and 0 <= pc < prog_n:
                fn = tfns[pc]
                if fn is None:
                    fn = tfns[pc] = compiled.trace_entry(pc, bind_args)[0]
                pc = fn(regs, st)
                n += st[7]
                if st[8]:  # trace parked on HALT
                    halted = True
                    break
        finally:
            # mirror the interpreter's error contract: icache state and
            # retirement counters are flushed, pc/cycle/instret are not
            core.ic_last = st[1]
            core.ic_fetches = st[2]
            core.ic_misses = st[3]
            core.n_loads = st[4]
            core.n_stores = st[5]
            core.n_branches = st[6]
        core.pc = pc
        core.cycle = st[0]
        core.instret += n
        regs[0] = 0  # same rim insurance as the interpreter
        if halted:
            core.halted = True
        elif n < max_instrs:
            n += interp(max_instrs - n)[0]
        return (n, core.cycle - cycle0)

    return run_chunk
