"""Recording pass: execute a kernel once, capture its guest stream.

Every sweep point of a kernel shares one *architectural* execution:
registers, memory values, and control flow are a pure function of
(program, initial memory), because every design checkpoints and
restores exact state across outages - geometry, capacitor, and power
trace change *when* things happen, never *what* happens. The recorder
therefore runs the kernel exactly once on the reference interpreter
(:class:`~repro.cpu.core.InOrderCore`), one basic block per
``run_chunk`` call, against a latency-free flat-memory system, and
captures:

* the exit-code sequence (which basic blocks ran, in order, with branch
  directions), from which :mod:`repro.batch.stream` reconstructs the
  full retired-instruction stream. Each call runs from the pc the core
  stands on to the end of that pc's block (:func:`~repro.batch.stream.
  block_spans`) and logs ``2 * start + taken``; a jump into a block's
  interior makes ``start`` that pc, so the code names the suffix
  block. ``taken`` comes from control flow alone, never from cycles, so
  a skeleton recorded under one cost model serves every other;
* every memory operation in retirement order (kind, address, value,
  mask) - the replay tier feeds these to each instance's real cache
  design without recomputing any arithmetic;
* the final architectural registers (the only register state a
  :class:`~repro.sim.results.RunResult` exposes).

Recording costs are the requesting task's effective
:class:`CycleCosts` with ``ifetch_miss=0``: the core's cycle counter
then accumulates exactly the *static* per-instruction costs (base +
``mem_issue``), which is what the replay tier's prefix-sum arrays need -
I-cache misses and memory latencies are per-instance dynamics added back
at replay time.

Anything the stream model cannot represent raises
:class:`RecordingBail` and the kernel's tasks fall back to the
interpreter one by one: a guest fault (the slow path must reproduce the
exact error state), a pc that leaves the program, a runaway kernel that
exhausts the task's instruction budget without halting, or a stream
that would exceed the memory cap.
"""

from __future__ import annotations

from repro.batch.stream import block_spans
from repro.cpu.core import _MOD, _SIGN, ARCH_REGS, InOrderCore
from repro.cpu.costs import CycleCosts
from repro.errors import ExecutionError
from repro.isa import opcodes as oc
from repro.isa.program import Program
# imported by name only so perfbench/spans.py, which wraps
# repro.batch.record.get_compiled, still resolves it; never called
from repro.jit.cache import get_compiled  # noqa: F401

#: Instructions a recording may run beyond the task's
#: ``max_instructions`` before declaring the kernel runaway (one chunk's
#: worth of slack: the serial tiers overshoot the budget by at most one
#: 65536-instruction chunk before ``System.run`` raises).
BUDGET_SLACK = 65_600

#: Hard cap on recorded stream length (instructions), a memory backstop:
#: the prefix-sum arrays cost 16 bytes per instruction.
STREAM_CAP = 8_000_000


class RecordingBail(Exception):
    """The kernel cannot be recorded; its tasks take the slow path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class RecordingMemsys:
    """Latency-free flat word memory that logs every operation.

    Mirrors the value semantics of :class:`~repro.mem.nvm.NVMainMemory`
    plus any cache in front of it (caches are value-transparent), with
    zero reported latency so recorded cycle counts stay purely static.
    Operations are logged in retirement order as tuples:
    ``(1, addr)`` load, ``(2, addr, value)`` store,
    ``(3, addr, bits, mask)`` masked store.
    """

    __slots__ = ("words", "ops")

    def __init__(self, program: Program):
        self.words = program.initial_memory()
        self.ops: list[tuple] = []

    def load(self, addr: int, now: int) -> tuple[int, int]:
        self.ops.append((1, addr))
        return (self.words[addr >> 2], 0)

    def store(self, addr: int, value: int, now: int) -> int:
        self.words[addr >> 2] = value
        self.ops.append((2, addr, value))
        return 0

    def store_masked(self, addr: int, bits: int, mask: int,
                     now: int) -> int:
        i = addr >> 2
        self.words[i] = (self.words[i] & ~mask) | bits
        self.ops.append((3, addr, bits, mask))
        return 0


def recording_costs(costs: CycleCosts) -> CycleCosts:
    """The cost model recordings run under."""
    from dataclasses import replace
    return replace(costs, ifetch_miss=0)


def recording_fingerprint(*extra: str) -> str:
    """The store-key fingerprint of every module a recording's content
    depends on, plus ``extra``: this recorder, the interpreter it runs
    (``repro.cpu.core``, ``repro.isa.opcodes``),
    ``Program.initial_memory`` it runs over, and the block partition of
    ``repro.lint.cfg`` that gives exit codes their meaning."""
    from repro.store.keys import modules_fingerprint

    return modules_fingerprint(
        "repro.batch.record", "repro.cpu.core", "repro.isa.opcodes",
        "repro.isa.program", "repro.lint.cfg", *extra)


def _branch_taken(op: int, x: int, y: int) -> bool:
    """Whether conditional branch ``op`` is taken on operands ``x``,
    ``y`` (the interpreter's conditions over u32 register values)."""
    if op == oc.BEQ:
        return x == y
    if op == oc.BNE:
        return x != y
    if op == oc.BLTU:
        return x < y
    if op == oc.BGEU:
        return x >= y
    x = x - _MOD if x & _SIGN else x
    y = y - _MOD if y & _SIGN else y
    return x < y if op == oc.BLT else x >= y


def record_run(program: Program, costs: CycleCosts,
               budget: int) -> tuple[list[int], int, int, list[int],
                                     list[tuple]]:
    """Execute ``program`` once and return its raw recording.

    Returns ``(exit_codes, n_retired, total_static_cycles, final_regs,
    ops)``. ``costs`` is the task's *effective* cost model (with any
    per-design ``ifetch_extra`` already folded in); ``budget`` the
    task's ``max_instructions``. Raises :class:`RecordingBail` on a
    guest fault, a pc outside the program, a runaway kernel, or a
    stream-cap overflow.
    """
    mem = RecordingMemsys(program)
    core = InOrderCore(program, mem, recording_costs(costs))
    instrs = program.instructions
    nprog = len(instrs)
    # per pc: the end of its block, and the block's closing conditional
    # branch (None when the block ends any other way)
    ends = [0] * nprog
    branches: list[tuple | None] = [None] * nprog
    for start, end in block_spans(program):
        last = instrs[end - 1]
        br = last if last[0] in oc.B_FORMAT else None
        for i in range(start, end):
            ends[i] = end
            branches[i] = br

    run = core.run_chunk
    regs = core.regs
    codes: list[int] = []
    append = codes.append
    pc = 0
    n = 0
    stop = budget + BUDGET_SLACK
    cap = STREAM_CAP
    try:
        while True:
            if not 0 <= pc < nprog:
                # the serial tiers raise "pc outside program" here; the
                # slow path must be the one to produce that error state
                raise RecordingBail(
                    f"{program.name}: pc {pc} escapes the program")
            end = ends[pc]
            n += run(end - pc)[0]
            nxt = core.pc
            br = branches[pc]
            if br is None:
                append(2 * pc)
            elif nxt != end:
                append(2 * pc + 1)
            elif br[3] == end and _branch_taken(br[0], regs[br[1]],
                                                regs[br[2]]):
                # a branch to its own fallthrough: only its condition
                # tells the arms apart (a branch writes no register)
                append(2 * pc + 1)
            else:
                append(2 * pc)
            if core.halted:
                break
            if n >= stop:
                raise RecordingBail(
                    f"{program.name}: no HALT within the task's "
                    f"instruction budget ({budget})")
            if n > cap:
                raise RecordingBail(
                    f"{program.name}: stream exceeds the "
                    f"{cap}-instruction cap")
            pc = nxt
    except ExecutionError as exc:
        raise RecordingBail(f"{program.name}: guest fault while "
                            f"recording: {exc}") from exc
    return codes, n, core.cycle, regs[:ARCH_REGS], mem.ops
