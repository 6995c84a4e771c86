"""Control flow, halt behavior, instruction budget, I-cache accounting."""

import pytest

from repro.cpu.core import InOrderCore
from repro.cpu.costs import CycleCosts
from repro.errors import ConfigError, ExecutionError
from repro.isa.builder import ProgramBuilder
from repro.verify.oracle import FunctionalMemory
from tests.conftest import build_sum_program


def make_core(prog, costs=None):
    mem = FunctionalMemory(prog.initial_memory())
    return InOrderCore(prog, mem, costs), mem


def test_halt_stops_and_pins_pc():
    b = ProgramBuilder("t")
    b.nop()
    b.halt()
    b.nop()  # unreachable
    core, _ = make_core(b.build())
    core.run_to_halt()
    assert core.halted
    pc_at_halt = core.pc
    n, cycles = core.run_chunk(10)
    assert (n, cycles) == (0, 0)
    assert core.pc == pc_at_halt


def test_branch_taken_costs_more():
    costs = CycleCosts(branch=1, branch_taken_extra=3)
    # taken branch
    b = ProgramBuilder("t")
    lbl = b.label()
    b.branch(b.zero, "==", b.zero, lbl)
    b.bind(lbl)
    b.halt()
    core, _ = make_core(b.build(), costs)
    core.run_to_halt()
    taken_cycles = core.cycle
    # not-taken branch
    b2 = ProgramBuilder("t2")
    lbl2 = b2.label()
    b2.branch(b2.zero, "!=", b2.zero, lbl2)
    b2.bind(lbl2)
    b2.halt()
    core2, _ = make_core(b2.build(), costs)
    core2.run_to_halt()
    assert taken_cycles == core2.cycle + 3


def test_instruction_budget_enforced():
    b = ProgramBuilder("t")
    lbl = b.here()
    b.j(lbl)  # infinite loop
    b.halt()
    core, _ = make_core(b.build())
    with pytest.raises(ExecutionError, match="exceeded"):
        core.run_to_halt(max_instrs=10_000)


def test_icache_miss_accounting():
    b = ProgramBuilder("t")
    i = b.reg("i")
    with b.for_range(i, 0, 10):
        b.nop()
    b.halt()
    core, _ = make_core(b.build())
    core.run_to_halt()
    # the whole program fits a couple of 16-instruction lines
    assert 1 <= core.ic_misses <= 3
    assert core.ic_fetches >= core.ic_misses


def test_icache_flush_forces_refetch():
    b = ProgramBuilder("t")
    i = b.reg("i")
    with b.for_range(i, 0, 4):
        b.nop()
    b.halt()
    core, _ = make_core(b.build())
    core.run_chunk(6)
    before = core.ic_misses
    core.flush_icache()
    core.run_to_halt()
    assert core.ic_misses > before


def test_arch_state_snapshot_restore():
    b = ProgramBuilder("t")
    x = b.reg("x")
    b.li(x, 123)
    b.nop()
    b.halt()
    core, _ = make_core(b.build())
    core.run_chunk(2)  # sp prologue + li
    snap = core.snapshot_arch_state()
    core.regs[x.n] = 0  # clobber, then restore
    core.run_chunk(1)
    core.restore_arch_state(snap)
    assert core.regs[x.n] == 123
    assert core.pc == snap[1]


def test_costs_validation():
    with pytest.raises(ConfigError):
        CycleCosts(alu=0)
    with pytest.raises(ConfigError):
        CycleCosts(mul=-1)


def test_nvcache_ifetch_extra_slows_execution():
    b = ProgramBuilder("t")
    i = b.reg("i")
    with b.for_range(i, 0, 50):
        b.nop()
    b.halt()
    prog = b.build()
    fast, _ = make_core(prog)
    fast.run_to_halt()
    slow, _ = make_core(prog, CycleCosts(ifetch_extra=2))
    slow.run_to_halt()
    assert slow.cycle > fast.cycle + 2 * 100


def _count_retirement(prog) -> int:
    core, _ = make_core(prog)
    return core.run_to_halt()


def test_run_to_halt_exact_budget():
    prog = build_sum_program(200)
    n = _count_retirement(prog)
    core, _ = make_core(prog)
    assert core.run_to_halt(max_instrs=n) == n
    assert core.instret == n and core.halted


def test_run_to_halt_budget_is_a_hard_cap():
    prog = build_sum_program(200)
    n = _count_retirement(prog)
    core, _ = make_core(prog)
    with pytest.raises(ExecutionError, match="exceeded"):
        core.run_to_halt(max_instrs=n - 1)
    assert core.instret <= n - 1  # never overshoots the budget


def test_run_to_halt_clamps_final_chunk():
    # budget barely above one chunk: the second chunk must be clamped
    b = ProgramBuilder("spin")
    i = b.reg("i")
    with b.for_range(i, 0, 100_000):
        b.nop()
    b.halt()
    core, _ = make_core(b.build())
    with pytest.raises(ExecutionError, match="exceeded"):
        core.run_to_halt(max_instrs=65536 + 100)
    assert core.instret <= 65536 + 100
