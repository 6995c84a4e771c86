"""Differential fuzzing: interpreter vs record-mode replay must be
bit-identical.

Hypothesis generates structured random programs through the
:class:`ProgramBuilder` - ALU mixes (including division by zero, whose
semantics are architecturally defined), sub-word loads/stores, nested
conditionals, calls (JAL/JALR), and loops - asserts they are lint-clean,
then runs each under random chunk schedules on the interpreter and on a
:class:`~repro.batch.replay.ReplayCore` walking the guest stream the
batch recorder captured from record-mode compiled blocks
(:func:`repro.batch.engine.get_stream`). Chunk by chunk it compares
*everything*: each chunk's retired count and cycle delta, pc, cycle,
instret, the i-cache residency and counters, and the per-class
retirement counters; at the end the architectural registers and the
final memory image. Any emitter bug that changes a value, a branch
direction, a memory operation or a static cost changes the recording,
and with it one of these.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import ReplayCore, clear_streams, get_stream
from repro.cpu.core import InOrderCore
from repro.cpu.costs import CycleCosts
from repro.isa.builder import ProgramBuilder
from repro.lint.findings import ERROR
from repro.lint.runner import lint_program
from repro.mem.memsys import NoCacheNVP
from repro.mem.nvm import NVMainMemory

_ARR_WORDS = 32

# (kind, payload) atoms the program body is assembled from
_ALU2 = ("add", "sub", "mul", "mulh", "and", "or", "xor", "sll", "srl",
         "sra", "slt", "sltu", "div", "rem", "divu", "remu")
_ALUI = ("addi", "andi", "ori", "xori", "slli", "srli", "srai")
_CONDS = ("==", "!=", "<", ">=", "<u", ">=u", ">", "<=u")


def _body_atoms():
    return st.one_of(
        st.tuples(st.just("alu2"), st.sampled_from(_ALU2)),
        st.tuples(st.just("alui"), st.sampled_from(_ALUI),
                  st.integers(0, 31)),
        st.tuples(st.just("li"), st.integers(0, 0xFFFFFFFF)),
        st.tuples(st.just("lw"), st.integers(0, _ARR_WORDS - 1)),
        st.tuples(st.just("sw"), st.integers(0, _ARR_WORDS - 1)),
        st.tuples(st.just("lbu"), st.integers(0, _ARR_WORDS * 4 - 1)),
        st.tuples(st.just("lb"), st.integers(0, _ARR_WORDS * 4 - 1)),
        st.tuples(st.just("lh"), st.integers(0, _ARR_WORDS * 2 - 1)),
        st.tuples(st.just("lhu"), st.integers(0, _ARR_WORDS * 2 - 1)),
        st.tuples(st.just("sb"), st.integers(0, _ARR_WORDS * 4 - 1)),
        st.tuples(st.just("sh"), st.integers(0, _ARR_WORDS * 2 - 1)),
        st.tuples(st.just("if"), st.sampled_from(_CONDS)),
        st.tuples(st.just("call")),
        st.tuples(st.just("nop")),
    )


@st.composite
def programs(draw):
    """A random but structurally well-formed program with a main loop."""
    seed_words = draw(st.lists(st.integers(0, 0xFFFFFFFF),
                               min_size=_ARR_WORDS, max_size=_ARR_WORDS))
    body = draw(st.lists(_body_atoms(), min_size=1, max_size=24))
    iters = draw(st.integers(1, 24))

    b = ProgramBuilder("fuzz", mem_bytes=1 << 14)
    arr = b.data_words(seed_words, "arr")
    acc, x, t, i, p = b.regs("acc", "x", "t", "i", "p")
    b.li(acc, draw(st.integers(0, 0xFFFFFFFF)))
    b.li(x, draw(st.integers(0, 0xFFFFFFFF)))
    b.li(p, arr)

    sub = b.label("sub")
    done = b.label("done")
    with b.for_range(i, 0, iters):
        for atom in body:
            kind = atom[0]
            if kind == "alu2":
                name = {"and": "and_", "or": "or_"}.get(atom[1], atom[1])
                getattr(b, name)(acc, acc, x)
            elif kind == "alui":
                getattr(b, atom[1])(acc, acc, atom[2])
            elif kind == "li":
                b.li(x, atom[1])
            elif kind == "lw":
                b.lw(t, p, atom[1] * 4)
                b.xor(acc, acc, t)
            elif kind == "sw":
                b.sw(acc, p, atom[1] * 4)
            elif kind in ("lb", "lbu"):
                getattr(b, kind)(t, p, atom[1])
                b.add(acc, acc, t)
            elif kind in ("lh", "lhu"):
                getattr(b, kind)(t, p, atom[1] * 2)
                b.add(acc, acc, t)
            elif kind == "sb":
                b.sb(acc, p, atom[1])
            elif kind == "sh":
                b.sh(acc, p, atom[1] * 2)
            elif kind == "if":
                with b.if_(acc, atom[1], x):
                    b.xor(acc, acc, x)
            elif kind == "call":
                b.call(sub)
            elif kind == "nop":
                b.nop()
    b.j(done)
    b.bind(sub)
    b.addi(acc, acc, 7)
    b.ret()
    b.bind(done)
    b.sw(acc, p, 0)
    b.halt()
    return b.build()


COSTS = CycleCosts()
#: recording budget: far above any generated program's length (at most
#: 24 iterations of 24 atoms), low enough that a miscompiled loop bails
#: quickly instead of recording a runaway
BUDGET = 50_000


@pytest.fixture(autouse=True)
def _fresh_streams():
    clear_streams()
    yield
    clear_streams()


def _cores(prog):
    """An interpreter core and a replay core over fresh NVM images."""
    stream = get_stream(prog, COSTS, BUDGET)
    mi = NoCacheNVP(NVMainMemory(prog.initial_memory()))
    mr = NoCacheNVP(NVMainMemory(prog.initial_memory()))
    return (InOrderCore(prog, mi, COSTS), mi,
            ReplayCore(prog, mr, COSTS, stream), mr)


def _check_chunk_by_chunk(prog, budgets: list[int]) -> None:
    ci, mi, cr, mr = _cores(prog)
    k = 0
    while not ci.halted:
        budget = budgets[k % len(budgets)]
        assert cr.run_chunk(budget) == ci.run_chunk(budget), k
        for attr in ("pc", "cycle", "instret", "halted", "ic_fetches",
                     "ic_misses", "n_loads", "n_stores", "n_branches"):
            assert getattr(cr, attr) == getattr(ci, attr), (k, attr)
        assert cr.ic_lines == ci.ic_lines, k
        k += 1
        assert k < 1_000_000, "runaway program"
    assert cr.halted
    assert cr.arch_regs == ci.arch_regs
    assert mr.nvm.words == mi.nvm.words


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(prog=programs(),
       budgets=st.lists(st.integers(1, 700), min_size=1, max_size=6))
def test_record_matches_interpreter(prog, budgets):
    assert not any(f.severity == ERROR for f in lint_program(prog))
    _check_chunk_by_chunk(prog, budgets)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(prog=programs())
def test_record_matches_interpreter_unchunked(prog):
    # one giant chunk: the whole replay in a single event walk
    _check_chunk_by_chunk(prog, [1 << 20])
