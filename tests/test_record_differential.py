"""Differential fuzzing: the interpreter and the fast engine's replay of
the record-mode recording must be bit-identical.

Hypothesis generates structured random programs through the
:class:`ProgramBuilder` - ALU mixes (including division by zero, whose
semantics are architecturally defined), sub-word loads/stores, nested
conditionals, calls (JAL/JALR), and loops - asserts they are lint-clean,
then runs each point twice: once on the interpreter ``System`` and once
through :func:`repro.lockstep.scheduler.run_column`, the generated
engine walking the guest stream the batch recorder captured from
record-mode compiled blocks (:func:`repro.batch.engine.get_stream`).
Both runs use a weak constant power source, a small capacitor and a
drawn ``chunk_instrs``, so chunk boundaries, outages and the post-flush
refetch land at random places (trace1's opening segments outpower a
generated program, which retires a few hundred instructions, so under
it no example met an outage). Every ``RunResult`` field is compared -
cycles, instructions, the energy breakdown, the final architectural
registers and the final memory image - and errors by type and message.
Any emitter bug that changes a value, a branch direction, a memory
operation or a static cost changes the recording, and with it one of
these.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import clear_streams, get_stream
from repro.energy.traces import ConstantTrace
from repro.isa.builder import ProgramBuilder
from repro.lint.findings import ERROR
from repro.lint.runner import lint_program
from repro.lockstep.scheduler import run_column
from repro.sim.config import SimConfig
from repro.sim.factory import build_system, effective_costs
from repro.sim.parallel import SweepTask

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


#: recording budget: far above any generated program's length (at most
#: 24 iterations of 24 atoms), low enough that a miscompiled loop bails
#: quickly instead of recording a runaway
BUDGET = 50_000
#: one design per engine shape the capacitor fits: call (NoCache,
#: WT+Buffer), base (VCache-WT) and wl (WL-Cache)
DESIGNS = ("NoCache", "WT+Buffer", "VCache-WT", "WL-Cache")
#: a capacitor, power source and reboot headroom under which over half
#: the generated programs meet an outage (several, on average), while
#: the 64-instruction chunk margin and WL-Cache's reserve still fit
POWER = {"capacitance_f": 3e-7, "von_headroom_v": 0.1}
POWER_W = 0.05


@pytest.fixture(autouse=True)
def _fresh_streams():
    clear_streams()
    yield
    clear_streams()


def _outcome(fn) -> tuple:
    try:
        return ("ok", fn())
    except Exception as exc:
        return ("err", type(exc), str(exc))


def _check_point(prog, design: str, power_w: float | None,
                 **overrides) -> None:
    """One point on the interpreter and on its generated engine, under
    a constant ``power_w`` source (``None``: no power failures)."""
    def trace():
        return None if power_w is None else ConstantTrace(power_w)

    config = SimConfig(engine="fast", **overrides)
    ref = _outcome(lambda: build_system(prog, design, trace(),
                                        config).run())
    stream = get_stream(prog, effective_costs(design, config), BUDGET)
    task = SweepTask(prog.name, design, trace(), 1.0, False, config)
    got = run_column(prog, task, config, stream)
    if got[0] == "err":
        got = ("err", type(got[1]), str(got[1]))
    assert ref[0] == got[0], (ref, got)
    if ref[0] == "err":
        assert ref == got
        return
    a, b = ref[1], got[1]
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), \
            f"RunResult.{f.name} diverged"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(prog=programs(), design=st.sampled_from(DESIGNS),
       chunk=st.integers(1, 64))
def test_record_matches_interpreter(prog, design, chunk):
    assert not any(f.severity == ERROR for f in lint_program(prog))
    _check_point(prog, design, POWER_W, chunk_instrs=chunk, **POWER)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(prog=programs(), design=st.sampled_from(DESIGNS))
def test_record_matches_interpreter_unchunked(prog, design):
    # no power trace: the whole run is one 64Ki-instruction chunk
    _check_point(prog, design, None)
