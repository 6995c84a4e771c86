"""Differential fuzzing: the interpreter and the fast engine's replay of
the kernel's recording must be bit-identical.

Hypothesis generates structured random programs through the
:class:`ProgramBuilder` - ALU mixes (including division by zero, whose
semantics are architecturally defined), sub-word loads/stores, nested
conditionals, calls (JAL/JALR), and loops - asserts they are lint-clean,
then runs each point twice: once on the interpreter ``System`` and once
through :func:`repro.lockstep.scheduler.run_column`, the generated
engine walking the guest stream the batch recorder captured block by
block on the interpreter (:func:`repro.batch.engine.get_stream`).
Both runs use a weak constant power source, a small capacitor and a
drawn ``chunk_instrs``, so chunk boundaries, outages and the post-flush
refetch land at random places (trace1's opening segments outpower a
generated program, which retires a few hundred instructions, so under
it no example met an outage). Every ``RunResult`` field is compared -
cycles, instructions, the energy breakdown, the final architectural
registers and the final memory image - and errors by type and message.
The kernel is first recorded under a drawn ``branch_taken_extra``, so
the run expands its stream from a skeleton another cost model
recorded: an exit code that read a cost would show here.

The recordings themselves are pinned too: ``goldens/recordings.json``
holds the digest of every suite kernel's recording under three cost
models and three scales, as the record-mode code generator the
interpreter recorder replaced wrote them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import batch_stats, clear_streams, get_stream, record_run
from repro.energy.traces import ConstantTrace
from repro.isa.builder import ProgramBuilder
from repro.lint.findings import ERROR
from repro.lint.runner import lint_program
from repro.lockstep.scheduler import run_column
from repro.sim.config import SimConfig
from repro.sim.factory import build_system, effective_costs
from repro.sim.parallel import SweepTask
from repro.workloads import ALL_WORKLOADS, build_workload

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
#: the ``branch_taken_extra`` a kernel is first recorded under, drawn
#: apart from the run's own cost model
RECORD_BRX = (0, 1, 3)
GOLDEN = Path(__file__).parent / "goldens" / "recordings.json"


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
                 record_brx: int, **overrides) -> None:
    """One point on the interpreter and on its generated engine, under
    a constant ``power_w`` source (``None``: no power failures), with
    the kernel recorded under ``branch_taken_extra=record_brx`` before
    the point's own cost model asks for its stream."""
    def trace():
        return None if power_w is None else ConstantTrace(power_w)

    config = SimConfig(engine="fast", **overrides)
    ref = _outcome(lambda: build_system(prog, design, trace(),
                                        config).run())
    costs = effective_costs(design, config)
    clear_streams()
    get_stream(prog, dataclasses.replace(costs,
                                         branch_taken_extra=record_brx),
               BUDGET)
    assert batch_stats()["recordings"] == 1
    stream = get_stream(prog, costs, BUDGET)
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
       chunk=st.integers(1, 64), record_brx=st.sampled_from(RECORD_BRX))
def test_record_matches_interpreter(prog, design, chunk, record_brx):
    assert not any(f.severity == ERROR for f in lint_program(prog))
    _check_point(prog, design, POWER_W, record_brx, chunk_instrs=chunk,
                 **POWER)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(prog=programs(), design=st.sampled_from(DESIGNS),
       record_brx=st.sampled_from(RECORD_BRX))
def test_record_matches_interpreter_unchunked(prog, design, record_brx):
    # no power trace: the whole run is one 64Ki-instruction chunk
    _check_point(prog, design, None, record_brx)


def test_exit_codes_do_not_depend_on_the_cost_model():
    # a loop whose body is a branch to its own fallthrough, always
    # taken: only its condition tells the arms apart. Recorded without
    # a taken-branch bubble, the skeleton must still mark every one
    # taken, or the default-cost replay loses their bubbles.
    b = ProgramBuilder("selftarget")
    i, t1 = b.regs("i", "t1")
    b.li(t1, 7)
    with b.for_range(i, 0, 40):
        nxt = b.label()
        b.branch(t1, "==", t1, nxt)
        b.bind(nxt)
    b.halt()
    prog = b.build()
    assert SimConfig().costs.branch_taken_extra > 0
    _check_point(prog, "WL-Cache", None, 0)


@pytest.mark.parametrize("power_w", [None, POWER_W])
def test_jump_into_a_block_interior(power_w):
    # an indirect jalr that lands past a block's leader: the recorder
    # runs the block's suffix and names it by the pc it entered at
    from repro.isa import opcodes as oc

    b = ProgramBuilder("midblock")
    acc, r, n = b.regs("acc", "r", "n")
    b.li(acc, 1)
    b.li(n, 3)
    top = b.here()
    mid = len(b._instrs) + 3  # the second addi below
    b.li(r, mid)
    b._emit(oc.JALR, 0, b._r(r), 0)
    b.addi(acc, acc, 2)  # the block's leader, jumped over
    b.addi(acc, acc, 4)
    b.addi(n, n, -1)
    b.branch(n, "!=", b.zero, top)
    b.halt()
    prog = b.build()
    codes = record_run(prog, SimConfig().costs, BUDGET)[0]
    assert [code >> 1 for code in codes].count(mid) == 3
    overrides = {} if power_w is None else dict(chunk_instrs=3, **POWER)
    _check_point(prog, "WL-Cache", power_w, 0, **overrides)


def _recording_digests(scale: float) -> dict[str, str]:
    config = SimConfig()
    models = {
        "default": config.costs,
        "nvcache-wb": effective_costs("NVCache-WB", config),
        "no-taken-extra": dataclasses.replace(config.costs,
                                              branch_taken_extra=0),
    }
    out = {}
    for app in ALL_WORKLOADS:
        program = build_workload(app, scale)
        for name, costs in models.items():
            rec = record_run(program, costs, config.max_instructions)
            out[f"{app}/{name}/{scale}"] = hashlib.sha256(
                repr(rec).encode()).hexdigest()
    return out


_TIER2 = pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                            reason="larger scales are tier-2 "
                                   "(set REPRO_TIER2=1)")


@pytest.mark.parametrize("scale", [
    0.1, pytest.param(0.25, marks=_TIER2), pytest.param(1.0, marks=_TIER2)])
def test_recordings_match_golden(scale):
    golden = json.loads(GOLDEN.read_text())["digests"]
    want = {k: v for k, v in golden.items() if k.endswith(f"/{scale}")}
    assert len(want) == 3 * len(ALL_WORKLOADS)
    got = _recording_digests(scale)
    assert [k for k in want if got[k] != want[k]] == []
