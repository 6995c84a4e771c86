"""Basic-block code generation: guest blocks -> specialized Python source.

Each basic block of a :class:`~repro.isa.program.Program` (partitioned by
:func:`repro.lint.cfg.build_cfg`) is compiled into one Python function

    def _bN(regs, st, ...bound helpers...): -> next pc

specialized against the block's instructions and the frozen
:class:`~repro.cpu.costs.CycleCosts`:

* ALU chains become straight-line statements over register *locals*
  (``r5 = (r3 + r4) & 0xFFFFFFFF``); registers read by the block are
  loaded from ``regs`` once at entry and written back once at exit.
* Constant cycle costs (pre-folded per-opcode base costs, ``mem_issue``,
  the taken-branch extra) are accumulated at codegen time and flushed as a
  single ``cycle += K`` immediately before each point where the cycle
  count is observable - a memory-system call's ``now`` argument or the
  block's exit - so the threaded cycle values are bit-identical to the
  interpreter's.
* I-cache accounting is hoisted from per-instruction to once per 16-
  instruction line run: only the block's first line needs the runtime
  ``ic_last`` comparison, subsequent line crossings are unconditional.
* Loads/stores/branches call the bound memory-system methods exactly as
  the interpreter does (same arguments, same ``now``), with the reported
  latency threaded back into ``cycle`` mid-block.

The mutable core state crossing the block boundary travels in a 9-slot
list ``st``: ``[cycle, ic_last, ic_fetches, ic_misses, n_loads, n_stores,
n_branches, retired, halted]``. Slot 7 carries the number of instructions
the call retired (every exit writes its compile-time constant), slot 8 is
set to 1 by exits that parked on a HALT.

Every block function is a *record-mode* function for the batch recorder
(:mod:`repro.batch.record`): besides returning the next pc, each exit
appends an *exit code* ``2 * start + taken`` to the bound list ``_q``
(``taken`` is 1 only for the taken arm of a conditional branch).
Replaying the code sequence reconstructs the exact retired-instruction
stream of a run - which instructions, in which order, with which static
costs - without re-executing any arithmetic. The recorder compiles
against ``ifetch_miss=0`` costs and a latency-free recording memory
system, so the threaded cycle counts are the pure static costs the batch
engine's prefix-sum arrays are built from.

Two granularities are generated from the same emitter:

* **Basic blocks** (:func:`compile_blocks_source`): one function per CFG
  block; every exit retires the full block, so the exit sequence names
  the exact block stream.
* **Suffix blocks** (:func:`compile_suffix_source`): the tail of a basic
  block, compiled on demand when an indirect ``jalr`` lands on a pc
  that is not a block leader.

Fidelity notes (the record differential tests rely on these):

* Fault paths reproduce the interpreter's :class:`ExecutionError` messages
  exactly and leave the interpreter's error state: registers written so
  far and the ``st`` counters are flushed, ``pc``/``cycle``/``instret``
  are not advanced, and no exit code is appended.
* Writes to the x0 sink slot (``regs[32]``) are elided entirely - the
  interpreter parks dead results there, the generated code never
  materializes them. Architectural state (``regs[:32]``) is
  bit-identical.
* ``HALT`` returns its own index (the interpreter stays parked on the
  HALT) and is counted as a retired instruction, like the interpreter.
"""

from __future__ import annotations

from repro.cpu.core import _ILINE_SHIFT, _SINK, _base_cost_table
from repro.cpu.costs import CycleCosts
from repro.isa import opcodes as oc
from repro.isa.program import Program
from repro.lint.cfg import build_cfg

_U32 = 0xFFFFFFFF
_SIGN = 0x80000000
_MOD = 1 << 32

#: Formats whose ``a`` field is a pure destination (x0 -> sink rewrite).
_DEST_A = oc.R_FORMAT | oc.I_FORMAT | oc.LI_FORMAT | oc.LOAD_FORMAT \
    | oc.J_FORMAT | oc.JR_FORMAT
#: Pure ops (no memory/control side effects): dead when the dest is x0.
_PURE = oc.R_FORMAT | oc.I_FORMAT | oc.LI_FORMAT

_BLOCK_META_KEY = "_jit_blocks"

# op -> (python comparison, signed?) for branch conditions
_BRANCH_CMP = {
    oc.BEQ: ("==", False), oc.BNE: ("!=", False),
    oc.BLT: ("<", True), oc.BGE: (">=", True),
    oc.BLTU: ("<", False), oc.BGEU: (">=", False),
}

# load kind -> (alignment mask, fault mnemonic); LBU/LHU share lb/lh
# messages with their signed twins, exactly like the interpreter.
_LOAD_FAULT = {oc.LW: (3, "lw"), oc.LB: (0, "lb"), oc.LBU: (0, "lb"),
               oc.LH: (1, "lh"), oc.LHU: (1, "lh")}
_STORE_FAULT = {oc.SW: (3, "sw"), oc.SB: (0, "sb"), oc.SH: (1, "sh")}


def block_spans(program: Program) -> list[tuple[int, int]]:
    """The program's basic-block partition as ``(start, end)`` spans,
    computed via the lint CFG and cached on ``program.meta``."""
    spans = program.meta.get(_BLOCK_META_KEY)
    if spans is None:
        cfg = build_cfg(program.instructions)
        spans = [(b.start, b.end) for b in cfg.blocks]
        program.meta[_BLOCK_META_KEY] = spans
    return spans


def _sgn(expr: str) -> str:
    """Signed view of a u32 expression (mirrors the interpreter's idiom)."""
    if expr == "0":
        return "0"
    return f"({expr} - {_MOD} if {expr} & {_SIGN} else {expr})"


def _io(op: int, a: int, b: int, c: int):
    """(source regs, dest reg | None) for one instruction, pre-sink-rewrite."""
    if op in oc.R_FORMAT:
        return (b, c), a
    if op in oc.I_FORMAT or op in oc.LOAD_FORMAT or op == oc.JALR:
        return (b,), a
    if op in oc.STORE_FORMAT or op in oc.B_FORMAT:
        return (a, b), None
    if op == oc.LI or op == oc.JAL:
        return (), a
    return (), None  # HALT / NOP


class _BlockEmitter:
    """Emits the Python source of one basic block ``[start, end)``."""

    def __init__(self, program: Program, costs: CycleCosts):
        self.instrs = program.instructions
        self.name = program.name
        self.mem_bytes = program.mem_bytes
        self.cost_table = _base_cost_table(costs)
        self.c_brx = costs.branch_taken_extra
        self.c_mem = costs.mem_issue
        self.c_imiss = costs.ifetch_miss

    # -- per-emit state ------------------------------------------------
    def _reset(self, start: int, end: int) -> None:
        self.start, self.end = start, end
        self.lines: list[str] = []
        self.acc = 0  # pending constant cycles, flushed lazily
        self.written: list[int] = []  # arch regs written so far, in order
        self.wset: set[int] = set()
        self.nl = self.ns = self.nb = 0
        self.k = 0  # instructions retired so far along the emitted path
        self.cur_line = start >> _ILINE_SHIFT

    def _sink(self, op: int, a: int) -> int:
        return _SINK if a == 0 and op in _DEST_A else a

    def _src(self, reg: int) -> str:
        return "0" if reg == 0 else f"r{reg}"

    def _emit(self, text: str) -> None:
        self.lines.append("        " + text)

    def _flush(self) -> None:
        if self.acc:
            self._emit(f"cycle += {self.acc}")
            self.acc = 0

    def _mark_write(self, reg: int) -> None:
        if reg not in self.wset:
            self.wset.add(reg)
            self.written.append(reg)

    # -- prescan: registers the path reads before writing --------------
    def _prescan(self, indices) -> list[int]:
        reads: list[int] = []
        rset: set[int] = set()
        wset: set[int] = set()
        for i in indices:
            op, a, b, c = self.instrs[i]
            a = self._sink(op, a)
            srcs, dst = _io(op, a, b, c)
            if dst == _SINK and op in _PURE:
                continue  # dead op: elided, sources unused
            for s in srcs:
                if s and s not in wset and s not in rset:
                    rset.add(s)
                    reads.append(s)
            if dst is not None and dst != _SINK:
                wset.add(dst)
        return reads

    # -- exit sequences ------------------------------------------------
    def _state_flush(self, indent: str = "") -> None:
        """st counters + written regs; st[0] is emitted by the caller.
        Everything flushed is the compile-time snapshot at this point of
        the path, so mid-path side exits are exact."""
        e = lambda t: self.lines.append("        " + indent + t)  # noqa: E731
        e(f"st[1] = {self.cur_line}")
        if self.nl:
            e(f"st[4] += {self.nl}")
        if self.ns:
            e(f"st[5] += {self.ns}")
        if self.nb:
            e(f"st[6] += {self.nb}")
        e(f"st[7] = {self.k}")
        for reg in self.written:
            e(f"regs[{reg}] = r{reg}")

    def _exit(self, target: str, halt: bool = False) -> None:
        """A complete exit: flush the state snapshot, append the block's
        not-taken exit code and return ``target``."""
        self._emit(f"st[0] = cycle + {self.acc}" if self.acc
                   else "st[0] = cycle")
        self._state_flush()
        if halt:
            self._emit("st[8] = 1")
        self._emit(f"_q.append({2 * self.start})")
        self._emit(f"return {target}")

    def _fault(self, cond: str, mnemonic: str, idx: int, addr: str) -> None:
        """A guarded interpreter-identical ExecutionError raise. The core's
        pc/cycle/instret stay stale (the interpreter's error contract);
        registers written so far and the st counters are flushed."""
        prefix = f"{self.name}@{idx}: bad {mnemonic} addr "
        self._emit(f"if {cond}:")
        self.lines.append(
            f"            st[0] = cycle + {self.acc}" if self.acc
            else "            st[0] = cycle")
        self._state_flush("    ")
        self.lines.append(f"            raise _EE({prefix!r} + hex({addr}))")

    # -- fetch accounting ----------------------------------------------
    def _fetch(self, line: int, first: bool) -> None:
        if first:
            # only the block entry can re-fetch the line the previous
            # block ended on; mid-block line crossings always fetch
            self._emit(f"if st[1] != {line}:")
            pad = "    "
        else:
            pad = ""
        e = lambda t: self.lines.append("        " + pad + t)  # noqa: E731
        e("st[2] += 1")
        e(f"if {line} not in _lines:")
        e(f"    _lines.add({line})")
        e("    st[3] += 1")
        if self.c_imiss:
            e(f"    cycle += {self.c_imiss}")
        self.cur_line = line

    # -- instruction emitters ------------------------------------------
    def _emit_alu(self, op: int, a: int, b: int, c: int) -> None:
        if a == _SINK:
            return  # dead: cost already accumulated, no value computed
        rb, dst = self._src(b), f"r{a}"
        if op in oc.R_FORMAT:
            rc = self._src(c)
            if op == oc.ADD:
                expr = f"({rb} + {rc}) & {_U32}"
            elif op == oc.SUB:
                expr = f"({rb} - {rc}) & {_U32}"
            elif op == oc.MUL:
                expr = f"({rb} * {rc}) & {_U32}"
            elif op == oc.MULH:
                expr = f"(({_sgn(rb)} * {_sgn(rc)}) >> 32) & {_U32}"
            elif op == oc.DIV:
                expr = f"_sdiv({rb}, {rc})"
            elif op == oc.REM:
                expr = f"_srem({rb}, {rc})"
            elif op == oc.DIVU:
                expr = f"{_U32} if {rc} == 0 else {rb} // {rc}"
            elif op == oc.REMU:
                expr = f"{rb} if {rc} == 0 else {rb} % {rc}"
            elif op == oc.AND:
                expr = f"{rb} & {rc}"
            elif op == oc.OR:
                expr = f"{rb} | {rc}"
            elif op == oc.XOR:
                expr = f"{rb} ^ {rc}"
            elif op == oc.SLL:
                expr = f"({rb} << ({rc} & 31)) & {_U32}"
            elif op == oc.SRL:
                expr = f"{rb} >> ({rc} & 31)"
            elif op == oc.SRA:
                expr = f"({_sgn(rb)} >> ({rc} & 31)) & {_U32}"
            elif op == oc.SLT:
                expr = f"1 if {_sgn(rb)} < {_sgn(rc)} else 0"
            else:  # SLTU
                expr = f"1 if {rb} < {rc} else 0"
        elif op == oc.LI:
            expr = repr(b)
        else:  # I-format
            if op == oc.ADDI:
                expr = f"({rb} + {c}) & {_U32}"
            elif op == oc.SLLI:
                expr = f"({rb} << {c}) & {_U32}"
            elif op == oc.SRLI:
                expr = f"{rb} >> {c}"
            elif op == oc.SRAI:
                expr = f"({_sgn(rb)} >> {c}) & {_U32}"
            elif op == oc.ANDI:
                expr = f"{rb} & {c}"
            elif op == oc.ORI:
                expr = f"{rb} | {c}"
            elif op == oc.XORI:
                expr = f"{rb} ^ {c}"
            elif op == oc.SLTI:
                expr = f"1 if {_sgn(rb)} < {c} else 0"
            else:  # SLTIU
                expr = f"1 if {rb} < {c & _U32} else 0"
        self._emit(f"{dst} = {expr}")
        self._mark_write(a)

    def _emit_addr(self, idx: int, b: int, c: int, align: int,
                   mnemonic: str) -> None:
        if b == 0:
            self._emit(f"_a = {(c & _U32)!r}")
        else:
            self._emit(f"_a = (r{b} + {c}) & {_U32}")
        cond = (f"_a & {align} or _a >= {self.mem_bytes}" if align
                else f"_a >= {self.mem_bytes}")
        self._fault(cond, mnemonic, idx, "_a")

    def _emit_load(self, idx: int, op: int, a: int, b: int, c: int) -> None:
        align, mnemonic = _LOAD_FAULT[op]
        self._emit_addr(idx, b, c, align, mnemonic)
        self._flush()
        src = "_a" if op == oc.LW else f"_a & {_U32 & ~3}"
        self._emit(f"_v, _l = _load({src}, cycle)")
        if a != _SINK:
            if op == oc.LW:
                self._emit(f"r{a} = _v")
            elif op == oc.LBU:
                self._emit(f"r{a} = (_v >> ((_a & 3) * 8)) & 255")
            elif op == oc.LB:
                self._emit("_v = (_v >> ((_a & 3) * 8)) & 255")
                self._emit(f"r{a} = _v | {0xFFFFFF00} if _v & 128 else _v")
            elif op == oc.LHU:
                self._emit(f"r{a} = (_v >> ((_a & 2) * 8)) & 65535")
            else:  # LH
                self._emit("_v = (_v >> ((_a & 2) * 8)) & 65535")
                self._emit(f"r{a} = _v | {0xFFFF0000} if _v & 32768 else _v")
            self._mark_write(a)
        self._emit("cycle += _l")
        self.acc += self.c_mem
        self.nl += 1

    def _emit_store(self, idx: int, op: int, a: int, b: int, c: int) -> None:
        align, mnemonic = _STORE_FAULT[op]
        self._emit_addr(idx, b, c, align, mnemonic)
        self._flush()
        val = self._src(a)
        if op == oc.SW:
            self._emit(f"cycle += _store(_a, {val}, cycle)")
        else:
            unit, umask = (3, 255) if op == oc.SB else (2, 65535)
            self._emit(f"_s = (_a & {unit}) * 8")
            self._emit(f"cycle += _sm(_a & {_U32 & ~3}, "
                       f"({val} & {umask}) << _s, {umask} << _s, cycle)")
        self.acc += self.c_mem
        self.ns += 1

    # -- terminators ----------------------------------------------------
    def _branch_cond(self, op: int, a: int, b: int) -> str:
        cmp_op, signed = _BRANCH_CMP[op]
        ra, rb = self._src(a), self._src(b)
        if signed:
            ra, rb = _sgn(ra), _sgn(rb)
        return f"{ra} {cmp_op} {rb}"

    def _finish_branch(self, op: int, a: int, b: int, c: int) -> None:
        """Basic-block terminator: both paths exit with the same snapshot
        (the flush is shared; only st[0] and the target differ)."""
        self.nb += 1
        cond = self._branch_cond(op, a, b)
        self._state_flush()
        self._emit(f"if {cond}:")
        taken = self.acc + self.c_brx
        self._emit(f"    st[0] = cycle + {taken}" if taken
                   else "    st[0] = cycle")
        self._emit(f"    _q.append({2 * self.start + 1})")
        self._emit(f"    return {c}")
        self._emit(f"st[0] = cycle + {self.acc}" if self.acc
                   else "st[0] = cycle")
        self._emit(f"_q.append({2 * self.start})")
        self._emit(f"return {self.end}")

    def _emit_link(self, idx: int, a: int) -> None:
        if a != _SINK:
            self._emit(f"r{a} = {idx + 1}")  # static link: next pc
            self._mark_write(a)

    def _finish_jalr(self, idx: int, a: int, b: int, c: int) -> None:
        self._emit(f"_t = ({self._src(b)} + {c}) & {_U32}")
        self._emit_link(idx, a)
        self._exit("_t")

    # -- drivers ---------------------------------------------------------
    def _head(self, fname: str, indices) -> list[str]:
        """Function header: def line, cycle local, entry register loads.
        Runtime bindings arrive as default arguments, the fastest way to
        give generated code access to non-local state."""
        head = [
            f"    def {fname}(regs, st, _load=_load, _store=_store, "
            f"_sm=_sm, _lines=_lines, _sdiv=_sdiv, _srem=_srem, "
            f"_EE=_EE, _q=_q):",
            "        cycle = st[0]",
        ]
        for reg in self._prescan(indices):
            head.append(f"        r{reg} = regs[{reg}]")
        return head

    def emit(self, start: int, end: int, fname: str) -> tuple[str, bool]:
        """Return ``(source, ends_in_halt)`` for the block ``[start, end)``."""
        self._reset(start, end)
        head = self._head(fname, range(start, end))

        ends_in_halt = False
        terminated = False
        prev_line = None
        for i in range(start, end):
            op, a, b, c = self.instrs[i]
            a = self._sink(op, a)
            line = i >> _ILINE_SHIFT
            if line != prev_line:
                self._fetch(line, first=prev_line is None)
                prev_line = line
            self.acc += self.cost_table[op]
            self.k += 1

            if op in _PURE:
                self._emit_alu(op, a, b, c)
            elif op in oc.LOAD_FORMAT:
                self._emit_load(i, op, a, b, c)
            elif op in oc.STORE_FORMAT:
                self._emit_store(i, op, a, b, c)
            elif op in oc.B_FORMAT:
                self._finish_branch(op, a, b, c)
                terminated = True
            elif op == oc.JAL:
                self._emit_link(i, a)
                self._exit(str(b))
                terminated = True
            elif op == oc.JALR:
                self._finish_jalr(i, a, b, c)
                terminated = True
            elif op == oc.HALT:
                ends_in_halt = True
                terminated = True
                self._exit(str(i), halt=True)  # park on HALT
            else:  # NOP: cost only
                pass
        if not terminated:
            # fell off the span without a terminator: continue at `end`
            # (end == len(program) surfaces as the interpreter's
            # pc-outside-program error at the next dispatch)
            self._exit(str(end))

        return "\n".join(head + self.lines), ends_in_halt


#: The ``_bind`` def line every generated module opens with: the
#: memory-system methods, the core's I-cache residency set, the
#: division helpers, the fault type and the exit-code list.
_BIND_HEADER = "def _bind(_load, _store, _sm, _lines, _sdiv, _srem, _EE, _q):"


def compile_blocks_source(program: Program,
                          costs: CycleCosts) -> tuple[str, dict]:
    """Source of the whole-program block module plus block metadata.

    The module defines ``_bind(_load, _store, _sm, _lines, _sdiv, _srem,
    _EE, _q)`` returning a pc-indexed dispatch table: ``table[start] =
    (fn, length)`` for each block leader, ``None`` elsewhere (retirement
    and halting are reported through ``st[7]``/``st[8]``, exit codes
    through ``_q``). Binding is cheap (function objects over shared
    code), so each recording gets its own table closed over its own
    recording memory system.
    """
    n = len(program.instructions)
    spans = block_spans(program)
    emitter = _BlockEmitter(program, costs)
    parts = [
        f"# JIT blocks for {program.name!r} (generated; costs baked in)",
        _BIND_HEADER,
        f"    _table = [None] * {n}",
    ]
    meta: dict[int, tuple[int, bool]] = {}
    for start, end in spans:
        src, halts = emitter.emit(start, end, f"_b{start}")
        parts.append(src)
        parts.append(f"    _table[{start}] = (_b{start}, {end - start})")
        meta[start] = (end - start, halts)
    parts.append("    return _table")
    return "\n".join(parts) + "\n", meta


def compile_suffix_source(program: Program, costs: CycleCosts,
                          start: int, end: int) -> str:
    """Source for a *suffix block* ``[start, end)`` - the tail of a basic
    block, compiled on demand when the recorder's indirect ``jalr``
    lands on a non-leader pc. The module's ``_bind`` returns a single
    ``(fn, length)`` entry."""
    emitter = _BlockEmitter(program, costs)
    src, _halts = emitter.emit(start, end, f"_s{start}")
    return "\n".join([
        f"# JIT suffix block [{start}, {end}) for {program.name!r}",
        _BIND_HEADER,
        src,
        f"    return (_s{start}, {end - start})",
    ]) + "\n"
