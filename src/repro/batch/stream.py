"""Guest streams: the recorded execution in replay-ready form.

A :class:`GuestStream` is the structure-of-arrays expansion of one
recording (:mod:`repro.batch.record`): per-instruction *static* cycle
costs as a C-level ``array('q')`` prefix sum, plus a
sparse, ordered event list holding everything the replay tier must
actually do - I-cache line crossings and memory operations. Replaying a
chunk is then O(events in the chunk), not O(instructions): the ALU work
between events collapses into two prefix-sum lookups.

The expansion splits along what varies per cost family:

* the :class:`StreamSkeleton` - event list, block-entry indices and the
  recorded exit codes, which recover the architectural pc - depends
  only on *what* executed, so one skeleton per kernel serves every cost
  model: ``NVCache-WB``'s private ``ifetch_extra`` family shares it with
  the SRAM-cost designs;
* only the static cycle prefix sum (``cum_cycles``) is expanded per
  (program, cost model), from the skeleton's exit codes, and hung off
  the skeleton (``StreamSkeleton.streams``).

Event encoding (``i`` is the global retired-instruction index; events
are ordered by ``i``, with an instruction's line-crossing event before
its memory event, exactly the interpreter's fetch-then-execute order):

* ``(i, 0, line, prev)`` - instruction ``i`` fetches I-cache line
  ``line`` (the previous retired instruction sat on a different line);
  ``prev`` is the index in the event list of the previous fetch of the
  same line, ``-1`` for its first. A point's I-cache residency set
  only grows between flushes, so the line is resident iff ``prev`` is
  at or past the event index of the point's last flush (or the line is
  the point's post-flush synthesized fetch): the engine keeps no
  residency set, and one comparison per fetch event decides a miss;
* ``(i, 1, addr)`` - load;
* ``(i, 2, addr, value)`` - store;
* ``(i, 3, addr, bits, mask)`` - masked (sub-word) store.

The ``now`` a memory call sees is ``cum_cycles[i] - mem_issue`` (the
interpreter issues the call after charging the base cost, before
``mem_issue``) plus the point's dynamic cycles and chunk offset -
computed by the lockstep engine, so events stay cost-independent.

Expansion works from per-exit-code static metadata (block length, cost
tuple, line-crossing template, memory-op template) cached process-
globally per (program content, cost model) - a sweep expands each
kernel's metadata once, then every expansion maps the exit codes to
their cost tuples and sums them at C speed (``map`` +
``itertools.accumulate``). An exit code's block runs from its start to
the next leader of :func:`block_spans`, the basic-block partition the
recorder also runs its interpreter calls by, so a start inside a block
names that block's suffix.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate, chain

from repro.cpu.core import _ILINE_SHIFT, _base_cost_table, \
    program_content_key
from repro.cpu.costs import CycleCosts
from repro.isa import opcodes as oc
from repro.isa.program import Program
from repro.lint.cfg import build_cfg

_TERMINATORS = oc.B_FORMAT | {oc.JAL, oc.JALR, oc.HALT}
_SPANS_KEY = "_block_spans"

#: (program content key, effective costs) -> _ProgramMeta. Bounded by
#: distinct (kernel, cost model) pairs per process; the cap is a
#: backstop for program-fuzzing tests.
_META_CACHE: dict[tuple, "_ProgramMeta"] = {}
_META_CACHE_CAP = 256


def block_spans(program: Program) -> list[tuple[int, int]]:
    """The program's basic-block partition as ``(start, end)`` spans, in
    order, computed via the lint CFG and cached on ``program.meta``. The
    recorder runs one span (or the suffix of one) per call, and exit
    codes name the span's start."""
    spans = program.meta.get(_SPANS_KEY)
    if spans is None:
        cfg = build_cfg(program.instructions)
        spans = [(b.start, b.end) for b in cfg.blocks]
        program.meta[_SPANS_KEY] = spans
    return spans


class StreamSkeleton:
    """The cost-independent expansion of one recording, with the cost
    families expanded from it so far."""

    __slots__ = ("n_total", "events", "n_events", "blk_g", "codes",
                 "final_regs", "ev_counts", "streams")

    def __init__(self, n_total: int, events: list, blk_g: array,
                 codes: array, final_regs: list[int]):
        self.n_total = n_total
        self.events = events
        self.n_events = len(events)
        #: per block run: its first retired-instruction index, and its
        #: recorded exit code (``start pc << 1 | branch taken``)
        self.blk_g = blk_g
        self.codes = codes
        self.final_regs = final_regs
        #: lazy fetch-event prefix count (length ``n_events + 1``),
        #: filled by :func:`event_counts` so a chunk's fetch count is
        #: one lookup instead of a per-event increment.
        self.ev_counts: array | None = None
        #: effective costs -> this kernel's GuestStream under them
        self.streams: dict[CycleCosts, GuestStream] = {}


class GuestStream:
    """One kernel's recorded execution under one cost model.

    Flat references into the shared skeleton plus this family's static
    cycle prefix sum; a point's engine binds each field to a local once.
    """

    __slots__ = ("n_total", "cum_cycles", "events", "final_regs",
                 "n_events", "blk_g", "codes", "c_mem", "skel")

    def __init__(self, skel: StreamSkeleton, cum_cycles: array,
                 c_mem: int):
        self.skel = skel
        self.n_total = skel.n_total
        self.cum_cycles = cum_cycles
        self.events = skel.events
        self.final_regs = skel.final_regs
        self.n_events = skel.n_events
        self.blk_g = skel.blk_g
        self.codes = skel.codes
        self.c_mem = c_mem


class _ProgramMeta:
    """Per-(program, costs) static expansion metadata."""

    __slots__ = ("instrs", "starts", "nprog", "cost_table", "c_mem",
                 "c_brx", "codes")

    def __init__(self, program: Program, costs: CycleCosts):
        self.instrs = program.instructions
        self.starts = sorted(s for s, _e in block_spans(program))
        self.nprog = len(program.instructions)
        self.cost_table = _base_cost_table(costs)
        self.c_mem = costs.mem_issue
        self.c_brx = costs.branch_taken_extra
        #: exit code -> (length, cost tuple, first_line, last_line,
        #:              template)
        self.codes: dict[int, tuple] = {}

    def entry(self, code: int) -> tuple:
        e = self.codes.get(code)
        if e is None:
            e = self.codes[code] = self._build(code)
        return e

    def _build(self, code: int) -> tuple:
        start, taken = code >> 1, code & 1
        j = bisect_right(self.starts, start)
        end = self.starts[j] if j < len(self.starts) else self.nprog
        length = end - start
        costs: list[int] = []
        template: list[tuple] = []
        prev_line = start >> _ILINE_SHIFT
        for i in range(start, end):
            op = self.instrs[i][0]
            assert i == end - 1 or op not in _TERMINATORS, \
                "terminator not at block end"
            line = i >> _ILINE_SHIFT
            if line != prev_line:
                template.append((i - start, 0, line))
                prev_line = line
            c = self.cost_table[op]
            if op in oc.MEMORY_OPS:
                c += self.c_mem
                if op in oc.LOAD_FORMAT:
                    template.append((i - start, 1))
                elif op == oc.SW:
                    template.append((i - start, 2))
                else:  # SB / SH
                    template.append((i - start, 3))
            costs.append(c)
        if taken:
            costs[-1] += self.c_brx
        return (length, tuple(costs), start >> _ILINE_SHIFT,
                (end - 1) >> _ILINE_SHIFT, tuple(template))


def _program_meta(program: Program, costs: CycleCosts) -> _ProgramMeta:
    key = (program_content_key(program), costs)
    meta = _META_CACHE.get(key)
    if meta is None:
        if len(_META_CACHE) >= _META_CACHE_CAP:
            _META_CACHE.clear()
        meta = _META_CACHE[key] = _ProgramMeta(program, costs)
    return meta


def _build_skeleton(meta: _ProgramMeta, codes: list[int], n_total: int,
                    final_regs: list[int],
                    ops: list[tuple]) -> StreamSkeleton:
    """The cost-independent pass: events and block arrays.

    ``meta``'s templates, lengths, and line bounds do not
    depend on its cost model, so any family's metadata serves.
    """
    entry = meta.entry
    blk_g = array("q")
    ap_g = blk_g.append
    events: list[tuple] = []
    ap = events.append
    last: dict[int, int] = {}  # line -> index of its latest fetch event
    last_of = last.get
    gi = 0
    oi = 0
    prev_line = -1  # the first instruction always fetches (ic_last = -1)
    for code in codes:
        m = entry(code)
        ap_g(gi)
        if m[2] != prev_line:
            line = m[2]
            ap((gi, 0, line, last_of(line, -1)))
            last[line] = len(events) - 1
        for t in m[4]:
            k = t[1]
            if k == 0:
                line = t[2]
                ap((gi + t[0], 0, line, last_of(line, -1)))
                last[line] = len(events) - 1
            else:
                op = ops[oi]
                oi += 1
                if k == 1:
                    ap((gi + t[0], 1, op[1]))
                elif k == 2:
                    ap((gi + t[0], 2, op[1], op[2]))
                else:
                    ap((gi + t[0], 3, op[1], op[2], op[3]))
        prev_line = m[3]
        gi += m[0]
    assert gi == n_total and oi == len(ops), \
        "recorded memory ops disagree with the block templates"
    return StreamSkeleton(n_total, events, blk_g, array("q", codes),
                          final_regs)


def build_stream(program: Program, costs: CycleCosts,
                 source: tuple | StreamSkeleton) -> GuestStream:
    """Expand this cost family's stream and hang it off its skeleton.

    ``source`` is the kernel's :class:`StreamSkeleton`, or a fresh raw
    recording ``(codes, n_total, total_cycles, final_regs, ops)`` that
    :func:`repro.batch.record.record_run` made under ``costs``: its
    skeleton is built first, and the family's cycle prefix sum must end
    on the recording's ``total_cycles`` (threaded under ``costs`` with
    ``ifetch_miss=0``, which the expansion never folds into statics).
    Every other family is covered structurally by the skeleton's
    op-consumption assert.
    """
    meta = _program_meta(program, costs)
    if isinstance(source, StreamSkeleton):
        skel, total_cycles = source, None
    else:
        codes, n_total, total_cycles, final_regs, ops = source
        skel = _build_skeleton(meta, codes, n_total, final_regs, ops)
    entry = meta.entry
    costs_of = {code: entry(code)[1] for code in set(skel.codes)}
    cum = array("q", accumulate(chain.from_iterable(
        map(costs_of.__getitem__, skel.codes))))
    assert len(cum) == skel.n_total, "exit codes disagree with retired count"
    assert total_cycles is None or not cum or cum[-1] == total_cycles, \
        "static cycle expansion disagrees with the recording"
    stream = skel.streams[costs] = GuestStream(skel, cum, meta.c_mem)
    return stream


def event_counts(stream: GuestStream) -> array:
    """Prefix count of fetch events over the shared skeleton's event
    list, of length ``n_events + 1``: ``fetches[ei]`` is the number of
    line events among ``events[:ei]``, so a chunk's fetch count is one
    lookup at its boundary instead of a per-event increment. I-cache
    *misses* depend on the point's residency and stay a real counter in
    the engine. Cached on the skeleton, so every cost family and every
    point over the same recording shares one expansion.
    """
    skel = stream.skel
    fetches = skel.ev_counts
    if fetches is not None:
        return fetches
    fetches = array("q", [0])
    append = fetches.append
    f = 0
    for ev in skel.events:
        if ev[1] == 0:
            f += 1
        append(f)
    skel.ev_counts = fetches
    return fetches


def clear_stream_meta() -> None:
    """Drop expansion metadata (tests)."""
    _META_CACHE.clear()
