"""Per-instance lockstep state: slot lists and stream-side prefix data.

Each column instance carries one plain-list *slot* (structure-of-arrays
discipline, no numpy). The generated engine (:mod:`repro.lockstep.
codegen`) binds the read-only entries - handlers, prefix sums, memfast
geometry, the instance's capacitor / nvm / trace / system objects and
the hoisted energy constants - to locals once per column composition,
and mirrors every genuinely mutable scalar (dynamic cycles, chunk
offset, counters, energy, wall time, accounting baselines) into locals
for the duration of a run. The slot is the hand-off surface: the engine
writes all mirrors back before every yield and re-reads them after
every resume, so the scheduler can run lifecycle blocks, evict, or
rejoin instances between engine rounds with plain list indexing.

The slot also fixes the *signature* the engine is specialized on: the
memory-call shape per instance (``call`` for designs without the
memfast tier, ``base`` for fast loads + slow-path stores, ``wb``/``wl``
for the two fast store-hit shapes), the LRU flag - mirroring exactly
the handler variants :mod:`repro.memfast.handlers` renders - and
whether the instance runs under a power trace (which selects the
serial budget formula and the capacitor accounting block).
"""

from __future__ import annotations

from array import array

from repro.batch.stream import GuestStream

# -- slot indices (keep in sync with codegen's unpack order) -----------
S_LOAD = 0     # bound design.load (memfast handler when attached)
S_STORE = 1    # bound design.store
S_SM = 2       # bound design.store_masked
S_DYN = 3      # accumulated per-instance dynamic cycles (mirror)
S_OFFSET = 4   # external-cycle absorber, constant within a chunk
S_IC = 5       # I-cache residency set (the core's own set object)
S_MISSES = 6   # cumulative I-cache miss counter (mirror)
S_CUM = 7      # this cost family's static cycle prefix sum
S_CMEM = 8     # mem_issue cost (now-formula constant)
S_CIMISS = 9   # I-cache miss penalty
S_MRU = 10     # memfast: per-set MRU line list
S_ACC = 11     # memfast: deferred-stats accumulator
S_MFS = 12     # memfast: line shift
S_MFM = 13     # memfast: set mask
S_MFW = 14     # memfast: word mask
S_MFE = 15     # memfast: read hit energy (nJ)
S_MFH = 16     # memfast: read hit cycles
S_MFEW = 17    # memfast: write hit energy (nJ)
S_MFHW = 18    # memfast: write hit cycles
S_PEND = 19    # memfast: WL-Cache ACK deque (None otherwise)
# -- engine mirrors (synced at every yield, re-read on resume) ---------
S_W = 20       # alive flag: 1 in-column, 0 solo / finished
S_TG = 21      # open-window target instruction index
S_P = 22       # stream position at the open window (chunk entry)
S_IR = 23      # instret at the open window (chunk entry)
S_CYC = 24     # core cycle at the open window (chunk entry)
S_CSEEN = 25   # core._cycle_seen mirror (offset-recompute gate)
S_T = 26       # wall-clock time (ns)
S_FL = 27      # I-cache flush event index (residency epoch start)
S_SY = 28      # post-flush synthesized fetch line (-1: none)
S_PF = 29      # pending-refetch flag (1 right after a flush)
S_TSF = 30     # total synthesized fetches (event-count correction)
S_LIR = 31     # accounting baseline: last_instret
S_LF = 32      # accounting baseline: last_fetch
S_LIM = 33     # accounting baseline: last_imiss
S_LC = 34      # accounting baseline: last_cache (nJ)
S_LNV = 35     # accounting baseline: last_nvm (nJ)
S_CT = 36      # compute_total accumulator (nJ)
S_CLT = 37     # cache_leak_total accumulator (nJ)
# -- bound objects and hoisted constants -------------------------------
S_CAP = 38     # the instance's Capacitor (energy mirrored to a local)
S_NVM = 39     # the design's NVM backend (energy counter reads)
S_STATS = 40   # design.stats (republished by the scheduler at outage)
S_SYS = 41     # the System (per-chunk _e_backup_level reads)
S_TRACE = 42   # the PowerTrace, or None
S_CORE = 43    # the ReplayCore (synth-fetch pc recovery only)
S_KON = 44     # hoisted constants tuple, see build_slot
S_SETS = 45    # memfast: SetAssocArray.sets (full inline probe)
S_SLD = 46     # memfast: bracketed slow load (direct miss binding)
S_SSM = 47     # memfast: bracketed slow store_masked
N_SLOTS = 48

_SHAPE_MODE = {"wl": "wl", "wb": "wb", None: "base"}


def build_slot(system, stream: GuestStream) -> tuple[list, tuple]:
    """The engine slot for one built replay instance, plus its
    ``(mode, lru, traced, shift, smask, wmask)`` signature element
    (geometry ``None`` for ``call`` instances).

    Must run after :func:`repro.memfast.attach_memfast`: the handler
    bindings taken here are exactly the ones ``ReplayCore.run_chunk``
    would bind lazily, so the column and the per-instance slow path
    issue byte-for-byte the same calls.
    """
    core = system.core
    design = system.design
    em = system.config.energy
    sl: list = [None] * N_SLOTS
    sl[S_LOAD] = design.load
    sl[S_STORE] = design.store
    sl[S_SM] = design.store_masked
    sl[S_DYN] = 0
    sl[S_OFFSET] = 0
    sl[S_IC] = core.ic_lines
    sl[S_MISSES] = 0
    sl[S_CUM] = stream.cum_cycles
    sl[S_CMEM] = stream.c_mem
    sl[S_CIMISS] = core._c_imiss
    sl[S_W] = 1
    sl[S_TG] = 0
    sl[S_P] = 0
    sl[S_IR] = 0
    sl[S_CYC] = 0
    sl[S_CSEEN] = 0
    sl[S_T] = 0
    sl[S_FL] = 0
    sl[S_SY] = -1
    sl[S_PF] = 1 if core._pending_fetch else 0
    sl[S_TSF] = 0
    sl[S_LIR] = 0
    sl[S_LF] = 0
    sl[S_LIM] = 0
    sl[S_LC] = 0.0
    sl[S_LNV] = 0.0
    sl[S_CT] = 0.0
    sl[S_CLT] = 0.0
    sl[S_CAP] = system.capacitor
    sl[S_NVM] = design.nvm
    sl[S_STATS] = design.stats
    sl[S_SYS] = system
    sl[S_TRACE] = system.trace
    sl[S_CORE] = core
    sl[S_KON] = (em.compute_nj, em.ifetch_nj, em.ifetch_miss_nj,
                 em.core_leakage_w, design.leakage_w(),
                 em.worst_instr_nj, system.config.chunk_instrs,
                 system.config.max_instructions,
                 system.capacitor._e_max, stream.n_total)
    traced = 0 if system.trace is None else 1
    state = getattr(design, "_memfast_state", None)
    if state is None:
        return sl, ("call", 0, traced, None, None, None)
    (mru, acc, shift, smask, wmask, e_read, hit_read, lru, e_write,
     hit_write, pending) = state.probe_bindings()
    sl[S_MRU] = mru
    sl[S_ACC] = acc
    sl[S_MFS] = shift
    sl[S_MFM] = smask
    sl[S_MFW] = wmask
    sl[S_MFE] = e_read
    sl[S_MFH] = hit_read
    sl[S_MFEW] = e_write
    sl[S_MFHW] = hit_write
    sl[S_PEND] = pending
    sl[S_SETS] = design.array.sets
    sl[S_SLD] = state.slow_load
    sl[S_SSM] = state.slow_sm
    # the signature carries the cache geometry so the engine can bake
    # it as literals and share the set/tag computation across every
    # instance with the same geometry (one class per distinct triple)
    return sl, (_SHAPE_MODE[state.store_shape], lru, traced,
                shift, smask, wmask)


def event_counts(stream: GuestStream) -> tuple:
    """``(fetches, loads, stores)`` prefix-count arrays over the shared
    skeleton's event list, each of length ``n_events + 1``.

    ``counts[kind][ei]`` is the number of events of that kind among
    ``events[:ei]``, so a chunk's fetch/load/store counter deltas - the
    per-event ``+= 1`` bookkeeping ``ReplayCore.run_chunk`` performs -
    collapse into two lookups at the chunk boundary. Loads and stores
    are instance-independent (every instance consumes every event);
    I-cache *misses* depend on per-instance residency and stay a real
    counter in the engine. Cached on the skeleton, so every cost family
    and every column over the same recording shares one expansion.
    """
    skel = stream.skel
    counts = skel.ev_counts
    if counts is not None:
        return counts
    evf = array("q", [0])
    evl = array("q", [0])
    evs = array("q", [0])
    af, al, as_ = evf.append, evl.append, evs.append
    f = l = s = 0
    for ev in skel.events:
        k = ev[1]
        if k == 0:
            f += 1
        elif k == 1:
            l += 1
        else:
            s += 1
        af(f)
        al(l)
        as_(s)
    counts = (evf, evl, evs)
    skel.ev_counts = counts
    return counts


def event_prev(stream: GuestStream):
    """Previous-occurrence index per event over the shared skeleton.

    For a line event at index ``ei``, ``prev[ei]`` is the index of the
    previous line event fetching the *same* line (``-1`` if none); for
    other event kinds it is ``-1``. Because an instance's residency set
    only grows between flushes, a line is resident at event ``ei`` iff
    ``prev[ei] >= flush_ei`` (or the line is the instance's post-flush
    synthesized fetch). The column fast path compares ``prev[ei]``
    against the *maximum* flush index over live instances once per
    fetch event - when it clears that bar the line is resident for
    every instance and the whole column skips the event. Cached on the
    skeleton (fetch events are the majority of a stream, so this single
    shared array replaces most of the per-instance event work).
    """
    skel = stream.skel
    prev = skel.ev_prev
    if prev is not None:
        return prev
    prev = array("q", bytes())
    ap = prev.append
    last: dict[int, int] = {}
    for idx, ev in enumerate(skel.events):
        if ev[1] == 0:
            line = ev[2]
            ap(last.get(line, -1))
            last[line] = idx
        else:
            ap(-1)
    skel.ev_prev = prev
    return prev
