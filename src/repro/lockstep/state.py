"""Per-instance lockstep state: slot lists and stream-side prefix data.

Each column instance carries one plain-list *slot* (structure-of-arrays
discipline, no numpy). The generated engine (:mod:`repro.lockstep.
codegen`) binds the read-only entries - the design's bound methods,
prefix sums, the cache array and hit constants, the instance's
capacitor / nvm / trace / system objects and the hoisted energy
constants - to locals once per column composition, and mirrors every
genuinely mutable scalar (dynamic cycles, chunk offset, counters,
energy, wall time, accounting baselines) into locals for the duration
of a run. The slot is the hand-off surface: the engine writes all
mirrors back before every yield and re-reads them after every resume,
so the scheduler can run lifecycle blocks, evict, or rejoin instances
between engine rounds with plain list indexing.

The slot also fixes the *signature* the engine is specialized on: the
memory-call mode per instance (:func:`column_mode`), the LRU flag, the
cache geometry, and whether the instance runs under a power trace
(which selects the serial budget formula and the capacitor accounting
block).
"""

from __future__ import annotations

from array import array

from repro.batch.stream import GuestStream
from repro.caches.base import CachedMemorySystem
from repro.caches.nvcache import NVCacheWB
from repro.caches.nvsram import NVSRAMIdeal
from repro.core.wl_cache import WLCache
from repro.mem.setassoc import SetAssocArray

# -- slot indices (keep in sync with codegen's unpack order) -----------
S_LOAD = 0     # bound design.load
S_STORE = 1    # bound design.store
S_SM = 2       # bound design.store_masked
S_DYN = 3      # accumulated per-instance dynamic cycles (mirror)
S_OFFSET = 4   # external-cycle absorber, constant within a chunk
S_MISSES = 5   # cumulative I-cache miss counter (mirror)
S_CUM = 6      # this cost family's static cycle prefix sum
S_CMEM = 7     # mem_issue cost (now-formula constant)
S_CIMISS = 8   # I-cache miss penalty
S_ARR = 9      # probe modes: the design's SetAssocArray
S_RE = 10      # probe modes: read hit energy (nJ)
S_RH = 11      # probe modes: read hit cycles
S_WE = 12      # probe modes: write hit energy (nJ)
S_WH = 13      # probe modes: write hit cycles
S_PEND = 14    # wl: WL-Cache ACK deque
# -- engine mirrors (synced at every yield, re-read on resume) ---------
S_W = 15       # alive flag: 1 in-column, 0 solo / finished
S_TG = 16      # open-window target instruction index
S_P = 17       # stream position at the open window (chunk entry)
S_IR = 18      # instret at the open window (chunk entry)
S_CYC = 19     # core cycle at the open window (chunk entry)
S_CSEEN = 20   # core._cycle_seen mirror (offset-recompute gate)
S_T = 21       # wall-clock time (ns)
S_FL = 22      # I-cache flush event index (residency epoch start)
S_SY = 23      # post-flush synthesized fetch line (-1: none)
S_PF = 24      # pending-refetch flag (1 right after a flush)
S_TSF = 25     # total synthesized fetches (event-count correction)
S_LIR = 26     # accounting baseline: last_instret
S_LF = 27      # accounting baseline: last_fetch
S_LIM = 28     # accounting baseline: last_imiss
S_LC = 29      # accounting baseline: last_cache (nJ)
S_LNV = 30     # accounting baseline: last_nvm (nJ)
S_CT = 31      # compute_total accumulator (nJ)
S_CLT = 32     # cache_leak_total accumulator (nJ)
# -- bound objects and hoisted constants -------------------------------
S_CAP = 33     # the instance's Capacitor (energy mirrored to a local)
S_NVM = 34     # the design's NVM backend (energy counter reads)
S_STATS = 35   # design.stats (re-read on every resume)
S_SYS = 36     # the System (per-chunk _e_backup_level reads)
S_TRACE = 37   # the PowerTrace, or None
S_CORE = 38    # the ReplayCore (synth-fetch pc recovery only)
S_KON = 39     # hoisted constants tuple, see build_slot
N_SLOTS = 40

#: instance attributes that mean something wraps the design's memory
#: methods (the trace recorder, the invariant checker, a
#: ``scheduler.PREP_HOOK`` fault injector): every access must reach them
_GUARDED_METHODS = ("load", "store", "store_masked")


def column_mode(design) -> str:
    """How the engine issues one instance's memory accesses.

    * ``call`` - every access calls the design's bound method: a design
      whose ``load``/``store``/``store_masked`` is shadowed on the
      instance, that overrides the shared load path (WT+Buffer,
      NVSRAM(practical)), or that has no set-associative array
      (NoCache);
    * ``wl`` - WL-Cache's store policy: inline load hits, same-dirty-line
      store hits and below-waterline clean->dirty inserts;
    * ``wb`` - plain write-back stores (NVSRAM(ideal), NVSRAM(full),
      NVCache-WB): inline load and store hits;
    * ``base`` - inline load hits, every store calls the design
      (write-through and persist-queue stores: VCache-WT, ReplayCache).

    Method identity, not class identity, decides: a subclass that
    overrides a store method falls back to a safer mode.
    """
    md = vars(design)
    if any(name in md for name in _GUARDED_METHODS):
        return "call"
    cls = type(design)
    if (cls.load is not CachedMemorySystem.load
            or not isinstance(getattr(design, "array", None),
                              SetAssocArray)):
        return "call"
    if (cls.store_masked is WLCache.store_masked
            and cls.store is WLCache.store):
        return "wl"
    if (cls.store_masked in (NVSRAMIdeal.store_masked,
                             NVCacheWB.store_masked)
            and cls.store in (NVSRAMIdeal.store, NVCacheWB.store)):
        return "wb"
    return "base"


def build_slot(system, stream: GuestStream) -> tuple[list, tuple]:
    """The engine slot for one built replay instance, plus its
    ``(mode, lru, traced, shift, smask, wmask)`` signature element
    (geometry ``None`` for ``call`` instances).

    Runs after ``scheduler.PREP_HOOK``, so a hook that wraps a memory
    method is seen here and turns the instance into ``call`` mode. The
    bound methods taken here are exactly the ones ``ReplayCore.run_chunk``
    binds lazily, so the column and the per-instance path issue the
    same calls.
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
    mode = column_mode(design)
    if mode == "call":
        return sl, ("call", 0, traced, None, None, None)
    arr = design.array
    sl[S_ARR] = arr
    sl[S_RE] = design._e_read
    sl[S_RH] = design._hit_read_cycles
    sl[S_WE] = design._e_write
    sl[S_WH] = design._hit_write_cycles
    sl[S_PEND] = getattr(design, "pending", None)
    # the signature carries the cache geometry so the engine can bake
    # it as literals and share the set/tag computation across every
    # instance with the same geometry (one class per distinct triple)
    return sl, (mode, 1 if arr._lru else 0, traced, arr.line_shift,
                arr.set_mask, design._word_mask)


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
