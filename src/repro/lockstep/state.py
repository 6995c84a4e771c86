"""Per-point lockstep state: the slot list and stream-side prefix data.

Each sweep point carries one plain-list *slot*. The generated engine
(:mod:`repro.lockstep.codegen`) binds the read-only entries - the
design's bound methods, prefix sums, the cache array and hit constants,
the point's capacitor / nvm / trace / system objects and the hoisted
energy constants - to locals once, and mirrors the scalars the
lifecycle blocks read or change (position, cycle, wall time, accounting
baselines) into locals for the duration of a run. The slot is the
hand-off surface: the engine writes its mirrors back before every yield
and re-reads them after every resume, so the scheduler can run a halt
or outage lifecycle between chunks with plain list indexing.

The slot also fixes the *signature* the engine is specialized on: the
memory-call mode (:func:`column_mode`), the LRU flag, the cache
geometry, and whether the point runs under a power trace (which selects
the serial budget formula and the capacitor accounting block).
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
S_CUM = 3      # this cost family's static cycle prefix sum
S_CMEM = 4     # mem_issue cost (now-formula constant)
S_CIMISS = 5   # I-cache miss penalty
S_ARR = 6      # probe modes: the design's SetAssocArray
S_RE = 7       # probe modes: read hit energy (nJ)
S_RH = 8       # probe modes: read hit cycles
S_WE = 9       # probe modes: write hit energy (nJ)
S_WH = 10      # probe modes: write hit cycles
S_PEND = 11    # wl: WL-Cache ACK deque
# -- engine mirrors (written back at every yield, re-read on resume) ---
S_P = 12       # stream position (== instret) at the last chunk boundary
S_CYC = 13     # core cycle at the last chunk boundary
S_T = 14       # wall-clock time (ns)
S_LC = 15      # accounting baseline: last_cache (nJ)
S_LNV = 16     # accounting baseline: last_nvm (nJ)
S_CT = 17      # compute_total accumulator (nJ)
S_CLT = 18     # cache_leak_total accumulator (nJ)
# -- bound objects and hoisted constants -------------------------------
S_CAP = 19     # the point's Capacitor (energy mirrored to a local)
S_NVM = 20     # the design's NVM backend (energy counter reads)
S_STATS = 21   # design.stats (re-read on every resume)
S_SYS = 22     # the System (per-chunk _e_backup_level reads)
S_TRACE = 23   # the PowerTrace, or None
S_CORE = 24    # the ReplayCore (pc recovery and I-cache flush state)
S_KON = 25     # hoisted constants tuple, see build_slot
N_SLOTS = 26

#: instance attributes that mean something wraps the design's memory
#: methods (the trace recorder, the invariant checker, a
#: ``scheduler.PREP_HOOK`` fault injector): every access must reach them
_GUARDED_METHODS = ("load", "store", "store_masked")


def column_mode(design) -> str:
    """How the engine issues one point's memory accesses.

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
    """The engine slot for one built point, plus its ``(mode, lru,
    traced, shift, smask, wmask)`` signature (geometry ``None`` in
    ``call`` mode).

    Runs after ``scheduler.PREP_HOOK``, so a hook that wraps a memory
    method is seen here and turns the point into ``call`` mode.
    """
    core = system.core
    design = system.design
    em = system.config.energy
    sl: list = [None] * N_SLOTS
    sl[S_LOAD] = design.load
    sl[S_STORE] = design.store
    sl[S_SM] = design.store_masked
    sl[S_CUM] = stream.cum_cycles
    sl[S_CMEM] = stream.c_mem
    sl[S_CIMISS] = core._c_imiss
    sl[S_P] = 0
    sl[S_CYC] = 0
    sl[S_T] = 0
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
    # the set/tag/word masks as literals
    return sl, (mode, 1 if arr._lru else 0, traced, arr.line_shift,
                arr.set_mask, design._word_mask)


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


def event_prev(stream: GuestStream):
    """Previous-occurrence index per event over the shared skeleton.

    For a line event at index ``ei``, ``prev[ei]`` is the index of the
    previous line event fetching the *same* line (``-1`` if none); for
    other event kinds it is ``-1``. Because a point's residency set
    only grows between flushes, a line is resident at event ``ei`` iff
    ``prev[ei] >= flush_ei`` (or the line is the point's post-flush
    synthesized fetch), so the engine keeps no residency set: one
    comparison per fetch event decides a miss. Cached on the skeleton
    (fetch events are the majority of a stream, so this one shared
    array replaces most of the per-event work).
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
