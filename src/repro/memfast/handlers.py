"""Hit-path handler codegen: per-design specialized fast paths.

Each eligible design gets `load`/`store`/`store_masked` replacements
generated as Python source with the geometry and energy constants baked
in as literals (set mask, line shift, word mask, per-access energies,
hit latencies, the LRU flag) - the same generate-and-``exec`` technique
as :mod:`repro.jit.blocks`. The handlers cover exactly the cases the
profile says dominate:

* **load hit** (every design sharing
  :meth:`~repro.caches.base.CachedMemorySystem.load`),
* **store hit to an already-dirty line** (write-back designs: the
  NVSRAM family, NVCache-WB, and WL-Cache's §5.1 same-dirty-line case),
* **WL-Cache clean→dirty transition below the waterline** (tag hit, no
  ACKs due, DirtyQueue occupancy strictly under the waterline - provably
  no stall, no write-back issue, so the DirtyQueue insert is inlined).

Everything else - misses, stalls, waterline crossings, ACK retirement -
bails to the *bracketed* slow path (the unmodified class method wrapped
in an accumulator flush/resync, see :mod:`repro.memfast.attach`), taken
**before** any state is mutated, so the slow method replays the access
from scratch and the observable effects stay bit-identical.

Deferred statistics live in a 5-slot accumulator list shared with the
attach layer::

    acc = [fast_load_hits_delta, fast_store_hits_delta,
           cache_read_energy_nj, cache_write_energy_nj, array._stamp]

A fast load hit bumps ``loads`` and ``read_hits`` by the same 1 (ditto
stores/write_hits), so one *delta* counter per kind covers both stat
fields - integer addition is exact and order-free, and the flush adds
the delta to both. The float slots stay *absolute*: the handlers append
energy terms to a value that starts from the synced stat and is flushed
back verbatim, so the sequence of float additions per field is
identical to the slow path's ``stats.x += e`` sequence - same order,
same values, same result bits.

Hits probe the per-set MRU line first (``SetAssocArray.mru``); the tag
check alone decides validity (invalid lines hold ``tag == -1``), so a
stale MRU pointer simply falls through to the normal set probe.

Generated code objects are cached by source string, so a sweep
generates each (family, geometry, cost) combination once per process.
Rendered *sources* are additionally memoized under their literal
parameter tuple ("renders" in :func:`codegen_cache_stats` counts the
distinct ones), so a replay instance re-renders nothing it shares with
an earlier one.
"""

from __future__ import annotations

_FULL = 0xFFFFFFFF

#: source -> compiled code object (families x geometries stay small)
_CODE_CACHE: dict[str, object] = {}

#: literal-parameter key -> rendered source
_SRC_CACHE: dict[tuple, str] = {}

_GEN_STATS = {"renders": 0}

# LRU stamping, at the two indents the templates need. The chained
# assignment writes the accumulator slot first, then the local.
_STAMP8 = ("        _acc[4] = _ts = _acc[4] + 1\n"
           "        line.use_stamp = _ts\n")
_STAMP12 = ("            _acc[4] = _ts = _acc[4] + 1\n"
            "            line.use_stamp = _ts\n")


def _make(source: str, *args):
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, "<memfast>", "exec")
        _CODE_CACHE[source] = code
    ns: dict = {}
    exec(code, ns)
    fn = ns["_make"](*args)
    fn._memfast_source = source  # audited against a fresh re-render
    return fn


def codegen_cache_stats() -> dict:
    """Counters for tests/benchmarks."""
    return {"sources": len(_CODE_CACHE), **_GEN_STATS}


def clear_handler_sources() -> None:
    """Drop rendered handler sources/code and reset counters (tests)."""
    _SRC_CACHE.clear()
    _CODE_CACHE.clear()
    for k in _GEN_STATS:
        _GEN_STATS[k] = 0


def _keyed_source(key: tuple, render) -> str:
    """The handler source for a literal-parameter ``key``: the memo,
    else a fresh ``render(*key[1:])``."""
    src = _SRC_CACHE.get(key)
    if src is None:
        src = _SRC_CACHE[key] = render(*key[1:])
        _GEN_STATS["renders"] += 1
    return src


_LOAD_TMPL = """\
def _make(_sets, _mru, _acc, _slow):
    def load(addr, now,
             _sets=_sets, _mru=_mru, _acc=_acc, _slow=_slow):
        lineno = addr >> {shift}
        si = lineno & {smask}
        line = _mru[si]
        if line.tag != lineno:
            for line in _sets[si]:
                if line.tag == lineno:
                    _mru[si] = line
                    break
            else:
                return _slow(addr, now)
{stamp}        _acc[0] += 1
        _acc[2] += {e_read!r}
        return (line.data[(addr >> 2) & {wmask}], {hit_cycles})
    return load
"""

_WB_STORE_TMPL = """\
def _make(_sets, _mru, _acc, _slow):
    def {name}({sig},
               _sets=_sets, _mru=_mru, _acc=_acc, _slow=_slow):
        lineno = addr >> {shift}
        si = lineno & {smask}
        line = _mru[si]
        if line.tag != lineno:
            for line in _sets[si]:
                if line.tag == lineno:
                    _mru[si] = line
                    break
            else:
                return {slow_call}
{stamp}        _acc[1] += 1
        _acc[3] += {e_write!r}
        widx = (addr >> 2) & {wmask}
        data = line.data
        data[widx] = {merge}
        line.dirty = True
        return {hit_cycles}
    return {name}
"""

# WL-Cache §5.1. Fast only when (in order of the guards): no ACK is due
# (slow would retire it), the tag hits, and - for a clean line - the
# DirtyQueue sits strictly below the waterline, which via
# waterline <= maxline <= capacity proves _ensure_slot would not loop,
# the insert cannot overflow, and no write-back would be issued. The
# inlined insert mirrors DirtyQueue.insert statement for statement.
_WL_STORE_TMPL = """\
def _make(_sets, _mru, _acc, _cache, _dq, _entries, _pending, _DQEntry,
          _slow):
    def {name}({sig},
               _sets=_sets, _mru=_mru, _acc=_acc, _cache=_cache, _dq=_dq,
               _entries=_entries, _pending=_pending, _DQEntry=_DQEntry,
               _slow=_slow):
        if _pending and _pending[0].ack <= now:
            return {slow_call}
        lineno = addr >> {shift}
        si = lineno & {smask}
        line = _mru[si]
        if line.tag != lineno:
            for line in _sets[si]:
                if line.tag == lineno:
                    _mru[si] = line
                    break
            else:
                return {slow_call}
        if line.dirty:
{stamp12}            _acc[1] += 1
            _acc[3] += {e_write!r}
            widx = (addr >> 2) & {wmask}
            data = line.data
            data[widx] = {merge}
            return {hit_cycles}
        if len(_entries) >= _cache.waterline:
            return {slow_call}
{stamp}        _acc[1] += 1
        _acc[3] += {e_write!r}
        widx = (addr >> 2) & {wmask}
        data = line.data
        data[widx] = {merge}
        line.dirty = True
        _dq._seq += 1
        entry = _DQEntry(lineno, _dq._seq)
        for q in _entries:
            if q.lineno == lineno:
                _dq.duplicate_inserts += 1
                break
        _entries.append(entry)
        _dq.inserts += 1
        _acc[3] += {dq_energy!r}
        occ = len(_entries)
        if occ > _cache.dirty_highwater:
            _cache.dirty_highwater = occ
        return {hit_cycles}
    return {name}
"""

#: (name, signature, masked?) for the two store entry points. The
#: full-word variant bails with the same FULL mask the class ``store``
#: delegator would pass, so the slow replay is literally the same call.
_STORE_SHAPES = (
    ("store_masked", "addr, bits, mask, now",
     "_slow(addr, bits, mask, now)",
     "(data[widx] & ~mask) | (bits & mask)"),
    ("store", "addr, value, now",
     f"_slow(addr, value, {_FULL}, now)",
     f"value & {_FULL}"),
)


# Pure renderers: every baked value arrives as a literal argument, so a
# (kind, *literals) tuple is both the memo key and everything a fresh
# render needs - no live memory system is ever captured.

def _render_load(shift, smask, lru, e_read, wmask, hit_cycles) -> str:
    return _LOAD_TMPL.format(
        shift=shift, smask=smask, stamp=_STAMP8 if lru else "",
        e_read=e_read, wmask=wmask, hit_cycles=hit_cycles)


def _render_wb(name, shift, smask, lru, e_write, wmask,
               hit_cycles) -> str:
    shape = {s[0]: s for s in _STORE_SHAPES}[name]
    _name, sig, slow_call, merge = shape
    return _WB_STORE_TMPL.format(
        name=name, sig=sig, slow_call=slow_call, merge=merge,
        shift=shift, smask=smask, stamp=_STAMP8 if lru else "",
        e_write=e_write, wmask=wmask, hit_cycles=hit_cycles)


def _render_wl(name, shift, smask, lru, e_write, wmask, hit_cycles,
               dq_energy) -> str:
    shape = {s[0]: s for s in _STORE_SHAPES}[name]
    _name, sig, slow_call, merge = shape
    return _WL_STORE_TMPL.format(
        name=name, sig=sig, slow_call=slow_call, merge=merge,
        shift=shift, smask=smask, stamp=_STAMP8 if lru else "",
        stamp12=_STAMP12 if lru else "",
        e_write=e_write, wmask=wmask, hit_cycles=hit_cycles,
        dq_energy=dq_energy)


def _load_key(m) -> tuple:
    array = m.array
    return ("load", array.line_shift, array.set_mask, bool(array._lru),
            m._e_read, m._word_mask, m._hit_read_cycles)


def _wb_key(m, name: str) -> tuple:
    array = m.array
    return (f"wb-{name}", name, array.line_shift, array.set_mask,
            bool(array._lru), m._e_write, m._word_mask,
            m._hit_write_cycles)


def _wl_key(m, name: str) -> tuple:
    array = m.array
    return (f"wl-{name}", name, array.line_shift, array.set_mask,
            bool(array._lru), m._e_write, m._word_mask,
            m._hit_write_cycles, m.dq_access_energy_nj)


def load_handler_source(m) -> str:
    """Render the load-hit handler source for a live memory system (the
    baked literals come straight off ``m``, so a fresh render is the
    auditor's ground truth for what the handler *should* contain)."""
    return _render_load(*_load_key(m)[1:])


def wb_store_sources(m) -> dict[str, str]:
    """Rendered plain write-back store handler sources, keyed by name."""
    return {name: _render_wb(*_wb_key(m, name)[1:])
            for name, _sig, _slow, _merge in _STORE_SHAPES}


def wl_store_sources(m) -> dict[str, str]:
    """Rendered WL-Cache store handler sources, keyed by name."""
    return {name: _render_wl(*_wl_key(m, name)[1:])
            for name, _sig, _slow, _merge in _STORE_SHAPES}


def build_load(m, acc, slow_load):
    """The generic load-hit handler (shared base-class load semantics)."""
    array = m.array
    src = _keyed_source(_load_key(m), _render_load)
    return _make(src, array.sets, array.mru, acc, slow_load)


def build_wb_stores(m, acc, slow_sm):
    """store/store_masked for plain write-back hits (NVSRAM*, NVCache)."""
    array = m.array
    out = {}
    for name, _sig, _slow, _merge in _STORE_SHAPES:
        src = _keyed_source(_wb_key(m, name), _render_wb)
        out[name] = _make(src, array.sets, array.mru, acc, slow_sm)
    return out


def build_wl_stores(m, acc, slow_sm, dq_entry_cls):
    """store/store_masked for WL-Cache's two fast cases (§5.1)."""
    array = m.array
    out = {}
    for name, _sig, _slow, _merge in _STORE_SHAPES:
        src = _keyed_source(_wl_key(m, name), _render_wl)
        out[name] = _make(src, array.sets, array.mru, acc, m, m.dq,
                          m.dq.entries, m.pending, dq_entry_cls, slow_sm)
    return out
