"""Engine codegen: one generated function runs one sweep point.

The engine for a point's *signature* - the ``(mode, lru, traced, shift,
smask, wmask)`` tuple :func:`engine_signature` reads off the point's
built ``System`` - is one plain function ``_run``, rendered and
compiled once per signature. It owns the whole run: it binds its locals
straight from the ``System`` (design, capacitor, config, trace and the
core's stream), calls ``_begin``, and runs the chunks - the window
budget (the serial ``System.run`` energy formula), the walk over the
kernel's shared event list, the chunk epilogue arithmetic and the
per-chunk capacitor accounting (drain, trace harvest, outage detection)
- all on locals, so the steady state runs with no attribute traffic and
no Python-level calls besides the design's own slow paths.

Per event kind it emits exactly what the interpreter would execute:
``call`` points call the design's bound method, while the other modes
inline the hit path - MRU line first, then the set scan - and on a miss
(or a failed WL-Cache guard) call the design's own ``load``/
``store_masked``, which replays the access from scratch. An inlined
access adds to the design's own ``MemStats`` fields, LRU stamp and NVM
counters, the same float additions in the same order as the class
method, so the stats are exact at every instant and no call needs a
flush. ``wl`` stores inline both WL-Cache fast cases (same-dirty-line
hit and the below-waterline clean->dirty insert, DirtyQueue bookkeeping
included); ``wt`` stores (VCache-WT) run whole inline, the synchronous
NVM word write included; ``rc`` store hits (ReplayCache) run whole
inline, the persist queue and the region-end wait included. The cache
geometry's shift and masks are baked in as literals. I-cache residency
is not kept as a set: a line is resident iff its previous occurrence
(the fourth field of a fetch event, :mod:`repro.batch.stream`) is at or
past the point's flush epoch, or it is the line synthesized right after
the flush.

A traced engine keeps the trace segment its time lies in as two locals,
its power and its end: a chunk that ends inside that segment harvests
``power * cycles``, bit for bit what ``PowerTrace.energy_nj`` returns
for it, and only a chunk that leaves the segment runs the inlined
general integration (which extends a lazily generated trace).

The engine drives the point's outage lifecycle itself. It writes the
capacitor energy back at the end of every chunk, since a design may
read the capacitor from inside a memory call (WL-Cache's dynamic
maxline policy), and before it calls ``System._outage_reboot`` or
``_halt_finalize`` it also writes the position (``core.instret``) and
the cycle (``core.cycle``) back, in the call's own block. After a
reboot it re-reads ``design.stats``, the cycle and the energy, folds
any cycles the lifecycle added (restore, reboot) into its chunk offset,
and, since the reboot flushed the point's
:class:`~repro.batch.replay.ReplayCore`, synthesizes the refetch the
interpreter makes of an unchanged line (a fetch the stream has no event
for); the flush epoch is the engine's own event index. At the halt it
returns ``_finish``'s ``RunResult``. Any error - a design fault, budget
exhaustion, a drained capacitor, a failed lifecycle block - propagates
to the caller as the reference engine would raise it.

Every memory call's timestamp is the now formula ``_cum[_i] - _cm + _dy
+ _of``, the interpreter's cycle counter at the same call, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.caches.base import CachedMemorySystem
from repro.caches.nvcache import NVCacheWB
from repro.caches.nvsram import NVSRAMIdeal
from repro.caches.replay import ReplayCache
from repro.caches.vcache_wt import VCacheWT
from repro.core.dirty_queue import DQEntry
from repro.core.wl_cache import WLCache
from repro.cpu.core import _ILINE_SHIFT
from repro.errors import EnergyError, ExecutionError
from repro.mem.setassoc import SetAssocArray

_U32 = 0xFFFFFFFF

#: the timestamp every memory call passes
_NOW_FORMULA = "_cum[_i] - _cm + _dy + _of"

#: signature -> (rendered source, compiled ``_run``); the source is kept
#: for the audit (rebaking a signature must reproduce it exactly)
_ENGINES: dict[tuple, tuple] = {}

#: exec globals for the generated engines: the serial loop's exception
#: types (raised with the serial paths' exact messages), the I-line
#: geometry for post-flush fetch synthesis, the DirtyQueue entry class
#: the inlined WL-Cache insert constructs (the same class
#: ``DirtyQueue.insert`` builds) and the trace seek's bisect
_NS_BINDS = {"EnergyError": EnergyError, "ExecutionError": ExecutionError,
             "_ILS": _ILINE_SHIFT, "_DQE": DQEntry, "_bis": bisect_right}

#: instance attributes that mean something wraps the design's memory
#: methods (the trace recorder, the invariant checker, a
#: ``scheduler.PREP_HOOK`` fault injector): every access must reach them
_GUARDED_METHODS = ("load", "store", "store_masked")

#: store mode -> the classes whose own ``store``/``store_masked`` the
#: mode inlines
_STORE_SHAPES = (("wl", (WLCache,)), ("wb", (NVSRAMIdeal, NVCacheWB)),
                 ("wt", (VCacheWT,)), ("rc", (ReplayCache,)))


def column_mode(design) -> str:
    """How the engine issues one point's memory accesses.

    * ``call`` - every access calls the design's bound method: a design
      whose ``load``/``store``/``store_masked`` is shadowed on the
      instance, that overrides the shared load path (WT+Buffer,
      NVSRAM(practical)), that has no set-associative array (NoCache),
      or whose store methods no other mode knows;
    * ``wl`` - WL-Cache's store policy: inline load hits, same-dirty-line
      store hits and below-waterline clean->dirty inserts;
    * ``wb`` - plain write-back stores (NVSRAM(ideal), NVSRAM(full),
      NVCache-WB): inline load and store hits;
    * ``wt`` - write-through, no-allocate stores (VCache-WT): inline
      load hits and every store, the NVM word write included;
    * ``rc`` - persist-queue stores (ReplayCache): inline load hits and
      store hits, the persist queue and region-end wait included.

    Method identity, not class identity, decides: a subclass that
    overrides a store method runs in ``call`` mode.
    """
    md = vars(design)
    if any(name in md for name in _GUARDED_METHODS):
        return "call"
    cls = type(design)
    if (cls.load is not CachedMemorySystem.load
            or not isinstance(getattr(design, "array", None),
                              SetAssocArray)):
        return "call"
    for mode, owners in _STORE_SHAPES:
        if (cls.store_masked in [o.store_masked for o in owners]
                and cls.store in [o.store for o in owners]):
            return mode
    return "call"


def engine_signature(system) -> tuple:
    """One built point's ``(mode, lru, traced, shift, smask, wmask)``
    engine signature (geometry ``None`` in ``call`` mode): the cache
    geometry rides in it so the engine bakes the set/tag/word masks as
    literals.

    Runs after ``scheduler.PREP_HOOK``, so a hook that wraps a memory
    method is seen here and turns the point into ``call`` mode.
    """
    design = system.design
    traced = 0 if system.trace is None else 1
    mode = column_mode(design)
    if mode == "call":
        return ("call", 0, traced, None, None, None)
    arr = design.array
    return (mode, 1 if arr._lru else 0, traced, arr.line_shift,
            arr.set_mask, design._word_mask)


def _stamp(pad: str) -> list[str]:
    """The LRU stamp, exactly as ``SetAssocArray.find`` applies it."""
    return [f"{pad}_arr._stamp = _ts = _arr._stamp + 1",
            f"{pad}_li.use_stamp = _ts"]


def _load_hit(lru: int, pad: str) -> list[str]:
    out = _stamp(pad) if lru else []
    out += [f"{pad}_sta.loads += 1",
            f"{pad}_sta.read_hits += 1",
            f"{pad}_sta.cache_read_energy_nj += _fe",
            f"{pad}_dy += _fh"]
    return out


def _emit_load(mode: str, lru: int, p: str, out: list[str]) -> None:
    if mode == "call":
        out += [f"{p}_v, _l = _ld(_a, {_NOW_FORMULA})",
                f"{p}_dy += _l"]
        return
    # the full probe: MRU hit, then the set scan (promoting the hit
    # line to MRU); a miss calls the design's own load
    out += [f"{p}_li = _mru[_ix]",
            f"{p}if _li.tag == _ln:"]
    out += _load_hit(lru, p + "    ")
    out += [f"{p}else:",
            f"{p}    for _li in _sets[_ix]:",
            f"{p}        if _li.tag == _ln:",
            f"{p}            _mru[_ix] = _li"]
    out += _load_hit(lru, p + "            ")
    out += [f"{p}            break",
            f"{p}    else:",
            f"{p}        _v, _l = _ld(_a, {_NOW_FORMULA})",
            f"{p}        _dy += _l"]


def _nvm_write(masked: bool, pad: str) -> list[str]:
    """``NVMainMemory.write_word_masked`` inline; the caller adds its
    ``write_word`` cycles."""
    if masked:
        out = [f"{pad}_w = _a >> 2",
               f"{pad}_nw[_w] = (_nw[_w] & ~_mask) | (_bits & _mask)"]
    else:
        out = [f"{pad}_nw[_a >> 2] = _val & {_U32}"]
    return out + [f"{pad}_nvm.writes += 1",
                  f"{pad}_nvm.energy_write_nj += _nwe"]


def _probe(pad: str) -> list[str]:
    """``SetAssocArray.find`` up to its LRU stamp: the MRU line, then the
    set scan (promoting the hit line to MRU); ``_li`` is the hit line or
    None, and a miss changes nothing."""
    return [f"{pad}_li = _mru[_ix]",
            f"{pad}if _li.tag != _ln:",
            f"{pad}    for _li in _sets[_ix]:",
            f"{pad}        if _li.tag == _ln:",
            f"{pad}            _mru[_ix] = _li",
            f"{pad}            break",
            f"{pad}    else:",
            f"{pad}        _li = None"]


def _store_hit(mode: str, lru: int, masked: bool, dirty: bool,
               pad: str) -> list[str]:
    """One inline store-hit body on engine locals. ``dirty`` selects
    WL-Cache's same-dirty-line case (no transition); ``wb`` always marks
    dirty, as the plain write-back ``store_masked`` does; ``rc`` goes on
    to the NVM word write and the persist queue."""
    out = _stamp(pad) if lru else []
    out += [f"{pad}_sta.stores += 1",
            f"{pad}_sta.write_hits += 1",
            f"{pad}_sta.cache_write_energy_nj += _few",
            f"{pad}_d = _li.data"]
    if masked:
        out.append(f"{pad}_d[_wi] = (_d[_wi] & ~_mask) | (_bits & _mask)")
    else:
        out.append(f"{pad}_d[_wi] = _val & {_U32}")
    if mode == "wb" or (mode == "wl" and not dirty):
        out.append(f"{pad}_li.dirty = True")
    if mode == "wl" and not dirty:
        # the inlined DirtyQueue insert, statement for statement
        # ``DirtyQueue.insert`` (provably no stall below the waterline)
        out += [f"{pad}_dq._seq += 1",
                f"{pad}_q = _DQE(_ln, _dq._seq)",
                f"{pad}for _qe in _dqe:",
                f"{pad}    if _qe.lineno == _ln:",
                f"{pad}        _dq.duplicate_inserts += 1",
                f"{pad}        break",
                f"{pad}_dqe.append(_q)",
                f"{pad}_dq.inserts += 1",
                f"{pad}_sta.cache_write_energy_nj += _dqj",
                f"{pad}_occ = len(_dqe)",
                f"{pad}if _occ > _dsg.dirty_highwater:",
                f"{pad}    _dsg.dirty_highwater = _occ"]
    if mode == "rc":
        return out + _nvm_write(masked, pad) + _rc_persist(pad)
    out.append(f"{pad}_dy += _fhw")
    return out


def _rc_persist(pad: str) -> list[str]:
    """The rest of ``ReplayCache.store_masked`` after a hit's writes,
    statement for statement: the asynchronous persist - drop the
    acknowledged persists, stall on a full queue, chain the new ACK -
    and the region-end wait. The queue, the last ACK and the region
    count stay design attributes (the checkpoint flush and ``finalize``
    read them). The filter is a plain loop, so its target is an engine
    local (A006)."""
    return [f"{pad}_c = _fhw",
            f"{pad}_is = _now + _fhw",
            f"{pad}_ifl = []",
            f"{pad}for _x in _dsg._inflight:",
            f"{pad}    if _x > _is:",
            f"{pad}        _ifl.append(_x)",
            f"{pad}if len(_ifl) >= _rpd:",
            f"{pad}    _x = _ifl[0] - _is",
            f"{pad}    _c += _x",
            f"{pad}    _sta.store_stall_cycles += _x",
            f"{pad}    _is += _x",
            f"{pad}    del _ifl[0]",
            f"{pad}_la = _dsg._last_ack",
            f"{pad}if _is > _la:",
            f"{pad}    _la = _is",
            f"{pad}_la += _nww",
            f"{pad}_dsg._last_ack = _la",
            f"{pad}_ifl.append(_la)",
            f"{pad}_sta.async_writebacks += 1",
            f"{pad}_rg = _dsg._region_count + 1",
            f"{pad}if _rg >= _rrs:",
            f"{pad}    _dsg._region_count = 0",
            f"{pad}    _x = _la - (_now + _c)",
            f"{pad}    if _x > 0:",
            f"{pad}        _c += _x",
            f"{pad}        _sta.store_stall_cycles += _x",
            f"{pad}    _ifl = []",
            f"{pad}else:",
            f"{pad}    _dsg._region_count = _rg",
            f"{pad}_dsg._inflight = _ifl",
            f"{pad}_dy += _c"]


def _emit_store(mode: str, lru: int, masked: bool, p: str,
                out: list[str]) -> None:
    if mode == "call":
        # every store calls the design's own method
        slow = (f"_sm(_a, _bits, _mask, {_NOW_FORMULA})" if masked
                else f"_st(_a, _val, {_NOW_FORMULA})")
        out.append(f"{p}_dy += {slow}")
        return
    if mode == "wt":
        # VCache-WT whole: a hit merges into the line, a miss allocates
        # nothing, and every store writes the NVM word through
        out += _probe(p)
        out += [f"{p}if _li is None:",
                f"{p}    _sta.stores += 1",
                f"{p}    _sta.write_misses += 1",
                f"{p}else:"]
        out += _store_hit(mode, lru, masked, False, p + "    ")
        out += _nvm_write(masked, p) + [f"{p}_dy += _nww"]
        return
    # wb/wl/rc: full probe inline; a miss (or a WL guard failure) calls
    # the design's own store_masked, which replays the access from
    # scratch (full-word stores pass the FULL mask, as the class
    # ``store`` delegator does)
    slow = ("_sm(_a, _bits, _mask, _now)" if masked
            else f"_sm(_a, _val, {_U32}, _now)")
    out.append(f"{p}_now = {_NOW_FORMULA}")
    if mode == "wl":
        out += [f"{p}if _pd and _pd[0].ack <= _now:",
                f"{p}    _dy += {slow}",
                f"{p}else:"]
        p += "    "
    out += _probe(p)
    out += [f"{p}if _li is None:",
            f"{p}    _dy += {slow}"]
    if mode in ("wb", "rc"):
        out.append(f"{p}else:")
        out += _store_hit(mode, lru, masked, False, p + "    ")
        return
    out.append(f"{p}elif _li.dirty:")
    out += _store_hit(mode, lru, masked, True, p + "    ")
    out += [f"{p}elif len(_dqe) >= _dsg.waterline:",
            f"{p}    _dy += {slow}",
            f"{p}else:"]
    out += _store_hit(mode, lru, masked, False, p + "    ")


def _emit_open(traced: int, out: list[str]) -> None:
    """Open the next chunk window: the serial budget formula and the new
    target instruction index."""
    pad = " " * 8
    if traced:
        # min(cki, max(2, int(x))) with the calls unrolled
        out += [f"{pad}_bi = int((_en - _sys._e_backup_level) / _wnj)",
                f"{pad}if _bi < 2:",
                f"{pad}    _bi = 2",
                f"{pad}if _bi > _cki:",
                f"{pad}    _bi = _cki"]
    else:
        out.append(f"{pad}_bi = 65536")
    out += [f"{pad}_tg = _p + _bi",
            f"{pad}if _tg > _ntot:",
            f"{pad}    _tg = _ntot"]


def _emit_close(traced: int, out: list[str]) -> None:
    """The chunk epilogue plus the ``System.run`` post-chunk accounting,
    all on locals. A serial-parity raise (budget exhaustion, capacitor
    drain) propagates out of the engine."""
    pad = " " * 8
    out += [f"{pad}cnt['column_chunks'] += 1",
            # _tg >= 1 always: a target is the entry + max(2, ...)
            # clamped to n_total, and a recording always retires HALT
            f"{pad}_nc = _cum[_tg - 1] + _dy + _of",
            f"{pad}_dc = _nc - _cy",
            f"{pad}_cy = _nc",
            f"{pad}if _tg > _mxi:",
            f"{pad}    raise ExecutionError(",
            f"{pad}        pname + ': exceeded instruction budget')",
            f"{pad}_fnow = evf[_ei] + _tf",
            # instret == position at every boundary, so the chunk
            # retired _tg - _p instructions
            f"{pad}_dcp = ((_tg - _p) * _knj",
            f"{pad}        + (_fnow - _lf) * _fnj",
            f"{pad}        + (_ms - _lim) * _mnj",
            f"{pad}        + _clw * _dc)",
            f"{pad}_p = _tg",
            f"{pad}_dlc = _dlw * _dc",
            f"{pad}_cl += _dlc",
            f"{pad}_cnow = (_sta.cache_read_energy_nj"
            f" + _sta.cache_write_energy_nj)",
            f"{pad}_nnow = (_nvm.energy_read_nj + _nvm.energy_write_nj)",
            f"{pad}_dca = _cnow - _lc",
            f"{pad}_dnv = _nnow - _lnv",
            f"{pad}_ct += _dcp",
            f"{pad}_lf = _fnow",
            f"{pad}_lim = _ms",
            f"{pad}_lc = _cnow",
            f"{pad}_lnv = _nnow"]
    if traced:
        out += [f"{pad}_nd = _dcp + _dlc + _dca + _dnv",
                f"{pad}if _nd < 0.0:",
                f"{pad}    raise EnergyError(",
                f"{pad}        f'cannot consume negative energy {{_nd}}')",
                f"{pad}_en -= _nd",
                f"{pad}if _en < 0.0:",
                f"{pad}    raise EnergyError('capacitor fully drained: "
                f"reserve was undersized')",
                # the harvest. A chunk that ends before the current
                # segment's end (_sx) harvests _pw * _dc: the loop below
                # would take one step and return 0.0 + _pw * _dc, the
                # same float, and would extend the trace only to a time
                # it already covers (a lazily generated trace's last
                # segment runs to _coverage_end_ns()).
                f"{pad}_te = _t + _dc",
                f"{pad}if _te < _sx:",
                f"{pad}    _hv = _pw * _dc",
                f"{pad}else:"]
        gp = pad + "    "  # the general path
        out += [
                # PowerTrace.energy_nj inlined statement-for-statement:
                # lazy extension stays the bound _extend (seeded-RNG
                # traces append segments in place), _seek's inner
                # _ensure is a guaranteed no-op after the t1 ensure,
                # the cursor fast paths and the bisect fallback find
                # the segment the method finds (_idx is only a seek
                # cache), and the summation accumulates per-segment
                # products in the same order - so the float result is
                # bit-identical. The reversed / empty-interval guards
                # drop: _te > _t always (a chunk retires >= 2
                # instructions of >= 1 cycle each).
                f"{gp}_tt = _t",
                f"{gp}if _te >= _tst[-1]:",
                f"{gp}    _tex(_te)",
                f"{gp}_n = len(_tst)",
                f"{gp}_si = _tr._idx",
                f"{gp}if (_si < _n and _tst[_si] <= _tt and"
                f" (_si + 1 == _n or _tt < _tst[_si + 1])):",
                f"{gp}    pass",
                f"{gp}elif (_si + 1 < _n and _tst[_si + 1] <= _tt"
                f" and (_si + 2 == _n or _tt < _tst[_si + 2])):",
                f"{gp}    _si += 1",
                f"{gp}    _tr._idx = _si",
                f"{gp}else:",
                f"{gp}    _si = _bis(_tst, _tt) - 1",
                f"{gp}    _tr._idx = _si",
                f"{gp}_hv = 0.0",
                f"{gp}while True:",
                f"{gp}    _se = _tst[_si + 1] if _si + 1 < _n else _te",
                f"{gp}    if _se > _te:",
                f"{gp}        _se = _te",
                f"{gp}    _hv += _tpw[_si] * (_se - _tt)",
                f"{gp}    if _se >= _te:",
                f"{gp}        break",
                f"{gp}    _tt = _se",
                f"{gp}    _si += 1",
                # the segment holding _te: the last one summed, or the
                # next when _te sits exactly on its start
                f"{gp}if _si + 1 < _n and _tst[_si + 1] <= _te:",
                f"{gp}    _si += 1",
                f"{gp}_pw = _tpw[_si]",
                f"{gp}_sx = _tst[_si + 1] if _si + 1 < _n else _tcv()"]
        out += [f"{pad}if _hv < 0.0:",
                f"{pad}    raise EnergyError(",
                f"{pad}        f'cannot harvest negative energy {{_hv}}')",
                f"{pad}_en += _hv",
                f"{pad}if _en > _emx:",
                f"{pad}    _en = _emx",
                f"{pad}_t = _te"]
    else:
        out.append(f"{pad}_t += _dc")
    # the chunk boundary's energy, for the lifecycle calls below and for
    # a memory call of the next chunk that reads the capacitor
    # (WL-Cache's dynamic maxline policy), as on the reference engine
    out.append(f"{pad}_cap._e_nj = _en")


def _emit_lifecycle(traced: int, out: list[str]) -> None:
    """The halt and (traced) outage blocks after a chunk closes: each
    writes the position and cycle back in its own block before it calls
    the ``System`` lifecycle (the epilogue wrote the energy)."""
    sync = ["            _core.instret = _p",
            "            _core.cycle = _cy"]
    out += ["        if _p == _ntot:"] + sync
    out += ["            _core.halted = True",
            "            _t = _sys._halt_finalize(_t)",
            "            return _sys._finish(res, bd, _t, _per, _ct, _cl)"]
    if not traced:
        return
    out += ["        if _en <= _sys._e_backup_level:"] + sync
    out += ["            (_t, _per, _np, _lc,",
            "             _lnv) = _sys._outage_reboot(res, bd, _t, _per, _np)",
            "            _sta = _dsg.stats",
            "            _cy = _core.cycle",
            "            _en = _cap._e_nj",
            # the recharge moved time on (and may have extended the
            # trace): the next harvest seeks its segment afresh
            "            _sx = -1",
            # fold the cycles the lifecycle added (restore, reboot) into
            # the offset; _p >= 1 here (a chunk closed before the check)
            "            _of = _cy - (_cum[_p - 1] + _dy)",
            "            if _core._pending_fetch:",
            # after a flush the interpreter re-fetches the resume line
            # even when it matches the previous instruction's line; the
            # stream has no event there, so the fetch is synthesized
            # from the pc (it always misses: the epoch is empty)
            "                _core._pending_fetch = False",
            "                _fl = _ei",
            "                _sy = -1",
            "                _evx = events[_ei] if _ei < ne else None",
            "                if _evx is None or _evx[0] != _p or _evx[1] != 0:",
            "                    _sy = _core.pc >> _ILS",
            "                    _tf += 1",
            "                    _ms += 1",
            "                    _dy += _ci"]


def render_engine_source(sig: tuple) -> str:
    """The engine source for a point signature (pure function of the
    signature - the audit rebakes it and compares)."""
    mode, lru, traced, shift, smask, wmask = sig
    out = ["def _run(_sys, res, bd, evf, cnt):",
           "    _dsg = _sys.design",
           "    _core = _sys.core",
           "    _stm = _core.stream",
           "    _cap = _sys.capacitor",
           "    _cfg = _sys.config",
           "    _em = _cfg.energy",
           "    pname = _sys.program.name",
           "    _ld = _dsg.load",
           "    _st = _dsg.store",
           "    _sm = _dsg.store_masked",
           "    _nvm = _dsg.nvm",
           "    events = _stm.events",
           "    ne = _stm.n_events",
           "    _cum = _stm.cum_cycles",
           "    _cm = _stm.c_mem",
           "    _ntot = _stm.n_total",
           "    _ci = _core._c_imiss",
           "    _knj = _em.compute_nj",
           "    _fnj = _em.ifetch_nj",
           "    _mnj = _em.ifetch_miss_nj",
           "    _clw = _em.core_leakage_w",
           "    _wnj = _em.worst_instr_nj",
           "    _dlw = _dsg.leakage_w()",
           "    _cki = _cfg.chunk_instrs",
           "    _mxi = _cfg.max_instructions",
           "    _emx = _cap._e_max"]
    if mode != "call":
        out += ["    _arr = _dsg.array",
                "    _mru = _arr.mru",
                "    _sets = _arr.sets",
                "    _fe = _dsg._e_read",
                "    _fh = _dsg._hit_read_cycles",
                "    _few = _dsg._e_write",
                "    _fhw = _dsg._hit_write_cycles"]
    if mode == "wl":
        out += ["    _pd = _dsg.pending",
                "    _dq = _dsg.dq",
                "    _dqe = _dq.entries",
                "    _dqj = _dsg.dq_access_energy_nj"]
    if mode in ("wt", "rc"):
        out += ["    _nw = _nvm.words",
                "    _nwe = _nvm.timings.write_energy_nj",
                "    _nww = _nvm.timings.write_word"]
    if mode == "rc":
        out += ["    _rpd = _dsg.persist_depth",
                "    _rrs = _dsg.region_stores"]
    if traced:
        out += ["    _tr = _sys.trace",
                "    _tst = _tr.starts",
                "    _tpw = _tr.powers",
                "    _tex = _tr._extend",
                "    _tcv = _tr._coverage_end_ns"]
    # the System.run prologue, then the engine-only state: the event
    # index, dynamic cycles, chunk offset, misses, synthesized fetches
    # and their accounting baselines, the flush epoch and its
    # synthesized line
    out += ["    _t = _sys._begin(res)",
            "    _per = _sys._new_period()",
            "    _np = 0",
            "    _sta = _dsg.stats",
            "    _en = _cap._e_nj",
            "    _p = _cy = _ei = _dy = _of = _ms = _tf = _lf = _lim = _fl = 0",
            "    _lc = _lnv = _ct = _cl = 0.0",
            "    _sy = -1"]
    if traced:
        # the current trace segment's power and end (-1: seek it)
        out += ["    _pw = 0.0",
                "    _sx = -1"]
    out.append("    while True:")
    _emit_open(traced, out)
    out += ["        while _ei < ne:",
            "            _ev = events[_ei]",
            "            _i = _ev[0]",
            "            if _i >= _tg:",
            "                break",
            "            _k = _ev[1]",
            "            if _k == 0:",
            "                if _ev[3] < _fl and _ev[2] != _sy:",
            "                    _ms += 1",
            "                    _dy += _ci",
            "            elif _k == 1:",
            "                _a = _ev[2]"]
    ev = " " * 16  # an event-kind body inside the walk
    probe = [f"{ev}_ln = _a >> {shift}",
             f"{ev}_ix = _ln & {smask}"] if mode != "call" else []
    store_probe = probe + [f"{ev}_wi = (_a >> 2) & {wmask}"] \
        if mode != "call" else []
    out += probe
    _emit_load(mode, lru, ev, out)
    out += ["            elif _k == 2:",
            f"{ev}_a = _ev[2]",
            f"{ev}_val = _ev[3]"]
    out += store_probe
    _emit_store(mode, lru, False, ev, out)
    out += ["            else:",
            f"{ev}_a = _ev[2]",
            f"{ev}_bits = _ev[3]",
            f"{ev}_mask = _ev[4]"]
    out += store_probe
    _emit_store(mode, lru, True, ev, out)
    out.append("            _ei += 1")
    _emit_close(traced, out)
    _emit_lifecycle(traced, out)
    out.append("")
    return "\n".join(out)


def get_engine(sig: tuple):
    """The compiled ``_run`` for a signature, rendered and compiled on
    first demand and shared by every point of that signature."""
    entry = _ENGINES.get(sig)
    if entry is None:
        src = render_engine_source(sig)
        ns: dict = dict(_NS_BINDS)
        exec(compile(src, "<lockstep>", "exec"), ns)
        entry = _ENGINES[sig] = (src, ns["_run"])
    return entry[1]


def engine_sources() -> dict[tuple, str]:
    """Signature -> retained source, for the codegen audit."""
    return {sig: src for sig, (src, _run) in _ENGINES.items()}


def engine_cache_stats() -> dict:
    """Codegen counters (tests/benchmarks): every signature renders
    once, so the count of compiled engines is the count of renders."""
    return {"signatures": len(_ENGINES)}


def clear_engines() -> None:
    """Drop generated engines (tests/benchmarks)."""
    _ENGINES.clear()
