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
``call`` points call the design's bound method, while
``base``/``wb``/``wl`` points inline the hit path - MRU line first,
then the set scan - and on a miss (or a failed WL-Cache guard) call the
design's own ``load``/``store_masked``, which replays the access from
scratch. A hit adds to the design's own ``MemStats`` fields and LRU
stamp, the same float additions in the same order as the class method,
so the stats are exact at every instant and no call needs a flush.
``wl`` stores inline both WL-Cache fast cases (same-dirty-line hit and
the below-waterline clean->dirty insert, DirtyQueue bookkeeping
included). The cache geometry's shift and masks are baked in as
literals. I-cache residency is not kept as a set: a line is resident
iff its previous occurrence (:func:`repro.batch.stream.event_prev`) is
at or past the point's flush epoch, or it is the line synthesized right
after the flush.

The engine drives the point's outage lifecycle itself. Before it calls
``System._outage_reboot`` or ``_halt_finalize`` it writes the capacitor
energy, the position (``core.instret``) and the cycle (``core.cycle``)
back, in the call's own block. After a reboot it re-reads
``design.stats``, the cycle and the energy, folds any cycles the
lifecycle added (restore, reboot) into its chunk offset, and, since the
reboot flushed the point's :class:`~repro.batch.replay.ReplayCore`,
synthesizes the refetch the interpreter makes of an unchanged line (a
fetch the stream has no event for); the flush epoch is the engine's own
event index. At the halt it returns ``_finish``'s ``RunResult``. Any
error - a design fault, budget exhaustion, a drained capacitor, a
failed lifecycle block - propagates to the caller as the reference
engine would raise it.

Every memory call's timestamp is the now formula ``_cum[_i] - _cm + _dy
+ _of``, the interpreter's cycle counter at the same call, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.caches.base import CachedMemorySystem
from repro.caches.nvcache import NVCacheWB
from repro.caches.nvsram import NVSRAMIdeal
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
#: geometry for post-flush fetch synthesis, and the DirtyQueue entry
#: class the inlined WL-Cache insert constructs (the same class
#: ``DirtyQueue.insert`` builds)
_NS_BINDS = {"EnergyError": EnergyError, "ExecutionError": ExecutionError,
             "_ILS": _ILINE_SHIFT, "_DQE": DQEntry, "_bis": bisect_right}

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


def _store_hit(mode: str, lru: int, masked: bool, dirty: bool,
               pad: str) -> list[str]:
    """One inline store-hit body on engine locals. ``dirty`` selects
    WL-Cache's same-dirty-line case (no transition); ``wb`` always marks
    dirty, as the plain write-back ``store_masked`` does."""
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
    out.append(f"{pad}_dy += _fhw")
    return out


def _emit_store(mode: str, lru: int, masked: bool, p: str,
                out: list[str]) -> None:
    if mode in ("call", "base"):
        # every store calls the design's own method
        slow = (f"_sm(_a, _bits, _mask, {_NOW_FORMULA})" if masked
                else f"_st(_a, _val, {_NOW_FORMULA})")
        out.append(f"{p}_dy += {slow}")
        return
    # wb/wl: full probe inline; a miss (or a WL guard failure) calls the
    # design's own store_masked, which replays the access from scratch
    # (full-word stores pass the FULL mask, as the class ``store``
    # delegator does)
    slow = ("_sm(_a, _bits, _mask, _now)" if masked
            else f"_sm(_a, _val, {_U32}, _now)")
    out.append(f"{p}_now = {_NOW_FORMULA}")
    if mode == "wl":
        out += [f"{p}if _pd and _pd[0].ack <= _now:",
                f"{p}    _dy += {slow}",
                f"{p}else:"]
        p += "    "
    out += [f"{p}_li = _mru[_ix]",
            f"{p}if _li.tag != _ln:",
            f"{p}    for _li in _sets[_ix]:",
            f"{p}        if _li.tag == _ln:",
            f"{p}            _mru[_ix] = _li",
            f"{p}            break",
            f"{p}    else:",
            f"{p}        _li = None",
            f"{p}if _li is None:",
            f"{p}    _dy += {slow}"]
    if mode == "wb":
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
                # PowerTrace.energy_nj inlined statement-for-statement:
                # lazy extension stays the bound _extend (seeded-RNG
                # traces append segments in place), _seek's inner
                # _ensure is a guaranteed no-op after the t1 ensure,
                # the cursor fast paths and the bisect fallback update
                # _idx exactly as the method does, and the summation
                # accumulates per-segment products in the same order -
                # so the float result is bit-identical. The reversed /
                # empty-interval guards drop: _te > _t always (a chunk
                # retires >= 2 instructions of >= 1 cycle each).
                f"{pad}_te = _t + _dc",
                f"{pad}_tt = _t",
                f"{pad}if _te >= _tst[-1]:",
                f"{pad}    _tex(_te)",
                f"{pad}_n = len(_tst)",
                f"{pad}_si = _tr._idx",
                f"{pad}if (_si < _n and _tst[_si] <= _tt and"
                f" (_si + 1 == _n or _tt < _tst[_si + 1])):",
                f"{pad}    pass",
                f"{pad}elif (_si + 1 < _n and _tst[_si + 1] <= _tt"
                f" and (_si + 2 == _n or _tt < _tst[_si + 2])):",
                f"{pad}    _si += 1",
                f"{pad}    _tr._idx = _si",
                f"{pad}else:",
                f"{pad}    _si = _bis(_tst, _tt) - 1",
                f"{pad}    _tr._idx = _si",
                f"{pad}_hv = 0.0",
                f"{pad}while True:",
                f"{pad}    _se = _tst[_si + 1] if _si + 1 < _n else _te",
                f"{pad}    if _se > _te:",
                f"{pad}        _se = _te",
                f"{pad}    _hv += _tpw[_si] * (_se - _tt)",
                f"{pad}    if _se >= _te:",
                f"{pad}        break",
                f"{pad}    _tt = _se",
                f"{pad}    _si += 1",
                f"{pad}if _hv < 0.0:",
                f"{pad}    raise EnergyError(",
                f"{pad}        f'cannot harvest negative energy {{_hv}}')",
                f"{pad}_en += _hv",
                f"{pad}if _en > _emx:",
                f"{pad}    _en = _emx",
                f"{pad}_t = _te"]
    else:
        out.append(f"{pad}_t += _dc")


def _emit_lifecycle(traced: int, out: list[str]) -> None:
    """The halt and (traced) outage blocks after a chunk closes: each
    writes the capacitor energy, position and cycle back in its own
    block before it calls the ``System`` lifecycle."""
    sync = ["            _cap._e_nj = _en",
            "            _core.instret = _p",
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
    out = ["def _run(_sys, res, bd, po, evf, cnt):",
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
    if traced:
        out += ["    _tr = _sys.trace",
                "    _tst = _tr.starts",
                "    _tpw = _tr.powers",
                "    _tex = _tr._extend"]
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
            "    _sy = -1",
            "    while True:"]
    _emit_open(traced, out)
    out += ["        while _ei < ne:",
            "            _ev = events[_ei]",
            "            _i = _ev[0]",
            "            if _i >= _tg:",
            "                break",
            "            _k = _ev[1]",
            "            if _k == 0:",
            "                if po[_ei] < _fl and _ev[2] != _sy:",
            "                    _ms += 1",
            "                    _dy += _ci",
            "            elif _k == 1:",
            "                _a = _ev[2]"]
    ev = " " * 16  # an event-kind body inside the walk
    probe = [f"{ev}_ln = _a >> {shift}",
             f"{ev}_ix = _ln & {smask}"] if mode != "call" else []
    store_probe = probe + [f"{ev}_wi = (_a >> 2) & {wmask}"] \
        if mode in ("wb", "wl") else []
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
