"""Engine codegen: one generated generator runs one sweep point's chunks.

The engine for a point's *signature* - the ``(mode, lru, traced, shift,
smask, wmask)`` tuple from :func:`repro.lockstep.state.build_slot` - is
a Python generator rendered and ``exec``-compiled once per signature
(source-keyed cache, like the record-mode blocks). It owns the entire
chunk machinery: the window budget (the serial ``System.run`` energy
formula), the walk over the kernel's shared event list, the chunk
epilogue arithmetic, and the per-chunk capacitor accounting (drain,
trace harvest, outage detection), all on locals - so the steady state
runs with no attribute traffic and no Python-level calls besides the
design's own slow paths.

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
iff its previous occurrence (:func:`repro.lockstep.state.event_prev`)
is at or past the point's flush epoch, or it is the line synthesized
right after the flush.

Protocol: ``gen = make_engine(sig, events, ne, po, evf, cell, slot,
pname)`` binds the read-only slot entries to locals and parks;
``gen.send(None)`` runs chunks until the point needs the scheduler and
yields one episode:

* ``("halt",)`` - the point retired its last instruction and its chunk
  accounting is done; the scheduler runs halt finalization.
* ``("outage",)`` - the chunk accounting drained the capacitor to its
  backup level; the scheduler runs the outage lifecycle and resumes the
  engine.
* ``("err", exc)`` - a memory call or a chunk close raised (a design
  fault, budget exhaustion, a drained capacitor): the point ends as
  that error, as the reference engine would raise it.

Before every yield the engine writes its mirrors (position, cycle, wall
time, accounting baselines) back to the slot, the capacitor energy back
to the capacitor, and the event index and closed-chunk count to
``cell`` (``[ei, chunks]``). After every resume it re-reads the mirrors,
folds any cycles the lifecycle added (restore, reboot) into its chunk
offset, and, after an I-cache flush on the point's
:class:`~repro.batch.replay.ReplayCore`, synthesizes the refetch the
interpreter makes of an unchanged line (a fetch the stream has no event
for). State only the engine changes - the event index, dynamic cycles,
the miss and fetch counters and their baselines, the flush epoch -
stays in the generator's locals across yields.

Every memory call's timestamp is the now formula ``_cum[_i] - _cm + _dy
+ _of``, the interpreter's cycle counter at the same call, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.dirty_queue import DQEntry
from repro.cpu.core import _ILINE_SHIFT
from repro.errors import EnergyError, ExecutionError
from repro.lockstep.state import (S_ARR, S_CAP, S_CIMISS, S_CLT, S_CMEM,
                                  S_CORE, S_CT, S_CUM, S_CYC, S_KON, S_LC,
                                  S_LNV, S_LOAD, S_NVM, S_P, S_PEND, S_RE,
                                  S_RH, S_SM, S_STATS, S_STORE, S_SYS, S_T,
                                  S_TRACE, S_WE, S_WH)

_U32 = 0xFFFFFFFF

#: the timestamp every memory call passes
_NOW_FORMULA = "_cum[_i] - _cm + _dy + _of"

#: signature -> rendered source (kept for the audit; rebaking a
#: signature must reproduce its retained source exactly)
_SIG_SOURCES: dict[tuple, str] = {}

#: source -> compiled code object
_CODE_CACHE: dict[str, object] = {}

_ENGINE_STATS = {"renders": 0, "builds": 0}

#: exec globals for the generated engines: the serial loop's exception
#: types (raised with the serial paths' exact messages), the I-line
#: geometry for post-flush fetch synthesis, and the DirtyQueue entry
#: class the inlined WL-Cache insert constructs (the same class
#: ``DirtyQueue.insert`` builds)
_NS_BINDS = {"EnergyError": EnergyError, "ExecutionError": ExecutionError,
             "_ILS": _ILINE_SHIFT, "_DQE": DQEntry, "_bis": bisect_right}

#: constant slot entries every mode unpacks to locals
_COMMON_BINDS = (("_ld", S_LOAD), ("_st", S_STORE), ("_sm", S_SM),
                 ("_cum", S_CUM), ("_cm", S_CMEM), ("_ci", S_CIMISS),
                 ("_cap", S_CAP), ("_nvm", S_NVM), ("_sys", S_SYS),
                 ("_core", S_CORE))
_PROBE_BINDS = (("_arr", S_ARR), ("_fe", S_RE), ("_fh", S_RH),
                ("_few", S_WE), ("_fhw", S_WH))
_WL_BINDS = (("_pd", S_PEND),)

#: (local, slot index) for every mirror: the contiguous S_P..S_CLT
#: block, re-read by one slice unpack after each resume and written
#: back by one slice assignment before each yield
_MIRRORS = (("_p", S_P), ("_cy", S_CYC), ("_t", S_T), ("_lc", S_LC),
            ("_lnv", S_LNV), ("_ct", S_CT), ("_cl", S_CLT))

assert [idx for _nm, idx in _MIRRORS] == list(range(S_P, S_CLT + 1)), \
    "mirror block must stay contiguous for the slice sync"


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
                f"{pad}if _occ > _wlc.dirty_highwater:",
                f"{pad}    _wlc.dirty_highwater = _occ"]
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
    out += [f"{p}elif len(_dqe) >= _wlc.waterline:",
            f"{p}    _dy += {slow}",
            f"{p}else:"]
    out += _store_hit(mode, lru, masked, False, p + "    ")


def _emit_open(traced: int, pad: str, out: list[str]) -> None:
    """Open the next chunk window: the serial budget formula and the new
    target instruction index."""
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
    all on locals; ends in a halt/outage episode or an inline reopen.
    A serial-parity raise (budget exhaustion, capacitor drain) reaches
    the engine's handler, which ends the point as that error."""
    pad = " " * 16
    out += [f"{pad}_nck += 1",
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
    out += [f"{pad}if _p == _ntot:",
            f"{pad}    _ep = ('halt',)",
            f"{pad}    break"]
    if traced:
        out += [f"{pad}if _en <= _sys._e_backup_level:",
                f"{pad}    _ep = ('outage',)",
                f"{pad}    break"]
    _emit_open(traced, pad, out)


def render_engine_source(sig: tuple) -> str:
    """The engine source for a point signature (pure function of the
    signature - the audit rebakes it and compares)."""
    mode, lru, traced, shift, smask, wmask = sig
    binds = _COMMON_BINDS
    if mode != "call":
        binds = binds + _PROBE_BINDS
    if mode == "wl":
        binds = binds + _WL_BINDS
    out = ["def _make_engine(events, ne, po, evf, cell, _s, pname):"]
    out += [f"    {name} = _s[{idx}]" for name, idx in binds]
    if mode != "call":
        out += ["    _mru = _arr.mru",
                "    _sets = _arr.sets"]
    if mode == "wl":
        out += ["    _wlc = _sys.design",
                "    _dq = _wlc.dq",
                "    _dqe = _dq.entries",
                "    _dqj = _wlc.dq_access_energy_nj"]
    out.append("    (_knj, _fnj, _mnj, _clw, _dlw, _wnj, _cki, _mxi, _emx,"
               f" _ntot) = _s[{S_KON}]")
    if traced:
        out += [f"    _tr = _s[{S_TRACE}]",
                "    _tst = _tr.starts",
                "    _tpw = _tr.powers",
                "    _tex = _tr._extend"]
    mirrors = ", ".join(name for name, _idx in _MIRRORS)
    # engine-only state: the event index, dynamic cycles, misses,
    # synthesized fetches and their accounting baselines, the flush
    # epoch and its synthesized line
    out += ["    _ei = _dy = _ms = _tf = _lf = _lim = _fl = 0",
            "    _sy = -1",
            "    yield None",
            "    while True:",
            f"        ({mirrors}) = _s[{S_P}:{S_CLT + 1}]",
            f"        _sta = _s[{S_STATS}]",
            "        _en = _cap._e_nj",
            # the lifecycle may have added cycles (restore, reboot):
            # fold them into the offset (a no-op when it added none)
            "        _of = _cy - ((_cum[_p - 1] if _p else 0) + _dy)",
            "        if _core._pending_fetch:",
            # after a flush the interpreter re-fetches the resume line
            # even when it matches the previous instruction's line; the
            # stream has no event there, so the fetch is synthesized
            # from the pc (it always misses: the epoch is empty)
            "            _core._pending_fetch = False",
            "            _fl = _core._flush_ei",
            "            _sy = -1",
            "            _evx = events[_ei] if _ei < ne else None",
            "            if _evx is None or _evx[0] != _p or _evx[1] != 0:",
            "                _sy = _core.pc >> _ILS",
            "                _tf += 1",
            "                _ms += 1",
            "                _dy += _ci"]
    _emit_open(traced, "        ", out)
    out += ["        _nck = 0",
            "        try:",
            "            while True:",
            "                while _ei < ne:",
            "                    _ev = events[_ei]",
            "                    _i = _ev[0]",
            "                    if _i >= _tg:",
            "                        break",
            "                    _k = _ev[1]",
            "                    if _k == 0:",
            "                        if po[_ei] < _fl and _ev[2] != _sy:",
            "                            _ms += 1",
            "                            _dy += _ci",
            "                    elif _k == 1:",
            "                        _a = _ev[2]"]
    ev = " " * 24  # an event-kind body inside the walk
    probe = [f"{ev}_ln = _a >> {shift}",
             f"{ev}_ix = _ln & {smask}"] if mode != "call" else []
    store_probe = probe + [f"{ev}_wi = (_a >> 2) & {wmask}"] \
        if mode in ("wb", "wl") else []
    out += probe
    _emit_load(mode, lru, ev, out)
    out += ["                    elif _k == 2:",
            f"{ev}_a = _ev[2]",
            f"{ev}_val = _ev[3]"]
    out += store_probe
    _emit_store(mode, lru, False, ev, out)
    out += ["                    else:",
            f"{ev}_a = _ev[2]",
            f"{ev}_bits = _ev[3]",
            f"{ev}_mask = _ev[4]"]
    out += store_probe
    _emit_store(mode, lru, True, ev, out)
    out.append("                    _ei += 1")
    _emit_close(traced, out)
    out += ["        except Exception as _e:",
            "            _ep = ('err', _e)",
            "        cell[0] = _ei",
            "        cell[1] += _nck",
            f"        _s[{S_P}:{S_CLT + 1}] = ({mirrors})",
            "        _cap._e_nj = _en",
            "        yield _ep",
            ""]
    return "\n".join(out)


def engine_source(sig: tuple) -> str:
    """The (cached) retained source for a signature."""
    src = _SIG_SOURCES.get(sig)
    if src is None:
        src = _SIG_SOURCES[sig] = render_engine_source(sig)
        _ENGINE_STATS["renders"] += 1
    return src


def make_engine(sig: tuple, events: list, ne: int, po, evf, cell: list,
                slot: list, pname: str):
    """A primed engine generator for one point.

    The returned generator is already parked at its protocol yield:
    call ``send(None)`` to run chunks until the first episode.
    """
    src = engine_source(sig)
    code = _CODE_CACHE.get(src)
    if code is None:
        code = _CODE_CACHE[src] = compile(src, "<lockstep>", "exec")
    ns: dict = dict(_NS_BINDS)
    exec(code, ns)
    gen = ns["_make_engine"](events, ne, po, evf, cell, slot, pname)
    next(gen)  # run the constant binds, park at the protocol yield
    _ENGINE_STATS["builds"] += 1
    return gen


def engine_sources() -> dict[tuple, str]:
    """Signature -> retained source, for the codegen audit."""
    return dict(_SIG_SOURCES)


def engine_cache_stats() -> dict:
    """Codegen counters (tests/benchmarks)."""
    return {"signatures": len(_SIG_SOURCES), **_ENGINE_STATS}


def clear_engines() -> None:
    """Drop generated engines and reset counters (tests/benchmarks)."""
    _SIG_SOURCES.clear()
    _CODE_CACHE.clear()
    for k in _ENGINE_STATS:
        _ENGINE_STATS[k] = 0
