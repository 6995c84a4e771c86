"""Engine codegen: one generated generator runs a whole column's chunks.

The engine for a column *signature* - the tuple of per-instance
``(mode, lru, traced, shift, smask, wmask)`` elements from
:func:`repro.lockstep.state.build_slot` - is a Python generator
rendered and ``exec``-compiled once per signature (source-keyed cache,
like the record-mode blocks). Unlike a per-segment walker, it owns the
entire chunk machinery: per-instance window budgets (the serial
``System.run`` energy formula), the shared event walk, the
``ReplayCore.run_chunk`` epilogue arithmetic, and the per-chunk
capacitor accounting (drain, trace harvest, outage detection), all
against per-instance *locals* mirrored from the slot lists - so the
steady state runs with no attribute traffic and no Python-level calls
besides the designs' own slow paths.

Per instance and per event kind it emits exactly what ``run_chunk``
would execute: ``call`` instances call the design's bound method, while
``base``/``wb``/``wl`` instances inline the hit path - MRU line first,
then the set scan - and on a miss (or a failed WL-Cache guard) call the
design's own ``load``/``store_masked``, which replays the access from
scratch. A hit adds to the design's own ``MemStats`` fields and LRU
stamp, the same float additions in the same order as the class method,
so the stats are exact at every instant and no call needs a flush.
``wl`` stores inline both WL-Cache fast cases (same-dirty-line hit and
the below-waterline clean->dirty insert, DirtyQueue bookkeeping
included). The signature carries each instance's cache geometry so
set/tag/word indices are baked as literals and computed once per
*geometry class* per event, shared by every instance with that
geometry. I-cache residency is not kept as per-instance sets while in
column: a line is resident iff its previous occurrence
(:func:`repro.lockstep.state.event_prev`) is at or past the instance's
flush epoch, so one shared comparison against the column-wide maximum
epoch skips most fetch events outright.

Protocol: ``gen = make_engine(sig, events, ne, po, evf, cell, slots,
pname)`` binds the read-only slot entries to locals and parks;
``gen.send(None)`` runs rounds (walk to the smallest live target -
close/account - reopen) until something needs the scheduler and yields
a list of episodes:

* ``("halt", j)`` - instance ``j`` retired its last instruction and its
  chunk accounting is done; the scheduler runs halt finalization.
* ``("outage", j)`` - the chunk accounting drained ``j``'s capacitor to
  its backup level; the scheduler runs the outage lifecycle and
  republishes the slot mirrors it changed.
* ``("err", j, exc)`` - ``j``'s chunk close raised (budget exhaustion,
  capacitor drained): terminal for ``j``, exactly as serial.
* ``("fault", j, exc)`` - a memory call raised mid-walk at event
  ``cell[0]`` with instance ``j`` faulting **before any of its state
  changed** (bail-before-mutate), instances ``< j`` having fully
  applied the event and instances ``> j`` not having seen it. The
  scheduler diverts ``j``, applies the event to the trailing instances
  out of line, and advances ``cell[0]`` past it.
* ``("bail",)`` - the walk reached the forced-bail limit ``cell[1]``;
  the scheduler must evict the flagged instances and raise the limit.
* an empty list - a sync tick (``cell[3]`` set): a boundary passed
  while evicted solos may want to rejoin.

Before every yield the engine writes all mutable mirrors back to the
slots (and the capacitor energy back to the capacitor object); after
every resume it re-reads everything, so the scheduler is free to flip
alive flags, rewind cores, or rejoin instances between rounds - the
compiled engine is never rebuilt for a composition change. Window
opens happen in the resume refresh (any instance whose target sits at
the cursor: the first resume, post-outage reopens, rejoins) and inline
after each close; dead instances park their target at the ``_INF``
sentinel so the per-round close scan is a single compare. ``cell`` is
the shared scratch: ``[ei, bail_limit, cursor, sync_mode, chunks,
rounds]`` (``ei``/``cursor``/counters are published at each yield).

Every memory call's timestamp is that instance's now formula
``_cum{j}[_i] - _cm{j} + _dy{j} + _of{j}`` - the audited contract
(:mod:`repro.lint.codegen_audit`, rule A008), matching ``ReplayCore``'s
``cum[i] - c_mem + dyn + offset`` bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.dirty_queue import DQEntry
from repro.cpu.core import _ILINE_SHIFT
from repro.errors import EnergyError, ExecutionError
from repro.lockstep.state import (S_ARR, S_CAP, S_CIMISS, S_CLT, S_CMEM,
                                  S_CORE, S_CSEEN, S_CT, S_CUM, S_CYC,
                                  S_DYN, S_FL, S_IR, S_KON, S_LC, S_LF,
                                  S_LIM, S_LIR, S_LNV, S_LOAD, S_MISSES,
                                  S_NVM, S_OFFSET, S_P, S_PEND, S_PF,
                                  S_RE, S_RH, S_SM, S_STATS, S_STORE,
                                  S_SY, S_SYS, S_T, S_TG, S_TRACE, S_TSF,
                                  S_W, S_WE, S_WH)

_U32 = 0xFFFFFFFF

#: the per-instance now formula the audit re-derives (rule A008)
_NOW_FORMULA = "_cum{j}[_i] - _cm{j} + _dy{j} + _of{j}"

#: signature -> rendered source (kept for the audit; rebaking a
#: signature must reproduce its retained source exactly)
_SIG_SOURCES: dict[tuple, str] = {}

#: source -> compiled code object
_CODE_CACHE: dict[str, object] = {}

_ENGINE_STATS = {"renders": 0, "builds": 0}

#: exec globals for the generated engines: the serial loop's exception
#: types (raised with the serial paths' exact messages), the I-line
#: geometry for post-flush fetch synthesis, the dead-instance target
#: sentinel, and the DirtyQueue entry class the inlined WL-Cache
#: insert constructs (the same class ``DirtyQueue.insert`` builds)
_NS_BINDS = {"EnergyError": EnergyError, "ExecutionError": ExecutionError,
             "_ILS": _ILINE_SHIFT, "_INF": 1 << 62, "_DQE": DQEntry,
             "_bis": bisect_right}

#: constant slot entries every mode unpacks to locals
_COMMON_BINDS = (("_ld", S_LOAD), ("_st", S_STORE), ("_sm", S_SM),
                 ("_cum", S_CUM), ("_cm", S_CMEM), ("_ci", S_CIMISS),
                 ("_cap", S_CAP), ("_nvm", S_NVM), ("_sys", S_SYS),
                 ("_core", S_CORE))
_PROBE_BINDS = (("_arr", S_ARR), ("_fe", S_RE), ("_fh", S_RH),
                ("_few", S_WE), ("_fhw", S_WH))
_WL_BINDS = (("_pd", S_PEND),)

#: (local prefix, slot index) for every mutable mirror: the contiguous
#: S_W..S_CLT block, re-read by one slice unpack after each resume and
#: written back by one slice assignment before each yield
_MIRRORS = (("_w", S_W), ("_tg", S_TG), ("_p", S_P), ("_ir", S_IR),
            ("_cy", S_CYC), ("_cs", S_CSEEN), ("_t", S_T), ("_fl", S_FL),
            ("_sy", S_SY), ("_pf", S_PF), ("_tf", S_TSF),
            ("_lir", S_LIR), ("_lf", S_LF), ("_lim", S_LIM),
            ("_lc", S_LC), ("_lnv", S_LNV), ("_ct", S_CT),
            ("_cl", S_CLT))

assert [idx for _nm, idx in _MIRRORS] == list(range(S_W, S_CLT + 1)), \
    "mirror block must stay contiguous for the slice sync"


def _stamp(j: int, pad: str) -> list[str]:
    """The LRU stamp, exactly as ``SetAssocArray.find`` applies it."""
    return [f"{pad}_arr{j}._stamp = _ts = _arr{j}._stamp + 1",
            f"{pad}_li.use_stamp = _ts"]


def _geo_classes(sig: tuple) -> tuple[list[tuple], list[int | None]]:
    """Distinct probe geometries and each instance's class id."""
    classes: dict[tuple, int] = {}
    geo_of: list[int | None] = []
    for el in sig:
        if el[0] == "call":
            geo_of.append(None)
        else:
            geo_of.append(classes.setdefault(el[3:6], len(classes)))
    return list(classes), geo_of


def _emit_fetch(j: int, pad: str, out: list[str]) -> None:
    """Per-instance line event: resident iff the previous occurrence is
    inside this instance's flush epoch, or the line is its post-flush
    synthesized fetch (set semantics via the shared prev array)."""
    out += [f"{pad}if _w{j} and _pv < _fl{j} and _line != _sy{j}:",
            f"{pad}    _ms{j} += 1",
            f"{pad}    _dy{j} += _ci{j}"]


def _load_hit(j: int, lru: int, pad: str) -> list[str]:
    out = _stamp(j, pad) if lru else []
    out += [f"{pad}_sta{j}.loads += 1",
            f"{pad}_sta{j}.read_hits += 1",
            f"{pad}_sta{j}.cache_read_energy_nj += _fe{j}",
            f"{pad}_dy{j} += _fh{j}"]
    return out


def _emit_load(j: int, mode: str, lru: int, c: int | None, pad: str,
               out: list[str]) -> None:
    now = _NOW_FORMULA.format(j=j)
    out.append(f"{pad}if _w{j}:")
    p = pad + "    "
    if mode == "call":
        out += [f"{p}_fj = {j}",
                f"{p}_v, _l = _ld{j}(_a, {now})",
                f"{p}_dy{j} += _l"]
        return
    # the full probe: MRU hit, then the set scan (promoting the hit
    # line to MRU); a miss calls the design's own load
    out += [f"{p}_li = _mru{j}[_ix{c}]",
            f"{p}if _li.tag == _ln{c}:"]
    out += _load_hit(j, lru, p + "    ")
    out += [f"{p}else:",
            f"{p}    for _li in _sets{j}[_ix{c}]:",
            f"{p}        if _li.tag == _ln{c}:",
            f"{p}            _mru{j}[_ix{c}] = _li"]
    out += _load_hit(j, lru, p + "            ")
    out += [f"{p}            break",
            f"{p}    else:",
            f"{p}        _fj = {j}",
            f"{p}        _v, _l = _ld{j}(_a, {now})",
            f"{p}        _dy{j} += _l"]


def _store_hit(j: int, mode: str, lru: int, c: int, masked: bool,
               dirty: bool, pad: str) -> list[str]:
    """One inline store-hit body on engine locals. ``dirty`` selects
    WL-Cache's same-dirty-line case (no transition); ``wb`` always marks
    dirty, as the plain write-back ``store_masked`` does."""
    out = _stamp(j, pad) if lru else []
    out += [f"{pad}_sta{j}.stores += 1",
            f"{pad}_sta{j}.write_hits += 1",
            f"{pad}_sta{j}.cache_write_energy_nj += _few{j}",
            f"{pad}_d = _li.data"]
    if masked:
        out.append(f"{pad}_d[_wi{c}] = (_d[_wi{c}] & ~_mask)"
                   f" | (_bits & _mask)")
    else:
        out.append(f"{pad}_d[_wi{c}] = _val & {_U32}")
    if mode == "wb" or (mode == "wl" and not dirty):
        out.append(f"{pad}_li.dirty = True")
    if mode == "wl" and not dirty:
        # the inlined DirtyQueue insert, statement for statement
        # ``DirtyQueue.insert`` (provably no stall below the waterline)
        out += [f"{pad}_dq{j}._seq += 1",
                f"{pad}_q = _DQE(_ln{c}, _dq{j}._seq)",
                f"{pad}for _qe in _dqe{j}:",
                f"{pad}    if _qe.lineno == _ln{c}:",
                f"{pad}        _dq{j}.duplicate_inserts += 1",
                f"{pad}        break",
                f"{pad}_dqe{j}.append(_q)",
                f"{pad}_dq{j}.inserts += 1",
                f"{pad}_sta{j}.cache_write_energy_nj += _dqj{j}",
                f"{pad}_occ = len(_dqe{j})",
                f"{pad}if _occ > _wlc{j}.dirty_highwater:",
                f"{pad}    _wlc{j}.dirty_highwater = _occ"]
    out.append(f"{pad}_dy{j} += _fhw{j}")
    return out


def _emit_store(j: int, mode: str, lru: int, c: int | None, masked: bool,
                pad: str, out: list[str]) -> None:
    now = _NOW_FORMULA.format(j=j)
    out.append(f"{pad}if _w{j}:")
    p = pad + "    "
    if mode in ("call", "base"):
        # every store calls the design's own method
        slow = (f"_sm{j}(_a, _bits, _mask, {now})" if masked
                else f"_st{j}(_a, _val, {now})")
        out += [f"{p}_fj = {j}",
                f"{p}_dy{j} += {slow}"]
        return
    # wb/wl: full probe inline; a miss (or a WL guard failure) calls the
    # design's own store_masked, which replays the access from scratch
    # (full-word stores pass the FULL mask, as the class ``store``
    # delegator does)
    slow = (f"_sm{j}(_a, _bits, _mask, _now{j})" if masked
            else f"_sm{j}(_a, _val, {_U32}, _now{j})")
    out.append(f"{p}_now{j} = {now}")
    if mode == "wl":
        out += [f"{p}if _pd{j} and _pd{j}[0].ack <= _now{j}:",
                f"{p}    _fj = {j}",
                f"{p}    _dy{j} += {slow}",
                f"{p}else:"]
        p = p + "    "
    out += [f"{p}_li = _mru{j}[_ix{c}]",
            f"{p}if _li.tag != _ln{c}:",
            f"{p}    for _li in _sets{j}[_ix{c}]:",
            f"{p}        if _li.tag == _ln{c}:",
            f"{p}            _mru{j}[_ix{c}] = _li",
            f"{p}            break",
            f"{p}    else:",
            f"{p}        _li = None"]
    if mode == "wb":
        out += [f"{p}if _li is None:",
                f"{p}    _fj = {j}",
                f"{p}    _dy{j} += {slow}",
                f"{p}else:"]
        out += _store_hit(j, mode, lru, c, masked, False, p + "    ")
        return
    out += [f"{p}if _li is None:",
            f"{p}    _fj = {j}",
            f"{p}    _dy{j} += {slow}",
            f"{p}elif _li.dirty:"]
    out += _store_hit(j, mode, lru, c, masked, True, p + "    ")
    out += [f"{p}elif len(_dqe{j}) >= _wlc{j}.waterline:",
            f"{p}    _fj = {j}",
            f"{p}    _dy{j} += {slow}",
            f"{p}else:"]
    out += _store_hit(j, mode, lru, c, masked, False, p + "    ")


def _emit_open(j: int, traced: int, pad: str, out: list[str]) -> None:
    """Open the next chunk window: the serial budget formula, the
    ``run_chunk`` prologue (offset recompute, pending-fetch synthesis),
    and the new target. Mirrors ``_p{j}``/``_cy{j}`` stay at the chunk
    entry values until the close - they double as the open-window
    snapshot an eviction rewinds to."""
    if traced:
        # min(cki, max(2, int(x))) with the calls unrolled
        out += [f"{pad}_bi = int((_en{j} - _sys{j}._e_backup_level)"
                f" / _wnj{j})",
                f"{pad}if _bi < 2:",
                f"{pad}    _bi = 2",
                f"{pad}if _bi > _cki{j}:",
                f"{pad}    _bi = _cki{j}"]
    else:
        out.append(f"{pad}_bi = 65536")
    out += [f"{pad}_tgt = _p{j} + _bi",
            f"{pad}if _tgt > _ntot{j}:",
            f"{pad}    _tgt = _ntot{j}",
            f"{pad}if _cy{j} != _cs{j}:",
            f"{pad}    _of{j} = _cy{j} - ((_cum{j}[_p{j} - 1] "
            f"if _p{j} else 0) + _dy{j})",
            f"{pad}if _pf{j}:",
            # pending refetch: set only right after a flush, where the
            # core was synced (its ._p is current) and the residency
            # epoch is empty - the synthesized fetch always misses
            f"{pad}    _pf{j} = 0",
            f"{pad}    _evx = events[_ei] if _ei < ne else None",
            f"{pad}    if _evx is None or _evx[0] != _p{j} "
            f"or _evx[1] != 0:",
            f"{pad}        _sy{j} = _core{j}.pc >> _ILS",
            f"{pad}        _tf{j} += 1",
            f"{pad}        _ms{j} += 1",
            f"{pad}        _dy{j} += _ci{j}",
            f"{pad}_tg{j} = _tgt",
            f"{pad}_tgs[{j}] = _tgt"]


def _emit_close(j: int, traced: int, out: list[str]) -> None:
    """The ``run_chunk`` epilogue plus the ``System.run`` post-chunk
    accounting, all on locals; ends in a halt/outage episode or an
    inline reopen. Wrapped in its own try so a serial-parity raise
    (budget exhaustion, capacitor drain) is terminal for this instance
    only. Dead instances hold ``_tg == _INF``, so the guard is a single
    compare."""
    pad = "            "
    out += [f"{pad}if _tg{j} == _b:",
            f"{pad}    try:",
            f"{pad}        _nck += 1",
            f"{pad}        _tgt = _tg{j}",
            # _tgt >= 1 always: targets are entry + max(2, ...) clamped
            # to n_total, and empty streams never enter a column
            f"{pad}        _nc = _cum{j}[_tgt - 1] + _dy{j} + _of{j}",
            f"{pad}        _dc = _nc - _cy{j}",
            f"{pad}        _cy{j} = _nc",
            f"{pad}        _cs{j} = _nc",
            # instret == position at every boundary (both advance by
            # the retired count), so the close assigns rather than adds
            f"{pad}        _ir{j} = _tgt",
            f"{pad}        if _tgt > _mxi{j}:",
            f"{pad}            raise ExecutionError(",
            f"{pad}                pname + ': exceeded instruction "
            f"budget')",
            f"{pad}        _fnow = evf[_ei] + _tf{j}",
            f"{pad}        _dcp = ((_tgt - _lir{j}) * _knj{j}",
            f"{pad}                + (_fnow - _lf{j}) * _fnj{j}",
            f"{pad}                + (_ms{j} - _lim{j}) * _mnj{j}",
            f"{pad}                + _clw{j} * _dc)",
            f"{pad}        _p{j} = _tgt",
            f"{pad}        _dlc = _dlw{j} * _dc",
            f"{pad}        _cl{j} += _dlc",
            f"{pad}        _cnow = (_sta{j}.cache_read_energy_nj"
            f" + _sta{j}.cache_write_energy_nj)",
            f"{pad}        _nnow = (_nvm{j}.energy_read_nj"
            f" + _nvm{j}.energy_write_nj)",
            f"{pad}        _dca = _cnow - _lc{j}",
            f"{pad}        _dnv = _nnow - _lnv{j}",
            f"{pad}        _ct{j} += _dcp",
            f"{pad}        _lir{j} = _tgt",
            f"{pad}        _lf{j} = _fnow",
            f"{pad}        _lim{j} = _ms{j}",
            f"{pad}        _lc{j} = _cnow",
            f"{pad}        _lnv{j} = _nnow"]
    if traced:
        out += [f"{pad}        _nd = _dcp + _dlc + _dca + _dnv",
                f"{pad}        if _nd < 0.0:",
                f"{pad}            raise EnergyError(",
                f"{pad}                f'cannot consume negative "
                f"energy {{_nd}}')",
                f"{pad}        _en{j} -= _nd",
                f"{pad}        if _en{j} < 0.0:",
                f"{pad}            raise EnergyError('capacitor fully "
                f"drained: reserve was undersized')",
                # PowerTrace.energy_nj inlined statement-for-statement:
                # lazy extension stays the bound _extend (seeded-RNG
                # traces append segments in place), _seek's inner
                # _ensure is a guaranteed no-op after the t1 ensure,
                # the cursor fast paths and the bisect fallback update
                # _idx exactly as the method does, and the summation
                # accumulates per-segment products in the same order -
                # so the float result is bit-identical. The reversed /
                # empty-interval guards drop: _te > _t{j} always (a
                # chunk retires >= 2 instructions of >= 1 cycle each).
                f"{pad}        _te = _t{j} + _dc",
                f"{pad}        _tt = _t{j}",
                f"{pad}        _tsg = _tst{j}",
                f"{pad}        if _te >= _tsg[-1]:",
                f"{pad}            _tex{j}(_te)",
                f"{pad}        _n = len(_tsg)",
                f"{pad}        _si = _tr{j}._idx",
                f"{pad}        if (_si < _n and _tsg[_si] <= _tt and"
                f" (_si + 1 == _n or _tt < _tsg[_si + 1])):",
                f"{pad}            pass",
                f"{pad}        elif (_si + 1 < _n and _tsg[_si + 1] <= _tt"
                f" and (_si + 2 == _n or _tt < _tsg[_si + 2])):",
                f"{pad}            _si += 1",
                f"{pad}            _tr{j}._idx = _si",
                f"{pad}        else:",
                f"{pad}            _si = _bis(_tsg, _tt) - 1",
                f"{pad}            _tr{j}._idx = _si",
                f"{pad}        _tpv = _tpw{j}",
                f"{pad}        _hv = 0.0",
                f"{pad}        while True:",
                f"{pad}            _se = _tsg[_si + 1] if _si + 1 < _n"
                f" else _te",
                f"{pad}            if _se > _te:",
                f"{pad}                _se = _te",
                f"{pad}            _hv += _tpv[_si] * (_se - _tt)",
                f"{pad}            if _se >= _te:",
                f"{pad}                break",
                f"{pad}            _tt = _se",
                f"{pad}            _si += 1",
                f"{pad}        if _hv < 0.0:",
                f"{pad}            raise EnergyError(",
                f"{pad}                f'cannot harvest negative "
                f"energy {{_hv}}')",
                f"{pad}        _en{j} += _hv",
                f"{pad}        if _en{j} > _emx{j}:",
                f"{pad}            _en{j} = _emx{j}",
                f"{pad}        _t{j} = _te"]
    else:
        out.append(f"{pad}        _t{j} += _dc")
    out += [f"{pad}        if _tgt == _ntot{j}:",
            f"{pad}            _w{j} = 0",
            f"{pad}            _nal -= 1",
            f"{pad}            _tg{j} = _INF",
            f"{pad}            _tgs[{j}] = _INF",
            f"{pad}            _ep.append(('halt', {j}))"]
    if traced:
        out += [f"{pad}        elif _en{j} <= _sys{j}._e_backup_level:",
                # leave the target at the cursor: the scheduler runs
                # the outage lifecycle, then the refresh reopens
                f"{pad}            _ep.append(('outage', {j}))"]
    out.append(f"{pad}        else:")
    open_body: list[str] = []
    _emit_open(j, traced, pad + "            ", open_body)
    out += open_body
    out += [f"{pad}    except Exception as _e:",
            f"{pad}        _w{j} = 0",
            f"{pad}        _nal -= 1",
            f"{pad}        _tg{j} = _INF",
            f"{pad}        _tgs[{j}] = _INF",
            f"{pad}        _ep.append(('err', {j}, _e))"]


def render_engine_source(sig: tuple) -> str:
    """The engine source for a column signature (pure function of the
    signature - the audit rebakes it and compares)."""
    n = len(sig)
    geos, geo_of = _geo_classes(sig)
    store_cs = sorted({geo_of[j] for j, el in enumerate(sig)
                       if el[0] in ("wb", "wl")})
    load_cs = sorted({c for c in geo_of if c is not None})
    out = ["def _make_engine(events, ne, po, evf, cell, slots, pname):"]
    for j, el in enumerate(sig):
        mode, traced = el[0], el[2]
        out.append(f"    _s{j} = slots[{j}]")
        binds = _COMMON_BINDS
        if mode != "call":
            binds = binds + _PROBE_BINDS
        if mode == "wl":
            binds = binds + _WL_BINDS
        for name, idx in binds:
            out.append(f"    {name}{j} = _s{j}[{idx}]")
        if mode != "call":
            out += [f"    _mru{j} = _arr{j}.mru",
                    f"    _sets{j} = _arr{j}.sets"]
        if mode == "wl":
            out += [f"    _wlc{j} = _sys{j}.design",
                    f"    _dq{j} = _wlc{j}.dq",
                    f"    _dqe{j} = _dq{j}.entries",
                    f"    _dqj{j} = _wlc{j}.dq_access_energy_nj"]
        out.append(f"    (_knj{j}, _fnj{j}, _mnj{j}, _clw{j}, _dlw{j},"
                   f" _wnj{j}, _cki{j}, _mxi{j}, _emx{j}, _ntot{j})"
                   f" = _s{j}[{S_KON}]")
        if traced:
            out += [f"    _tr{j} = _s{j}[{S_TRACE}]",
                    f"    _tst{j} = _tr{j}.starts",
                    f"    _tpw{j} = _tr{j}.powers",
                    f"    _tex{j} = _tr{j}._extend"]
    unpack = ", ".join(f"{name}{{j}}" for name, _idx in _MIRRORS)
    out += ["    _ep = []",
            f"    _tgs = [0] * {n}",
            "    yield None",
            "    while True:",
            "        _ei = cell[0]",
            "        _blim = cell[1]",
            "        _cur = cell[2]",
            "        _syn = cell[3]",
            "        _nal = 0",
            "        _flm = -1"]
    # resume refresh: one slice unpack per instance, plus the window
    # opens for anyone parked at the cursor (first resume, post-outage
    # reopens, rejoins); steady-state closes reopen inline
    for j, el in enumerate(sig):
        traced = el[2]
        out += ["        (" + unpack.format(j=j) + ") = "
                f"_s{j}[{S_W}:{S_CLT + 1}]",
                f"        _ac{j} = _w{j}",
                f"        if _w{j}:",
                f"            _nal += 1",
                f"            _dy{j} = _s{j}[{S_DYN}]",
                f"            _of{j} = _s{j}[{S_OFFSET}]",
                f"            _ms{j} = _s{j}[{S_MISSES}]",
                f"            _en{j} = _cap{j}._e_nj",
                f"            if _fl{j} > _flm:",
                f"                _flm = _fl{j}",
                f"            _sta{j} = _s{j}[{S_STATS}]",
                f"            if _tg{j} == _cur:"]
        _emit_open(j, traced, "                ", out)
        out += [f"        else:",
                f"            _tg{j} = _INF",
                f"            _tgs[{j}] = _INF"]
    out += ["        if not _nal:",
            "            return",
            "        _we = ne if _blim > ne else _blim",
            "        _nck = 0",
            "        _nrd = 0",
            "        _fj = -1",
            "        while True:",
            "            _nrd += 1",
            "            _b = min(_tgs)",
            "            try:",
            "                while _ei < _we:",
            "                    _ev = events[_ei]",
            "                    _i = _ev[0]",
            "                    if _i >= _b:",
            "                        break",
            "                    _k = _ev[1]",
            "                    if _k == 0:",
            "                        _pv = po[_ei]",
            "                        if _pv < _flm:",
            "                            _line = _ev[2]"]
    for j in range(n):
        _emit_fetch(j, "                            ", out)
    out += ["                    elif _k == 1:",
            "                        _a = _ev[2]"]
    for c in load_cs:
        shift, smask, _wmask = geos[c]
        out += [f"                        _ln{c} = _a >> {shift}",
                f"                        _ix{c} = _ln{c} & {smask}"]
    for j, el in enumerate(sig):
        _emit_load(j, el[0], el[1], geo_of[j],
                   "                        ", out)
    out += ["                    elif _k == 2:",
            "                        _a = _ev[2]",
            "                        _val = _ev[3]"]
    for c in store_cs:
        shift, smask, wmask = geos[c]
        out += [f"                        _ln{c} = _a >> {shift}",
                f"                        _ix{c} = _ln{c} & {smask}",
                f"                        _wi{c} = (_a >> 2) & {wmask}"]
    for j, el in enumerate(sig):
        _emit_store(j, el[0], el[1], geo_of[j], False,
                    "                        ", out)
    out += ["                    else:",
            "                        _a = _ev[2]",
            "                        _bits = _ev[3]",
            "                        _mask = _ev[4]"]
    for c in store_cs:
        shift, smask, wmask = geos[c]
        out += [f"                        _ln{c} = _a >> {shift}",
                f"                        _ix{c} = _ln{c} & {smask}",
                f"                        _wi{c} = (_a >> 2) & {wmask}"]
    for j, el in enumerate(sig):
        _emit_store(j, el[0], el[1], geo_of[j], True,
                    "                        ", out)
    out += ["                    _ei += 1",
            "            except Exception as _e:",
            "                _ep.append(('fault', _fj, _e))",
            "                break",
            "            if _ei >= _blim:",
            "                _ep.append(('bail',))",
            "                break"]
    for j, el in enumerate(sig):
        _emit_close(j, el[2], out)
    out += ["            _cur = _b",
            "            if _ep or _syn:",
            "                break",
            "            if not _nal:",
            "                break",
            "        cell[0] = _ei",
            "        cell[2] = _cur",
            "        cell[4] += _nck",
            "        cell[5] += _nrd"]
    for j in range(n):
        out += [f"        if _ac{j}:",
                f"            _s{j}[{S_W}:{S_CLT + 1}] = ("
                + unpack.format(j=j) + ")",
                f"            _s{j}[{S_DYN}] = _dy{j}",
                f"            _s{j}[{S_OFFSET}] = _of{j}",
                f"            _s{j}[{S_MISSES}] = _ms{j}",
                f"            _cap{j}._e_nj = _en{j}"]
    out += ["        yield _ep",
            "        _ep = []",
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
                slots: list, pname: str):
    """A primed engine generator for this column composition.

    The returned generator is already parked at its protocol yield:
    call ``send(None)`` to run rounds until the first episode list.
    """
    src = engine_source(sig)
    code = _CODE_CACHE.get(src)
    if code is None:
        code = _CODE_CACHE[src] = compile(src, "<lockstep>", "exec")
    ns: dict = dict(_NS_BINDS)
    exec(code, ns)
    gen = ns["_make_engine"](events, ne, po, evf, cell, slots, pname)
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
