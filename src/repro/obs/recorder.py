"""TraceRecorder: event tracing + metrics for one simulation run.

The recorder attaches to a built :class:`~repro.sim.system.System` by
*shadowing instance attributes* with wrapper closures - the same
zero-overhead-when-off trick as :mod:`repro.lint.invariants`. The
interpreter, the system loop, and the cache designs all resolve the
instrumented methods through the instance, so with tracing disabled (the
default) the hot paths execute the untouched class methods: no flag tests,
no indirection, not one extra bytecode.

Instrumented call sites (all resolved via ``self.``/instance locals):

* ``core.run_chunk`` - retire + capacitor-energy samples per chunk;
* ``design.load`` / ``design.store`` / ``design.store_masked`` - cache
  hit/miss events and DirtyQueue occupancy transitions, derived by
  *diffing* the design's own ``MemStats`` counters around the call (so
  nested ``store -> store_masked`` delegation never double-books, and the
  differential test can prove metrics == ``RunResult`` aggregates);
* ``design._issue_writeback`` / ``design._retire_pending`` /
  ``design._ensure_slot`` (WL-Cache only) - write-back issue/ACK pairs and
  stall begin/end;
* ``design.set_thresholds`` - threshold reconfigurations;
* ``design.flush_for_checkpoint`` / ``design.on_boot`` - JIT checkpoint
  flushes and (re)boots;
* ``trace.charge_until`` - power-off periods (also keeps the wall-clock
  offset between the core's cycle counter and simulated wall time);
* ``capacitor.consume`` - energy drawn, for the per-outage histogram.

Timestamps are wall-clock ns (``t`` in the system loop); cache-side events
are stamped ``core-cycle + offset`` where the offset absorbs power-off and
checkpoint time. The recorder clamps timestamps monotone non-decreasing
per component (Perfetto needs per-track monotonicity; a forcibly
early-retired write-back would otherwise be stamped at its scheduled ACK).

Enable via ``SimConfig(trace=True)`` or ``REPRO_TRACE=1`` in the
environment (the latter reaches parallel sweep workers too). Events stay
in the recorder (reachable as ``system._trace_recorder``); only the
metrics dict rides home in ``RunResult.metrics``.
"""

from __future__ import annotations

import os

from repro.obs.events import EVENT_SCHEMA, TraceEvent
from repro.obs.metrics import MetricsRegistry

#: Environment switch; any value except "", "0" enables tracing.
ENV_VAR = "REPRO_TRACE"

#: Histogram bucket bounds (inclusive upper edges; last bucket open).
WB_LATENCY_BOUNDS = [64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0]
CKPT_LINES_BOUNDS = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
ENERGY_OUTAGE_BOUNDS = [250.0, 500.0, 1000.0, 2000.0, 4000.0,
                        8000.0, 16000.0, 32000.0]


def trace_enabled() -> bool:
    """True when ``REPRO_TRACE`` requests event tracing."""
    return os.environ.get(ENV_VAR, "0") not in ("", "0")


class TraceRecorder:
    """Collects typed events and metrics for one run.

    Attributes:
        events: The recorded :class:`TraceEvent` list, in emission order
            (timestamps monotone non-decreasing per component).
        metrics: The run's :class:`MetricsRegistry`.
        detail: When False, per-access *hit* events are suppressed (misses,
            write-backs, stalls, and all counters are always recorded) -
            the right setting for long runs.
    """

    def __init__(self, detail: bool = True):
        self.events: list[TraceEvent] = []
        self.metrics = MetricsRegistry()
        self.detail = detail
        self._last_ts: dict[str, int] = {}
        # wall-clock bookkeeping (see module docstring)
        self._offset = 0          # wall ns - core cycles
        self._cache_now = 0       # wall ns of the latest cache-path entry
        self._wall_now = 0        # wall ns of the latest system-side event
        self._consumed_mark = 0.0  # energy consumed since the last flush
        self._attached = False

    # ------------------------------------------------------------------
    def emit(self, etype: str, ts: int, **args) -> TraceEvent:
        """Append one event, clamping ts monotone within its component."""
        component = EVENT_SCHEMA[etype][0]
        last = self._last_ts.get(component)
        ts = int(ts)
        if last is not None and ts < last:
            ts = last
        self._last_ts[component] = ts
        ev = TraceEvent(ts, etype, args)
        self.events.append(ev)
        return ev

    def now(self) -> int:
        """Best current wall-clock estimate for timer-less call sites."""
        return max(self._cache_now, self._wall_now)

    # ------------------------------------------------------------------
    def attach(self, system) -> "TraceRecorder":
        """Instrument ``system`` (idempotent per recorder, one system)."""
        if self._attached:
            raise RuntimeError("TraceRecorder is already attached")
        self._attached = True
        rec = self
        core = system.core
        design = system.design
        cap = system.capacitor
        metrics = self.metrics
        emit = self.emit

        c_chunks = metrics.counter("core.chunks")
        c_consumed = metrics.counter("power.energy_consumed_nj")
        c_off = metrics.counter("power.off_ns")
        c_boots = metrics.counter("sys.boots")

        # --- core: retire + energy sampling at chunk boundaries ---------
        orig_run_chunk = core.run_chunk

        def run_chunk(max_instrs):
            out = orig_run_chunk(max_instrs)
            ts = core.cycle + rec._offset
            emit("retire", ts, instret=core.instret, cycle=core.cycle)
            emit("energy", ts, nj=cap.energy)
            c_chunks.inc()
            return out

        core.run_chunk = run_chunk

        # --- capacitor: energy-consumption accounting -------------------
        orig_consume = cap.consume

        def consume(nj):
            orig_consume(nj)
            c_consumed.inc(nj)

        cap.consume = consume

        # --- cache accesses: diff-based hit/miss/occupancy events -------
        stats = design.stats
        dq = getattr(design, "dq", None)
        c_read_hits = metrics.counter("cache.read_hits")
        c_read_misses = metrics.counter("cache.read_misses")
        c_write_hits = metrics.counter("cache.write_hits")
        c_write_misses = metrics.counter("cache.write_misses")
        c_evictions = metrics.counter("cache.dirty_evictions")
        c_stall_cycles = metrics.counter("cache.stall_cycles")
        c_wbs = metrics.counter("cache.async_writebacks")
        h_occ = (metrics.histogram("dq.occupancy",
                                   [float(i) for i in
                                    range(dq.capacity + 1)])
                 if dq is not None else None)
        # last-seen counter values; a delta around a wrapped call is what
        # was caused by that call (nested wrappers sync first, so the
        # outer delta collapses to zero - nothing is booked twice)
        state = {
            "read_hits": 0, "read_misses": 0,
            "write_hits": 0, "write_misses": 0,
            "dirty_evictions": 0, "store_stall_cycles": 0,
            "async_writebacks": 0, "occ": 0,
        }

        def sync_access(ts, addr):
            s = state
            d = stats.read_hits - s["read_hits"]
            if d:
                s["read_hits"] = stats.read_hits
                c_read_hits.inc(d)
                if rec.detail:
                    emit("read_hit", ts, addr=addr)
            d = stats.read_misses - s["read_misses"]
            if d:
                s["read_misses"] = stats.read_misses
                c_read_misses.inc(d)
                emit("read_miss", ts, addr=addr)
            d = stats.write_hits - s["write_hits"]
            if d:
                s["write_hits"] = stats.write_hits
                c_write_hits.inc(d)
                if rec.detail:
                    emit("write_hit", ts, addr=addr)
            d = stats.write_misses - s["write_misses"]
            if d:
                s["write_misses"] = stats.write_misses
                c_write_misses.inc(d)
                emit("write_miss", ts, addr=addr)
            d = stats.dirty_evictions - s["dirty_evictions"]
            if d:
                s["dirty_evictions"] = stats.dirty_evictions
                c_evictions.inc(d)
            d = stats.store_stall_cycles - s["store_stall_cycles"]
            if d:
                s["store_stall_cycles"] = stats.store_stall_cycles
                c_stall_cycles.inc(d)
            d = stats.async_writebacks - s["async_writebacks"]
            if d:
                s["async_writebacks"] = stats.async_writebacks
                c_wbs.inc(d)
            if dq is not None and dq.occupancy != s["occ"]:
                s["occ"] = dq.occupancy
                emit("dirty", ts, occ=s["occ"])
                h_occ.observe(s["occ"])

        orig_load = design.load

        def load(addr, now):
            rec._cache_now = now + rec._offset
            value, cycles = orig_load(addr, now)
            sync_access(now + cycles + rec._offset, addr)
            return (value, cycles)

        design.load = load

        orig_store = design.store

        def store(addr, value, now):
            rec._cache_now = now + rec._offset
            cycles = orig_store(addr, value, now)
            sync_access(now + cycles + rec._offset, addr)
            return cycles

        design.store = store

        orig_store_masked = design.store_masked

        def store_masked(addr, bits, mask, now):
            rec._cache_now = now + rec._offset
            cycles = orig_store_masked(addr, bits, mask, now)
            sync_access(now + cycles + rec._offset, addr)
            return cycles

        design.store_masked = store_masked

        # --- WL-Cache protocol: write-backs and stalls -------------------
        if dq is not None:
            self._attach_wl(design, state)

        # --- persistence protocol ---------------------------------------
        c_flushes = metrics.counter("sys.ckpt_flushes")
        c_lines = metrics.counter("sys.ckpt_lines")
        c_words = metrics.counter("sys.ckpt_words")
        h_flush = metrics.histogram("sys.ckpt_lines_per_flush",
                                    CKPT_LINES_BOUNDS)
        h_outage = metrics.histogram("power.energy_per_outage_nj",
                                     ENERGY_OUTAGE_BOUNDS)
        orig_flush = design.flush_for_checkpoint

        def flush_for_checkpoint(now):
            ts = now + rec._offset
            rec._cache_now = ts
            report = orig_flush(now)
            sync_access(ts, 0)  # catch occupancy drop etc.
            emit("ckpt_flush", ts, cycles=report.cycles,
                 lines=report.lines_flushed, words=report.words_flushed)
            c_flushes.inc()
            c_lines.inc(report.lines_flushed)
            c_words.inc(report.words_flushed)
            h_flush.observe(report.lines_flushed)
            consumed = c_consumed.value - rec._consumed_mark
            rec._consumed_mark = c_consumed.value
            h_outage.observe(consumed)
            self._drop_inflight()
            return report

        design.flush_for_checkpoint = flush_for_checkpoint

        orig_on_boot = design.on_boot

        def on_boot(first):
            cycles = orig_on_boot(first)
            emit("boot", rec.now(), first=int(first), restore_cycles=cycles)
            c_boots.inc()
            return cycles

        design.on_boot = on_boot

        if hasattr(design, "set_thresholds"):
            orig_set = design.set_thresholds

            def set_thresholds(maxline, waterline=None):
                orig_set(maxline, waterline)
                emit("reconfig", rec.now(), maxline=design.maxline,
                     waterline=design.waterline)
                metrics.counter("sys.reconfigs").inc()

            design.set_thresholds = set_thresholds

        # --- power trace: off periods + wall-clock offset ----------------
        trace = system.trace
        if trace is not None:
            orig_charge = trace.charge_until

            def charge_until(t0_ns, e0_nj, e_target_nj, **kwargs):
                t_on = orig_charge(t0_ns, e0_nj, e_target_nj, **kwargs)
                dur = t_on - t0_ns
                emit("off", t0_ns, dur=dur)
                c_off.inc(dur)
                rec._offset = t_on - core.cycle
                rec._wall_now = t_on
                return t_on

            trace.charge_until = charge_until

        self._dq = dq
        self._design = design
        self._core = core
        self._cap = cap
        return self

    # ------------------------------------------------------------------
    def _attach_wl(self, design, state) -> None:
        """WL-Cache-specific hooks: write-back issue/ACK, stall spans."""
        rec = self
        emit = self.emit
        metrics = self.metrics
        c_issued = metrics.counter("wb.issued")
        c_acked = metrics.counter("wb.acked")
        metrics.counter("wb.flushed_inflight")  # register eagerly
        c_events = metrics.counter("cache.stall_events")
        c_ack_wait = metrics.counter("cache.stall_cycles.ack_wait")
        c_sync = metrics.counter("cache.stall_cycles.sync_clean")
        h_lat = metrics.histogram("wb.latency_ns", WB_LATENCY_BOUNDS)
        # outstanding write-backs: DQEntry.seq -> issue wall time
        self._inflight: dict[int, int] = {}
        inflight = self._inflight

        orig_issue = design._issue_writeback

        def _issue_writeback(t):
            p = orig_issue(t)
            if p is not None:
                ev = emit("wb_issue", t + rec._offset, line=p.lineno,
                          ack=p.ack + rec._offset, seq=p.entry.seq)
                inflight[p.entry.seq] = ev.ts
                c_issued.inc()
            return p

        design._issue_writeback = _issue_writeback

        # eviction/refill ordering retires write-backs *early*; stamp those
        # at the current access time, not the never-reached scheduled ACK
        forced = {"on": False}
        orig_same_line = design._flush_same_line_pending

        def _flush_same_line_pending(lineno):
            forced["on"] = True
            try:
                orig_same_line(lineno)
            finally:
                forced["on"] = False

        design._flush_same_line_pending = _flush_same_line_pending

        orig_retire = design._retire_pending

        def _retire_pending(p):
            orig_retire(p)
            ack_ts = (rec._cache_now if forced["on"]
                      else p.ack + rec._offset)
            ev = emit("wb_ack", ack_ts, line=p.lineno, seq=p.entry.seq)
            c_acked.inc()
            issue_ts = inflight.pop(p.entry.seq, None)
            if issue_ts is not None:
                h_lat.observe(max(0, ev.ts - issue_ts))

        design._retire_pending = _retire_pending

        orig_slot = design._ensure_slot

        def _ensure_slot(t):
            sync_before = design.sync_cleans
            stall = orig_slot(t)
            if stall:
                ts = t + rec._offset
                cause = ("sync_clean" if design.sync_cleans > sync_before
                         else "ack_wait")
                emit("stall_begin", ts)
                emit("stall_end", ts + stall, cycles=stall, cause=cause)
                c_events.inc()
                (c_sync if cause == "sync_clean" else c_ack_wait).inc(stall)
            return stall

        design._ensure_slot = _ensure_slot

    def _drop_inflight(self) -> None:
        """A JIT checkpoint persisted all in-flight write-backs; their
        ACKs will never arrive (covered by the ckpt_flush event)."""
        inflight = getattr(self, "_inflight", None)
        if inflight:
            self.metrics.counter("wb.flushed_inflight").inc(len(inflight))
            inflight.clear()

    # ------------------------------------------------------------------
    def finish(self, system, result) -> None:
        """Final samples + counter backfill; publish ``RunResult.metrics``."""
        core = self._core
        ts = core.cycle + self._offset
        self.emit("retire", ts, instret=core.instret, cycle=core.cycle)
        self.emit("energy", ts, nj=self._cap.energy)
        dq = self._dq
        if dq is not None:
            m = self.metrics
            m.set_counter("dq.inserts", dq.inserts)
            m.set_counter("dq.duplicate_inserts", dq.duplicate_inserts)
            m.set_counter("dq.stale_drops", dq.stale_drops)
        result.metrics = self.metrics.as_dict()


def attach_trace(system, recorder: TraceRecorder | None = None,
                 detail: bool = True) -> TraceRecorder:
    """Attach a (new) recorder to a built system; returns it.

    The recorder is reachable afterwards as ``system._trace_recorder``;
    :meth:`System.run` publishes its metrics into ``RunResult.metrics``.
    """
    rec = recorder if recorder is not None else TraceRecorder(detail=detail)
    rec.attach(system)
    system._trace_recorder = rec
    return rec
