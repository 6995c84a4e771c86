"""Full-system simulator: core + cache design + NVM + capacitor + trace.

The run loop executes the guest in chunks, drains the capacitor by the
measured per-chunk energy, harvests from the power trace, and when stored
energy falls to the reserve level (Vbackup) performs the design's JIT
checkpoint, sleeps through the power-off period, reboots, restores, and
continues - exactly the lifecycle of Figure 3.

Key invariants enforced at runtime (not just in tests):

* a JIT checkpoint never drives the capacitor below Vmin (the reserve sized
  from ``maxline``/cache size/etc. must always suffice);
* the system makes forward progress (a long streak of zero-instruction
  power-on periods aborts the run instead of spinning).
"""

from __future__ import annotations

from repro.core.adaptive import AdaptiveController
from repro.core.dynamic import DynamicAdaptation
from repro.core.wl_cache import WLCache
from repro.cpu.core import InOrderCore
from repro.cpu.costs import CycleCosts
from repro.energy.capacitor import Capacitor, energy_nj
from repro.energy.traces import PowerTrace
from repro.errors import ConfigError, EnergyError, ExecutionError
from repro.isa.program import Program
from repro.runtime.nvff import NVFFStore
from repro.runtime.watchdog import WatchdogTimer
from repro.sim.config import SimConfig
from repro.sim.results import EnergyBreakdown, PeriodStats, RunResult

_NO_PROGRESS_LIMIT = 300  # consecutive empty on-periods before aborting


class System:
    """One program x design x trace simulation."""

    def __init__(self, program: Program, design, config: SimConfig,
                 trace: PowerTrace | None = None,
                 costs: CycleCosts | None = None):
        self.program = program
        self.design = design
        self.config = config
        self.trace = trace
        self.core = InOrderCore(program, design, costs or config.costs)
        self.capacitor = Capacitor(config.capacitance_f, config.v_max,
                                   config.v_min)
        self.nvff = NVFFStore()
        self.watchdog = WatchdogTimer()
        self.controller: AdaptiveController | None = None
        is_wl = isinstance(design, WLCache)
        if is_wl and config.adaptive:
            self.controller = AdaptiveController()
        if is_wl and config.dynamic:
            design.dynamic_policy = DynamicAdaptation(self)
        # QuickRecall-style software checkpointing stores the register
        # file in main NVM: pricier flashes and restores than NVFFs (S2.1)
        if config.register_backend == "nvm":
            words = 34  # 32 registers + pc + thresholds
            self._reg_ckpt_nj = words * config.nvm.write_energy_nj
            self._reg_restore_nj = words * config.nvm.read_energy_nj
            self._reg_restore_cycles = config.nvm.line_write(words) // 2
        else:
            self._reg_ckpt_nj = config.energy.reg_ckpt_nj
            self._reg_restore_nj = config.energy.reg_restore_nj
            self._reg_restore_cycles = 0
        self.reserve_nj = 0.0
        self.v_backup = 0.0
        self._e_floor = energy_nj(config.capacitance_f, config.v_min)
        self._e_max = energy_nj(config.capacitance_f, config.v_max)
        # minimum compute window a boot must have beyond the reserve
        self._min_window_nj = (config.margin_nj()
                               + 16 * config.energy.worst_instr_nj)
        self._e_backup_level = 0.0
        if is_wl and trace is not None:
            # the boot-time runtime sizes maxline to the energy buffer: a
            # small capacitor cannot afford the default threshold (§4)
            maxline = design.maxline
            while maxline > 1 and not self._fits(maxline):
                maxline -= 1
            if maxline != design.maxline:
                design.set_thresholds(maxline)
        self.update_reserve()

    def _fits(self, maxline: int) -> bool:
        """Would a WL-Cache reserve for ``maxline`` leave a usable window?"""
        reserve = self.compute_reserve_nj(maxline)
        return (self._e_floor + reserve + self._min_window_nj) <= self._e_max

    # ------------------------------------------------------------------
    # reserve / Vbackup management (§3.2, §5.5)
    # ------------------------------------------------------------------
    def compute_reserve_nj(self, maxline: int | None = None) -> float:
        """Energy to set aside for a JIT checkpoint.

        ``maxline`` prices a hypothetical WL-Cache threshold (used by the
        dynamic-adaptation policy before committing to a raise).
        """
        design = self.design
        lines = design.reserve_lines() if maxline is None else maxline
        return (lines * design.checkpoint_line_energy_nj()
                + design.reserve_extra_energy_nj()
                + self._reg_ckpt_nj
                + self.config.margin_nj())

    def update_reserve(self) -> None:
        cfg = self.config
        self.reserve_nj = self.compute_reserve_nj()
        self._e_backup_level = self._e_floor + self.reserve_nj
        self.v_backup = self.capacitor.voltage_at(self._e_backup_level)
        self.v_on = min(cfg.v_max, self.v_backup + cfg.von_headroom_v)
        self._e_on = energy_nj(cfg.capacitance_f, self.v_on)
        if self.trace is not None and (
                self._e_backup_level + self._min_window_nj >= self._e_max):
            raise ConfigError(
                f"{self.design.name}: checkpoint reserve {self.reserve_nj:.0f} nJ "
                f"does not fit the {cfg.capacitance_f * 1e6:g} uF "
                f"capacitor (usable {self._e_max - self._e_floor:.0f} nJ)")

    # ------------------------------------------------------------------
    # run-loop lifecycle blocks, shared with the lockstep engines
    # (each generated engine in repro.lockstep.codegen calls them on
    # its point's System between chunks, so every cold block below must
    # be the single source of truth for its arithmetic)
    # ------------------------------------------------------------------
    def _begin(self, res: RunResult) -> int:
        """Initial charge-to-Von, first boot, watchdog start; returns
        the wall-clock time the first chunk starts at."""
        cfg = self.config
        trace = self.trace
        cap = self.capacitor
        t = 0  # wall-clock ns
        if trace is not None:
            # the system starts discharged: harvest up to Von before the
            # first boot (dominant for oversized capacitors, Fig. 10b)
            cap.set_voltage(cfg.v_min)
            t = trace.charge_until(0, cap.energy, self._e_on,
                                   drain_w=cfg.off_leakage_w)
            cap.set_voltage(self.v_on)
            res.off_time_ns += t
        self.design.on_boot(first=True)
        if trace is not None:
            self.watchdog.start(t)
        return t

    def _halt_finalize(self, t: int) -> int:
        """Design finalization after the guest HALTs; returns new t."""
        fin_cycles = self.design.finalize(self.core.cycle)
        self.core.cycle += fin_cycles
        return t + fin_cycles

    def _outage_reboot(self, res: RunResult, bd: EnergyBreakdown, t: int,
                       period: PeriodStats, no_progress: int) -> tuple:
        """One power-failure lifecycle: JIT checkpoint, off-period
        recharge, reboot, restore, adaptation.

        Called exactly when ``cap.energy <= _e_backup_level`` under a
        trace. Returns ``(t, period, no_progress, last_cache,
        last_nvm)`` - the caller must rebase its cache/nvm energy
        baselines on the returned values (flush energy flowed through
        the accumulators during the checkpoint) and re-read
        ``design.stats`` (the design may swap its stats object).
        """
        cfg = self.config
        core = self.core
        design = self.design
        nvm = design.nvm
        trace = self.trace
        cap = self.capacitor
        # ----- power failure imminent: JIT checkpoint (§3.2) -----
        on_time = self.watchdog.stop(t)
        self._close_period(res, period, on_time)
        no_progress = (no_progress + 1) if period.instrs == 0 else 0
        if no_progress > _NO_PROGRESS_LIMIT:
            raise EnergyError(
                f"{design.name} on {res.trace}: no forward progress "
                f"over {_NO_PROGRESS_LIMIT} power-on periods")
        # The chunked voltage check may overshoot the threshold by
        # up to a chunk's worth of energy; the real monitor fires
        # exactly at Vbackup, so normalize to that level and carry
        # the overshoot as a debt against the next on-period
        # (energy-conserving re-attribution).
        debt = max(0.0, self._e_backup_level - cap.energy)
        cap.harvest(debt)
        nvm_before = nvm.energy_read_nj + nvm.energy_write_nj
        report = design.flush_for_checkpoint(core.cycle)
        nvm_delta = (nvm.energy_read_nj + nvm.energy_write_nj
                     - nvm_before)
        ckpt_energy = (nvm_delta + report.extra_energy_nj
                       + self._reg_ckpt_nj)
        if ckpt_energy > self.reserve_nj + 1e-6:
            raise EnergyError(
                f"{design.name}: checkpoint used {ckpt_energy:.0f} nJ, "
                f"exceeding the reserve ({self.reserve_nj:.0f} nJ) - "
                f"crash-consistency guarantee violated")
        cap.consume(ckpt_energy)
        self.nvff.checkpoint(core.arch_regs, core.pc,
                             getattr(design, "maxline", 0),
                             getattr(design, "waterline", 0),
                             self.watchdog.intervals)
        t += report.cycles
        res.outages += 1
        res.checkpoint_lines_total += report.lines_flushed
        bd.checkpoint_nj += self._reg_ckpt_nj
        # mem/cache flush energy flows through the accumulators:
        # re-baseline so the next chunk does not double-consume it
        stats = design.stats
        last_cache = (stats.cache_read_energy_nj
                      + stats.cache_write_energy_nj)
        last_nvm = nvm.energy_read_nj + nvm.energy_write_nj
        design.on_power_loss()
        core.flush_icache()
        if res.outages > cfg.max_outages:
            raise EnergyError(
                f"{design.name}: exceeded {cfg.max_outages} outages")
        # ----- power-off: recharge to this design's Von, leaking
        # off_leakage_w from whatever charge is left -----
        if cfg.deep_discharge:
            # reserved-but-unspent charge is lost to self-discharge
            bd.discarded_nj += max(0.0, cap.energy - self._e_floor)
            cap.set_voltage(cfg.v_min)
        t_on = trace.charge_until(
            t, cap.energy, self._e_on,
            drain_w=cfg.off_leakage_w, e_floor_nj=0.0)
        res.off_time_ns += t_on - t
        t = t_on
        cap.harvest(max(0.0, self._e_on - cap.energy))
        # ----- reboot & restore -----
        regs, pc = self.nvff.restore()
        core.restore_arch_state((regs, pc))
        cap.consume(self._reg_restore_nj)
        bd.checkpoint_nj += self._reg_restore_nj
        core.cycle += self._reg_restore_cycles
        t += self._reg_restore_cycles
        if debt > 0.0:
            # repay the pre-checkpoint overshoot out of this boot's
            # window (bounded so a boot always makes progress)
            cap.consume(min(debt, (self._e_on - self._e_backup_level)
                            * 0.5))
        restore_cycles = design.on_boot(first=False)
        core.cycle += restore_cycles
        t += restore_cycles
        if self.controller is not None:
            new_maxline = self.controller.decide(
                self.watchdog.last_two, self.design.maxline)
            if (new_maxline != self.design.maxline
                    and self._fits(new_maxline)):
                self.design.set_thresholds(new_maxline)
            self.update_reserve()
        # restore energy (e.g. NVSRAM line copies) flows through the
        # cache accumulator on the next chunk; keep baselines as-is
        self.watchdog.start(t)
        period = self._new_period()
        return (t, period, no_progress, last_cache, last_nvm)

    def _finish(self, res: RunResult, bd: EnergyBreakdown, t: int,
                period: PeriodStats, compute_total: float,
                cache_leak_total: float) -> RunResult:
        """Close the last period and assemble the RunResult."""
        core = self.core
        design = self.design
        nvm = design.nvm
        if self.trace is not None:
            on_time = self.watchdog.stop(t)
            self._close_period(res, period, on_time)

        res.halted = core.halted
        res.total_time_ns = t
        res.on_time_ns = t - res.off_time_ns
        res.exec_cycles = core.cycle
        res.instructions = core.instret
        stats = design.stats
        res.nvm_reads = nvm.reads
        res.nvm_writes = nvm.writes
        res.read_hits = stats.read_hits
        res.read_misses = stats.read_misses
        res.write_hits = stats.write_hits
        res.write_misses = stats.write_misses
        res.store_stall_cycles = stats.store_stall_cycles
        res.async_writebacks = stats.async_writebacks
        res.dirty_evictions = stats.dirty_evictions
        # cache-array leakage belongs to the cache component (Fig. 13b);
        # split it evenly between the read and write ports
        bd.cache_read_nj = stats.cache_read_energy_nj + cache_leak_total / 2
        bd.cache_write_nj = stats.cache_write_energy_nj + cache_leak_total / 2
        bd.mem_read_nj = nvm.energy_read_nj
        bd.mem_write_nj = nvm.energy_write_nj
        bd.compute_nj = compute_total
        res.energy = bd
        if self.controller is not None:
            res.reconfig_count = self.controller.reconfig_count
            res.maxline_min, res.maxline_max = self.controller.min_max_seen
            res.prediction_accuracy = self.controller.prediction_accuracy
        elif isinstance(design, WLCache):
            res.maxline_min = res.maxline_max = design.maxline
        if isinstance(design, WLCache) and design.dynamic_policy is not None:
            res.dyn_raises = design.dynamic_policy.raises
        checker = getattr(design, "_invariant_checker", None)
        if checker is not None:
            res.invariant_checks = checker.checks
        recorder = getattr(self, "_trace_recorder", None)
        if recorder is not None:
            recorder.finish(self, res)
        res.final_regs = core.arch_regs
        res.final_memory = nvm.words
        return res

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Simulate to completion and return the result."""
        cfg = self.config
        core = self.core
        design = self.design
        nvm = design.nvm
        trace = self.trace
        cap = self.capacitor
        em = cfg.energy
        core_leak_w = em.core_leakage_w
        design_leak_w = design.leakage_w()

        res = RunResult(program=self.program.name, design=design.name,
                        trace=trace.name if trace else "no-failure")
        bd = EnergyBreakdown()

        # energy accumulator baselines
        last_instret = 0
        last_fetch = 0
        last_imiss = 0
        last_cache = 0.0
        last_nvm = 0.0
        compute_total = 0.0
        cache_leak_total = 0.0

        t = self._begin(res)
        period = self._new_period()
        no_progress = 0

        # hot-loop local bindings: this loop turns once per chunk (every
        # ``chunk_instrs`` guest instructions under a trace), so attribute
        # hops here are a measurable fraction of simulator runtime
        run_chunk = core.run_chunk
        consume = cap.consume
        harvest = cap.harvest
        trace_energy = trace.energy_nj if trace is not None else None
        stats = design.stats
        chunk_instrs = cfg.chunk_instrs
        max_instructions = cfg.max_instructions
        worst_instr_nj = em.worst_instr_nj
        compute_nj = em.compute_nj
        ifetch_nj = em.ifetch_nj
        ifetch_miss_nj = em.ifetch_miss_nj
        # NOT hoisted: _e_backup_level moves when the dynamic maxline
        # policy calls update_reserve() mid-run

        while True:
            if trace is None:
                budget_instrs = 65536
            else:
                headroom = cap.energy - self._e_backup_level
                budget_instrs = min(
                    chunk_instrs,
                    max(2, int(headroom / worst_instr_nj)))
            n, dcycles = run_chunk(budget_instrs)
            instret = core.instret
            if instret > max_instructions:
                raise ExecutionError(
                    f"{self.program.name}: exceeded instruction budget")
            # per-chunk energy
            d_compute = ((instret - last_instret) * compute_nj
                         + (core.ic_fetches - last_fetch) * ifetch_nj
                         + (core.ic_misses - last_imiss) * ifetch_miss_nj
                         + core_leak_w * dcycles)
            d_leak_cache = design_leak_w * dcycles
            cache_leak_total += d_leak_cache
            cache_now = (stats.cache_read_energy_nj
                         + stats.cache_write_energy_nj)
            nvm_now = nvm.energy_read_nj + nvm.energy_write_nj
            d_cache = cache_now - last_cache
            d_nvm = nvm_now - last_nvm
            compute_total += d_compute
            last_instret = instret
            last_fetch = core.ic_fetches
            last_imiss = core.ic_misses
            last_cache = cache_now
            last_nvm = nvm_now

            if trace is not None:
                consume(d_compute + d_leak_cache + d_cache + d_nvm)
                harvest(trace_energy(t, t + dcycles))
            t += dcycles

            if core.halted:
                t = self._halt_finalize(t)
                break

            if trace is not None and cap.energy <= self._e_backup_level:
                (t, period, no_progress, last_cache,
                 last_nvm) = self._outage_reboot(res, bd, t, period,
                                                 no_progress)
                stats = design.stats

        return self._finish(res, bd, t, period, compute_total,
                            cache_leak_total)

    # ------------------------------------------------------------------
    def _new_period(self) -> PeriodStats:
        p = PeriodStats()
        p.instrs = -self.core.instret
        p.async_writebacks = -self.design.stats.async_writebacks
        if isinstance(self.design, WLCache):
            self.design.dirty_highwater = 0
            p.maxline = self.design.maxline
        return p

    def _close_period(self, res: RunResult, p: PeriodStats,
                      on_time: int) -> None:
        p.on_time_ns = on_time
        p.instrs += self.core.instret
        p.async_writebacks += self.design.stats.async_writebacks
        if isinstance(self.design, WLCache):
            p.dirty_highwater = self.design.dirty_highwater
        res.periods.append(p)
