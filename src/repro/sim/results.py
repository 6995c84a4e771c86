"""Run results: everything the analysis layer and the checker consume."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field


@dataclass
class PeriodStats:
    """Per-power-on-period statistics (§6.6 reporting)."""

    on_time_ns: int = 0
    instrs: int = 0
    dirty_highwater: int = 0
    async_writebacks: int = 0
    maxline: int = 0


@dataclass
class EnergyBreakdown:
    """Energy totals by component, in nJ (Figure 13b categories)."""

    cache_read_nj: float = 0.0
    cache_write_nj: float = 0.0
    mem_read_nj: float = 0.0
    mem_write_nj: float = 0.0
    compute_nj: float = 0.0  # datapath + ifetch + core leakage
    checkpoint_nj: float = 0.0  # register NVFF flashes + restore
    #: reserved-but-unspent charge lost to self-discharge across outages -
    #: the recurring price of a large checkpoint reserve (S1, S6.3)
    discarded_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        return (self.cache_read_nj + self.cache_write_nj + self.mem_read_nj
                + self.mem_write_nj + self.compute_nj + self.checkpoint_nj
                + self.discarded_nj)

    def as_dict(self) -> dict[str, float]:
        return {
            "cache_read": self.cache_read_nj,
            "cache_write": self.cache_write_nj,
            "mem_read": self.mem_read_nj,
            "mem_write": self.mem_write_nj,
            "compute": self.compute_nj,
            "checkpoint": self.checkpoint_nj,
            "discarded": self.discarded_nj,
        }


@dataclass
class RunResult:
    """Outcome of one program x design x trace simulation."""

    program: str
    design: str
    trace: str
    halted: bool = False

    # time
    total_time_ns: int = 0  # wall clock incl. power-off charging
    on_time_ns: int = 0
    off_time_ns: int = 0
    exec_cycles: int = 0
    instructions: int = 0

    # outage behaviour
    outages: int = 0
    checkpoint_lines_total: int = 0
    reconfig_count: int = 0
    maxline_min: int = 0
    maxline_max: int = 0
    prediction_accuracy: float = 1.0
    dyn_raises: int = 0

    # memory behaviour
    nvm_reads: int = 0
    nvm_writes: int = 0  # write traffic (words), Figure 7
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    store_stall_cycles: int = 0
    async_writebacks: int = 0
    dirty_evictions: int = 0
    #: protocol invariant evaluations performed (0 unless the checker was
    #: attached via SimConfig.check_invariants / REPRO_CHECK=1)
    invariant_checks: int = 0

    #: observability counters/histograms (None unless the trace recorder
    #: was attached via SimConfig.trace / REPRO_TRACE=1); a plain dict in
    #: the :meth:`repro.obs.metrics.MetricsRegistry.as_dict` shape so it
    #: pickles cheaply from parallel sweep workers and merges with
    #: :func:`repro.obs.metrics.merge_metrics`
    metrics: dict | None = None

    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    periods: list[PeriodStats] = field(default_factory=list)

    # final state for the crash-consistency checker; the NVM image is an
    # ``array("I")`` of u32 words (see Program.initial_memory). Treat it
    # as read-only: fast-engine results of one column share one array
    # when their images are equal, so copy it before mutating
    final_regs: list[int] = field(default_factory=list)
    final_memory: array | None = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.exec_cycles if self.exec_cycles else 0.0

    @property
    def stall_fraction(self) -> float:
        return (self.store_stall_cycles / self.exec_cycles
                if self.exec_cycles else 0.0)

    @property
    def avg_dirty_per_period(self) -> float:
        ps = [p for p in self.periods if p.instrs > 0]
        if not ps:
            return 0.0
        return sum(p.dirty_highwater for p in ps) / len(ps)

    @property
    def avg_writebacks_per_period(self) -> float:
        ps = [p for p in self.periods if p.instrs > 0]
        if not ps:
            return 0.0
        return sum(p.async_writebacks for p in ps) / len(ps)

    def summary(self) -> str:
        """One-line human-readable digest."""
        ms = self.total_time_ns / 1e6
        return (f"{self.program:>14s} | {self.design:<13s} | "
                f"{ms:9.3f} ms | {self.instructions:>9d} instr | "
                f"{self.outages:>4d} outages | IPC {self.ipc:4.2f}")
