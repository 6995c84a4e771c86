"""Factory wiring programs, cache designs, traces, and configs into Systems."""

from __future__ import annotations

import os
from dataclasses import replace

from repro.caches.nvcache import NVCacheWB
from repro.caches.nvsram import NVSRAMIdeal
from repro.caches.nvsram_variants import NVSRAMFull, NVSRAMPractical
from repro.caches.replay import ReplayCache
from repro.caches.vcache_wt import VCacheWT
from repro.caches.wt_buffer import WTBufferCache
from repro.core.variants import EagerCleanupWLCache
from repro.core.wl_cache import WLCache
from repro.cpu.costs import CycleCosts
from repro.energy.synthetic import make_trace
from repro.energy.traces import PowerTrace
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.lint.invariants import attach_invariants, invariants_enabled
from repro.mem.memsys import NoCacheNVP
from repro.obs.recorder import attach_trace, trace_enabled
from repro.mem.nvm import NVMainMemory
from repro.sim.config import DESIGNS, ENGINES, SimConfig
from repro.sim.system import System

#: ``REPRO_ENGINE=fast`` selects the fast sweep engine for every config
#: that leaves :attr:`SimConfig.engine` unset.
ENGINE_ENV = "REPRO_ENGINE"

#: Every design name :func:`build_design` accepts: the paper's five plus
#: the extension designs (§2.3.3 variants, §3.3 strawman, §5.4 ablation).
ALL_DESIGN_NAMES = DESIGNS + (
    "NoCache",
    "NVSRAM(full)",
    "NVSRAM(practical)",
    "WT+Buffer",
    "WL-Cache(eager)",
)


def validate_design(name: str) -> str:
    """Return ``name`` if it is a known design, else raise ConfigError."""
    if name not in ALL_DESIGN_NAMES:
        raise ConfigError(
            f"unknown design {name!r}; have {ALL_DESIGN_NAMES}")
    return name


def build_design(name: str, nvm: NVMainMemory, config: SimConfig):
    """Instantiate a cache design by its paper name."""
    g = config.geometry
    repl = config.cache_replacement
    if name == "NoCache":
        return NoCacheNVP(nvm)
    if name == "VCache-WT":
        return VCacheWT(nvm, g, repl, config.sram_params)
    if name == "NVCache-WB":
        return NVCacheWB(nvm, g, repl, config.nvcache_params)
    if name == "NVSRAM(ideal)":
        return NVSRAMIdeal(nvm, g, repl, config.sram_params)
    if name == "ReplayCache":
        return ReplayCache(nvm, g, repl, config.sram_params,
                           region_stores=config.region_stores,
                           persist_depth=config.persist_depth)
    if name == "WL-Cache":
        return WLCache(nvm, g, repl, config.sram_params,
                       dq_capacity=config.dq_capacity,
                       maxline=config.maxline,
                       waterline=config.waterline,
                       dq_policy=config.dq_policy)
    # extension designs (§2.3.3 variants, §3.3 strawman, §5.4 ablation)
    if name == "NVSRAM(full)":
        return NVSRAMFull(nvm, g, repl, config.sram_params)
    if name == "NVSRAM(practical)":
        return NVSRAMPractical(nvm, g, repl, config.sram_params,
                               nv_params=config.nvcache_params)
    if name == "WT+Buffer":
        return WTBufferCache(nvm, g, repl, config.sram_params,
                             buffer_depth=config.persist_depth)
    if name == "WL-Cache(eager)":
        return EagerCleanupWLCache(nvm, g, repl, config.sram_params,
                                   dq_capacity=config.dq_capacity,
                                   maxline=config.maxline,
                                   waterline=config.waterline,
                                   dq_policy=config.dq_policy)
    raise ConfigError(f"unknown design {name!r}; have {ALL_DESIGN_NAMES}")


def resolve_engine(config: SimConfig) -> str:
    """The engine a sweep point runs on: ``config.engine`` when set,
    else ``REPRO_ENGINE``, else ``"reference"``. A malformed
    ``REPRO_ENGINE`` raises :class:`ConfigError` naming the variable."""
    if config.engine is not None:
        return config.engine
    raw = os.environ.get(ENGINE_ENV, "").strip()
    if not raw:
        return "reference"
    if raw not in ENGINES:
        raise ConfigError(
            f"{ENGINE_ENV} must be one of {ENGINES}, got {raw!r}")
    return raw


def instrumented(config: SimConfig) -> bool:
    """The trace recorder or the invariant checker is on (per config or
    environment). Both must see every memory call and chunk, so such a
    run takes the interpreter and is never memoized."""
    return (config.trace or trace_enabled() or config.check_invariants
            or invariants_enabled())


def runs_fast(config: SimConfig) -> bool:
    """A sweep point runs on the fast engine: its engine resolves to
    ``"fast"`` and it is not :func:`instrumented`."""
    return resolve_engine(config) == "fast" and not instrumented(config)


def effective_costs(design: str, config: SimConfig) -> CycleCosts:
    """The cost model a design executes under: NVCache-WB's slow NV
    I-cache folds ``nvcache_ifetch_extra`` into its fetch costs, so it
    forms its own cost family."""
    costs = config.costs
    if design == "NVCache-WB":
        costs = replace(costs, ifetch_extra=config.nvcache_ifetch_extra)
    return costs


def build_system(program: Program, design_name: str,
                 trace: PowerTrace | str | None = None,
                 config: SimConfig | None = None, **overrides) -> System:
    """Build a ready-to-run :class:`System` on the interpreter core.

    ``trace`` may be a :class:`PowerTrace`, one of the five named sources
    ('trace1', 'trace2', 'trace3', 'solar', 'thermal'), or None for a
    failure-free run. ``overrides`` are :class:`SimConfig` field overrides.
    """
    config = config or SimConfig()
    if overrides:
        config = config.with_(**overrides)
    if isinstance(trace, str):
        trace = (make_trace(trace) if config.trace_seed is None
                 else make_trace(trace, config.trace_seed))
    nvm = NVMainMemory(program.initial_memory(), config.nvm)
    design = build_design(design_name, nvm, config)
    if config.check_invariants or invariants_enabled():
        attach_invariants(design)
    system = System(program, design, config, trace,
                    effective_costs(design_name, config))
    if config.trace or trace_enabled():
        attach_trace(system)
    return system


def run_one(program: Program, design_name: str,
            trace: PowerTrace | str | None = None,
            config: SimConfig | None = None, **overrides):
    """Build and run in one call; returns the :class:`RunResult`."""
    return build_system(program, design_name, trace, config, **overrides).run()


def attach_memfast(*_args):
    """Never called: there is no memfast tier. ``perfbench/spans.py``
    wraps this name here and in :mod:`repro.batch.engine` and raises
    when it is missing."""
    raise NotImplementedError("there is no memfast tier")
