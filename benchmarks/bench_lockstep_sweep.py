"""Lockstep sweep benchmark: the fast engine vs the reference engine.

Runs, per kernel, the *full figure grid* - every cache design crossed
with the no-failure condition and both power traces (the Fig. 4/5/6
axis), plus the WL-Cache sensitivity slice the Fig. 8-10 sweeps walk
(capacitor size x maxline/waterline x DirtyQueue capacity, under both
traces) - on two engines: the reference engine
(``SimConfig(engine="reference")``, every point interpreted through
``run_task``) and the fast engine (``SimConfig(engine="fast")``: the
kernel recorded once, every point replayed on its own generated
lockstep engine). Results land in ``results/BENCH_9.json``.

Methodology - *warm* sweep, on purpose:

* Each engine keeps its process caches warm across reps (the
  interpreter's decode cache; the fast engine's recordings, streams and
  generated engines), as they are across the grids of a figure or the
  seeds of a Monte-Carlo campaign.
* The fast engine's one-time costs - recording the kernel, expanding
  its streams, rendering and compiling the engines - are reported
  separately as the cold numbers below.

Each engine gets one warm-up pass whose RunResults are asserted
**bit-identical** point-by-point (the fast engine's correctness
contract, checked before anything is timed), then ``REPS`` timed warm
passes interleaved per engine, taking the best (the 1-core CI container
shows double-digit single-shot noise). A final cold pass per engine -
stream caches and generated engines dropped - is timed once and
reported so the one-time costs stay visible.

Environment: ``REPRO_BENCH_SCALE`` scales the workloads,
``REPRO_BENCH_APPS`` selects kernels (default: the representative
sensitivity suite), ``REPRO_LOCKSTEP_GATE`` (default off) makes the
script exit non-zero when the gmean sweep speedup is below the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_lockstep_sweep.py
"""

import json
import math
import os
import sys
import time

from bench_common import SENSITIVITY_APPS, bench_apps
from repro.batch.engine import clear_streams, iter_outcomes
from repro.lockstep.codegen import clear_engines
from repro.lockstep.scheduler import clear_lockstep_stats, lockstep_stats
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.parallel import SweepTask, run_task
from repro.sim.sweep import bench_scale

REPS = 5
#: regression floors for the gate, each about 0.83 of the gmean it
#: guards, rounded down to 0.1 (EXPERIMENTS.md records the runs). The
#: floor is scale-aware: the fast engine's win is *per replayed event*,
#: so fixed per-sweep costs (task dispatch, stream lookup, engine
#: set-up) dilute it at smoke scale (measured: x2.65-x2.73 gmean at
#: scale 0.1 vs x3.03 at 1.0).
GATE_FULL = 2.5
GATE_SMOKE = 2.2
SMOKE_BELOW = 0.5
CONDITIONS = (None, "trace1", "trace2")
#: WL-Cache sensitivity axes (the Fig. 8/9/10 sweep shapes)
SENS_TRACES = ("trace1", "trace2")
SENS_CAPS_F = (5e-7, 1e-6, 2e-6, 1e-5)
SENS_MAXLINES = (4, 6, 8)
SENS_DQ = (8, 12)


def grid_tasks(app: str, scale: float, cfg: SimConfig) -> list[SweepTask]:
    """The kernel's full figure grid as one task list."""
    tasks = [SweepTask(app, design, trace, scale, False, cfg)
             for trace in CONDITIONS for design in DESIGNS]
    for trace in SENS_TRACES:
        for cap in SENS_CAPS_F:
            for ml in SENS_MAXLINES:
                for dq in SENS_DQ:
                    tasks.append(SweepTask(
                        app, "WL-Cache", trace, scale, False, cfg,
                        {"capacitance_f": cap, "maxline": ml,
                         "waterline": ml - 1, "dq_capacity": dq}))
    return tasks


def _reference_sweep(tasks: list[SweepTask]) -> list:
    """The reference engine: every point interpreted on its own."""
    return [run_task(task) for task in tasks]


def _fast_sweep(tasks: list[SweepTask]) -> list:
    """The fast engine: one recording, one generated engine per point."""
    results = []
    for _task, outcome in iter_outcomes(tasks, run_task):
        if outcome[0] != "ok":
            raise outcome[1]
        results.append(outcome[1])
    return results


#: engine name -> (its config, its sweep function); the names key
#: BENCH_9.json
ENGINES = {"reference": (SimConfig(engine="reference"), _reference_sweep),
           "fast": (SimConfig(engine="fast"), _fast_sweep)}


def _clear_engine_caches() -> None:
    clear_streams()
    clear_engines()


def time_engines(app: str, scale: float) -> dict:
    """Best warm-sweep wall time per engine, after the bit-identity
    check, plus one cold pass per engine."""
    tasks = {name: grid_tasks(app, scale, cfg)
             for name, (cfg, _sweep) in ENGINES.items()}
    warm = {name: sweep(tasks[name])
            for name, (_cfg, sweep) in ENGINES.items()}
    for a, b in zip(warm["reference"], warm["fast"]):
        assert a == b, (f"{app}: the fast engine diverged from the "
                        f"reference on {a.design}/{a.trace}")
    best = dict.fromkeys(ENGINES, math.inf)
    for _ in range(REPS):
        for name, (_cfg, sweep) in ENGINES.items():
            t0 = time.perf_counter()
            sweep(tasks[name])
            best[name] = min(best[name], time.perf_counter() - t0)
    cold = {}
    for name, (_cfg, sweep) in ENGINES.items():
        _clear_engine_caches()
        t0 = time.perf_counter()
        sweep(tasks[name])
        cold[name] = time.perf_counter() - t0
    return {"warm": best, "cold": cold, "points": len(tasks["fast"])}


def main() -> int:
    out_dir = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_json = os.path.normpath(os.path.join(out_dir, "BENCH_9.json"))
    scale = bench_scale()

    clear_lockstep_stats()
    kernels = {}
    ratios = []
    for app in bench_apps(default=SENSITIVITY_APPS):
        t = time_engines(app, scale)
        ratio = t["warm"]["reference"] / t["warm"]["fast"]
        ratios.append(ratio)
        kernels[app] = {
            "reference_s": round(t["warm"]["reference"], 6),
            "fast_s": round(t["warm"]["fast"], 6),
            "speedup": round(ratio, 3),
            "cold_reference_s": round(t["cold"]["reference"], 6),
            "cold_fast_s": round(t["cold"]["fast"], 6),
            "grid_points": t["points"],
        }
        cold_ratio = t["cold"]["reference"] / t["cold"]["fast"]
        print(f"{app:14s} reference {t['warm']['reference'] * 1e3:8.1f} ms"
              f" -> fast {t['warm']['fast'] * 1e3:8.1f} ms  x{ratio:.2f}"
              f"  (cold x{cold_ratio:.2f})")
    stats = lockstep_stats()
    assert stats["columns"] > 0 and stats["instances"] > 0, \
        "lockstep never engaged - the benchmark measured nothing"

    g = math.exp(sum(map(math.log, ratios)) / len(ratios))
    gate = GATE_FULL if scale >= SMOKE_BELOW else GATE_SMOKE
    report = {
        "bench": "lockstep_sweep",
        "suite": ("designs x {no-failure, trace1, trace2} + WL-Cache "
                  "sensitivity (capacitor x maxline x dq, both traces) "
                  "per kernel"),
        "designs": list(DESIGNS),
        "conditions": [c or "none" for c in CONDITIONS],
        "sensitivity": {
            "traces": list(SENS_TRACES),
            "capacitors_f": list(SENS_CAPS_F),
            "maxlines": list(SENS_MAXLINES),
            "dq_capacities": list(SENS_DQ),
        },
        "scale": scale,
        "reps": REPS,
        "methodology": "warm caches, min of reps; cold pass reported "
                       "per kernel (see module docstring)",
        "gate": gate,
        "gate_env": "REPRO_LOCKSTEP_GATE",
        "gmean_sweep_speedup": round(g, 3),
        "lockstep_stats": stats,
        "kernels": kernels,
    }
    with open(out_json, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"gmean sweep speedup x{g:.2f} over the reference engine "
          f"({len(kernels)} kernels); wrote {out_json}")

    if os.environ.get("REPRO_LOCKSTEP_GATE", "").strip() not in ("", "0"):
        if g < gate:
            print(f"FAIL: gmean sweep speedup x{g:.2f} below the "
                  f"x{gate:.2f} gate (scale {scale})")
            return 1
        print(f"gate passed: x{g:.2f} >= x{gate:.2f} at scale {scale} "
              f"(see EXPERIMENTS.md)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
