"""Warm-start benchmark: the persistent artifact store across processes.

Measures what the store is for - a *new process* (a campaign shard, a
re-run figure bench, a CI job) skipping simulation it has already paid
for. Each measurement is a child interpreter that runs the
same sweep grid with result memoization on:

* **cold** - every rep gets a fresh, empty store root: the child
  simulates every grid point on the interpreter.
* **warm** - all reps share one store root, primed by an untimed
  warm-up child: the timed children load every memoized result from
  disk.

Before anything is timed, the warm-up child's grid is asserted
**bit-identical** (stats + final registers; memoized results are
stats-only by design) to the cold grid, and each timed warm child must
report an all-hit result memo - a warm run that quietly recomputes
would otherwise flatter the cold side.

The headline ``warmstart_speedup`` is the median cold wall time over
the median warm wall time, wall time being the child's own measurement
around the sweep (interpreter startup and imports are identical on
both sides and excluded). Results land in ``results/BENCH_10.json``;
``REPRO_STORE_GATE`` (default off) makes the script exit non-zero when
the speedup falls below the gate - the floor guards the warm path
*existing* (a refactor that stops consulting the store shows up as
x1.0), not the exact ratio, which moves with disk and scale.

Environment: ``REPRO_BENCH_SCALE`` scales the workloads;
``REPRO_STORE_GATE`` arms the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_store_warmstart.py
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

REPS = 3
GATE = 1.5
GATE_ENV = "REPRO_STORE_GATE"
APPS = ("sha", "qsort")
DESIGNS = ("NVSRAM(ideal)", "WL-Cache", "VCache-WT")
TRACE = "trace1"
BASE_SCALE = 0.3


def bench_scale() -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


# ---------------------------------------------------------------------------
# child: one process-lifetime measurement
# ---------------------------------------------------------------------------

def child(out_path: str) -> int:
    from repro.analysis.stats_io import result_to_dict
    from repro.sim.config import SimConfig
    from repro.sim.sweep import run_grid
    from repro.store import store_stats

    cfg = SimConfig(result_cache=True)
    scale = BASE_SCALE * bench_scale()
    t0 = time.perf_counter()
    grid = run_grid(APPS, DESIGNS, TRACE, scale=scale, jobs=1, config=cfg)
    elapsed = time.perf_counter() - t0
    report = {
        "elapsed_s": elapsed,
        "grid": {f"{w}|{d}": {"stats": result_to_dict(r,
                                                      include_periods=True),
                              "final_regs": list(r.final_regs)}
                 for (w, d), r in grid.items()},
        "store_events": store_stats(),
    }
    with open(out_path, "w") as f:
        json.dump(report, f)
    return 0


def run_child(store_dir: str, tag: str) -> dict:
    """Spawn one measurement process against ``store_dir``."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        out_path = tf.name
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = store_dir
    env["REPRO_RESULT_CACHE"] = "1"
    src = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                        os.pardir, "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child",
             out_path], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{tag} child failed:\n{proc.stderr}")
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


# ---------------------------------------------------------------------------
# parent: cold vs warm
# ---------------------------------------------------------------------------

def assert_warm_is_warm(rep: dict, tag: str) -> None:
    """A timed warm child must have loaded every result."""
    hits = rep["store_events"].get("result_hits", 0)
    points = len(rep["grid"])
    if hits != points:
        raise SystemExit(f"{tag}: warm run recomputed work: "
                         f"result_hits={hits} (want {points})")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", metavar="OUT", default=None,
                        help="internal: run one measurement, write OUT")
    args = parser.parse_args()
    if args.child:
        return child(args.child)

    out_dir = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_json = os.path.normpath(os.path.join(out_dir, "BENCH_10.json"))

    cold_times = []
    cold_grid = None
    for i in range(REPS):
        store_dir = tempfile.mkdtemp(prefix="repro-cold-")
        try:
            rep = run_child(store_dir, f"cold[{i}]")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        cold_times.append(rep["elapsed_s"])
        if cold_grid is None:
            cold_grid = rep["grid"]
        elif rep["grid"] != cold_grid:
            raise SystemExit(f"cold[{i}]: non-deterministic grid - "
                             "cold reps disagree")
        print(f"cold[{i}]  {rep['elapsed_s'] * 1e3:8.1f} ms  "
              f"(result_writes="
              f"{rep['store_events'].get('result_writes', 0)})")

    warm_dir = tempfile.mkdtemp(prefix="repro-warm-")
    try:
        primer = run_child(warm_dir, "warm-up")
        # the correctness contract, checked before any warm timing
        if primer["grid"] != cold_grid:
            raise SystemExit("warm-up grid differs from the cold grid - "
                             "the store changed simulation results")
        warm_times = []
        for i in range(REPS):
            rep = run_child(warm_dir, f"warm[{i}]")
            assert_warm_is_warm(rep, f"warm[{i}]")
            if rep["grid"] != cold_grid:
                raise SystemExit(f"warm[{i}]: grid differs from cold - "
                                 "a memoized result is wrong")
            warm_times.append(rep["elapsed_s"])
            print(f"warm[{i}]  {rep['elapsed_s'] * 1e3:8.1f} ms  "
                  f"(result_hits="
                  f"{rep['store_events'].get('result_hits', 0)})")
        warm_stats = {"store_events": rep["store_events"]}
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)

    cold_med = statistics.median(cold_times)
    warm_med = statistics.median(warm_times)
    speedup = cold_med / warm_med
    scale = BASE_SCALE * bench_scale()
    report = {
        "bench": "store_warmstart",
        "apps": list(APPS),
        "designs": list(DESIGNS),
        "trace": TRACE,
        "scale": round(scale, 4),
        "reps": REPS,
        "methodology": "median over child-process sweeps; cold = fresh "
                       "store root per rep, warm = shared pre-warmed "
                       "root; warm grids asserted bit-identical to cold "
                       "before timing (see module docstring)",
        "cold_s": [round(t, 6) for t in cold_times],
        "warm_s": [round(t, 6) for t in warm_times],
        "cold_median_s": round(cold_med, 6),
        "warm_median_s": round(warm_med, 6),
        "gate": GATE,
        "gate_env": GATE_ENV,
        "warmstart_speedup": round(speedup, 3),
        "warm_process_stats": warm_stats,
    }
    with open(out_json, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"warm-start speedup x{speedup:.2f} "
          f"(cold {cold_med * 1e3:.1f} ms -> warm {warm_med * 1e3:.1f} ms);"
          f" wrote {out_json}")

    if os.environ.get(GATE_ENV, "").strip() not in ("", "0"):
        if speedup < GATE:
            print(f"FAIL: warm-start speedup x{speedup:.2f} below the "
                  f"x{GATE:.2f} gate")
            return 1
        print(f"gate passed: x{speedup:.2f} >= x{GATE:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
