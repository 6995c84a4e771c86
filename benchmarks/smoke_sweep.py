"""CI smoke sweep: a small grid run serial and parallel on the reference
engine AND on the fast engine - all four asserted bit-identical.

Exercises the full stack end to end in about a minute: workload build,
every major cache design (each of the fast engine's inline store
shapes), a real power trace with outages, the crash consistency
verifier, the process-pool engine's bit-exactness guarantee, and the
fast engine's record-once lockstep columns. A second grid runs
WL-Cache with its dynamic maxline policy, which reads the capacitor
from inside a store, through the same four runs. The CI pipeline runs
this with ``REPRO_BENCH_SCALE=0.1`` and uploads the main grid's CSV as
a build artifact.

Usage::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.1 python benchmarks/smoke_sweep.py
"""

import csv
import os
import sys
import time

from repro.lockstep.scheduler import lockstep_stats
from repro.sim.sweep import run_grid

APPS = ("sha", "qsort")
DESIGNS = ("NVSRAM(ideal)", "VCache-WT", "ReplayCache", "WL-Cache")
TRACE = "trace1"
#: (apps, designs, trace, overrides) of the dynamic-policy grid
DYN_GRID = (("fft",), ("WL-Cache",), "trace3", {"dynamic": True})


def main() -> int:
    out_dir = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_csv = os.path.normpath(os.path.join(out_dir, "smoke_sweep.csv"))

    jobs = max(2, os.cpu_count() or 2)
    runs = {}
    times = {}
    apps, designs, trace, overrides = DYN_GRID
    for engine in ("reference", "fast"):
        for label, n in (("serial", 1), ("parallel", jobs)):
            t0 = time.perf_counter()
            runs[engine, label] = (
                run_grid(APPS, DESIGNS, TRACE, jobs=n, engine=engine),
                run_grid(apps, designs, trace, jobs=n, engine=engine,
                         **overrides))
            times[engine, label] = time.perf_counter() - t0
    serial = runs["reference", "serial"]
    for (engine, label), got in runs.items():
        for ref, res in zip(serial, got):
            if res != ref:
                bad = [k for k in ref if ref[k] != res[k]]
                print(f"FAIL: {engine} {label} sweep diverged from the "
                      f"reference serial sweep on {bad}")
                return 1
    serial, dyn = serial
    if not any(res.dyn_raises for res in dyn.values()):
        print("FAIL: the dynamic-policy grid never raised maxline, so it "
              "checks nothing")
        return 1
    if lockstep_stats()["columns"] == 0:
        print("FAIL: the fast engine never formed a column in the smoke "
              "sweep")
        return 1
    print(" / ".join(f"{engine} {label} {t:.2f}s"
                     for (engine, label), t in times.items())
          + f" - {len(serial) + len(dyn)} runs bit-identical")

    with open(out_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["app", "design", "trace", "time_us", "outages",
                    "nvm_writes", "energy_uj"])
        for (app, design), res in serial.items():
            w.writerow([app, design, TRACE,
                        f"{res.total_time_ns / 1e3:.2f}", res.outages,
                        res.nvm_writes,
                        f"{res.energy.total_nj / 1e3:.2f}"])
    print(f"wrote {out_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
