"""CI campaign smoke: a 64-point Monte-Carlo campaign run four ways.

Runs the same ``(workload x design x stochastic family x seed)`` grid
under the serial loop, the process pool, and the fast engine's
record-once lockstep engines (on the pool and serially), asserts the
four are point-for-point bit-identical, checks the
fixed-seed summary statistics are identical across engines, checks
every point's final NVM image and registers against the failure-free
oracle (the fast engine's equal images arriving as one array per
kernel), and writes the summary CSV/SVG artifacts the CI job uploads.

The golden *content* pin for the statistical pipeline lives in
``tests/test_mc_stats.py`` (exact-match against
``tests/goldens/mc_campaign_summary.json``); this smoke guards the
engine-invariance half of the contract at a size the unit tests don't
reach (>= 64 points). Both fast campaigns must run one engine per
point (``columns == instances == FAST_SPEC.n_points``). The pool deals
each kernel's 32 fast-engine points round-robin into several chunks, so
each kernel is recorded once per worker that runs a piece of it; the
smoke fails unless ``repro.sim.parallel._chunked`` splits each kernel's
block over at least two chunks, so the fast campaign's
one-image-per-kernel check spans dealt chunks.

Usage::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.1 python benchmarks/campaign_smoke.py
"""

import json
import os
import sys
import time

from repro.errors import ConsistencyError
from repro.lockstep.scheduler import clear_lockstep_stats, lockstep_stats
from repro.mc import (CampaignSpec, campaign_to_dict, run_campaign,
                      summarize_campaign, write_report)
from repro.mc.engine import expand_campaign
from repro.sim.parallel import _chunked
from repro.verify.checker import check_crash_consistency
from repro.workloads import build_workload

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))

SPEC = CampaignSpec(
    workloads=("sha", "qsort"),
    designs=("WL-Cache", "NVSRAM(ideal)"),
    families=("mc-rf-home", "mc-rf-office"),
    seeds=tuple(range(8)),
    scale=SCALE,
    overrides={"engine": "reference"},
)

FAST_SPEC = CampaignSpec(
    workloads=SPEC.workloads, designs=SPEC.designs, families=SPEC.families,
    seeds=SPEC.seeds, scale=SPEC.scale, overrides={"engine": "fast"})


def _one_engine_per_point(name: str) -> bool:
    """The campaign just run started one engine per point."""
    stats = lockstep_stats()
    if stats["columns"] == stats["instances"] == FAST_SPEC.n_points:
        return True
    print(f"FAIL: {name} campaign ran {stats['columns']} engines for "
          f"{stats['instances']} started and {FAST_SPEC.n_points} points")
    return False


def main() -> int:
    out_dir = os.path.normpath(
        os.path.join(os.path.dirname(__file__), os.pardir, "results"))
    os.makedirs(out_dir, exist_ok=True)
    assert SPEC.n_points >= 64, SPEC.n_points
    jobs = max(2, os.cpu_count() or 2)

    t0 = time.perf_counter()
    serial = run_campaign(SPEC, jobs=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_campaign(SPEC, jobs=jobs)
    t_parallel = time.perf_counter() - t0

    sd, pd = campaign_to_dict(serial), campaign_to_dict(parallel)
    if sd != pd:
        bad = [k for k in serial if serial[k] != parallel[k]]
        print(f"FAIL: parallel campaign diverged from serial on {bad}")
        return 1

    tasks = [task for _key, task in expand_campaign(FAST_SPEC)]
    for app in FAST_SPEC.workloads:
        dealt = sum(1 for chunk in _chunked(tasks, jobs, align_batches=True)
                    if any(tasks[i].workload == app for i in chunk))
        if dealt < 2:
            print(f"FAIL: the pool keeps {app}'s block in {dealt} chunk "
                  f"on {jobs} workers; it dealt none")
            return 1

    clear_lockstep_stats()
    t0 = time.perf_counter()
    fast = run_campaign(FAST_SPEC, jobs=jobs)
    t_fast = time.perf_counter() - t0
    if not _one_engine_per_point("fast"):
        return 1
    fd = campaign_to_dict(fast)
    if sd != fd:
        bad = [k for k in serial if serial[k] != fast[k]]
        print(f"FAIL: fast-engine campaign diverged from serial on {bad}")
        return 1

    clear_lockstep_stats()
    t0 = time.perf_counter()
    fast_serial = run_campaign(FAST_SPEC, jobs=1)
    t_fast_serial = time.perf_counter() - t0
    if not _one_engine_per_point("serial fast"):
        return 1
    if sd != campaign_to_dict(fast_serial):
        bad = [k for k in serial if serial[k] != fast_serial[k]]
        print(f"FAIL: serial fast-engine campaign diverged from serial "
              f"on {bad}")
        return 1

    summaries = [summarize_campaign(pts) for pts in (serial, parallel,
                                                     fast, fast_serial)]
    texts = [json.dumps(s, sort_keys=True) for s in summaries]
    if len(set(texts)) != 1:
        print("FAIL: summary statistics differ across execution engines")
        return 1

    # point order is kernel-major, so the checker runs each kernel's
    # oracle once per campaign
    for name, points in (("serial", serial), ("parallel", parallel),
                         ("fast", fast), ("serial fast", fast_serial)):
        for key in sorted(points):
            try:
                check_crash_consistency(build_workload(key[0], SCALE),
                                        points[key])
            except ConsistencyError as exc:
                print(f"FAIL: {name} campaign point {key}: {exc}")
                return 1
    for name, points in (("fast", fast), ("serial fast", fast_serial)):
        images = len({id(res.final_memory) for res in points.values()})
        if images > len(FAST_SPEC.workloads):
            print(f"FAIL: {name} campaign holds {images} final images "
                  f"for {len(FAST_SPEC.workloads)} kernels")
            return 1
    print(f"serial {t_serial:.2f}s / parallel {t_parallel:.2f}s / "
          f"fast {t_fast:.2f}s / serial fast {t_fast_serial:.2f}s - "
          f"{SPEC.n_points} points bit-identical, summaries identical, "
          f"every point matches the oracle, {images} fast images, one "
          f"engine per point")

    prefix = os.path.join(out_dir, "campaign_smoke")
    for path in write_report(summaries[0], prefix):
        print(f"wrote {path}")
    for a in summaries[0]["speedup_aggregate"]:
        print(f"  {a['design']} / {a['family']}: gmean speedup "
              f"{a['speedup_gmean']:.3f} "
              f"[{a['ci_lo']:.3f}, {a['ci_hi']:.3f}] (n={a['n']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
