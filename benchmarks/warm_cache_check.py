"""CI warm-cache check: a second process against a primed store records
nothing and simulates nothing it has a memo for.

Runs the same work twice, in two child interpreters sharing one store
root:

* a sweep with result memoization on (exercises the ``result``
  artifact class), and
* a fast-engine sweep (exercises the ``skel`` class: one stream
  skeleton per kernel).

The second child must report **zero** recordings, one skeleton load
(``disk_hits``) per kernel the first child recorded (at least one), an
all-hit result memo, and results identical to the first child's.
Generated code is not stored, so the second child renders its own. Any
violation exits non-zero with the offending counters - this is the CI
tripwire for "the store silently stopped working" (which the perf gate
alone could miss at smoke scale).

Usage::

    PYTHONPATH=src python benchmarks/warm_cache_check.py
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

APPS = ("sha",)
MEMO_DESIGNS = ("NVSRAM(ideal)", "WL-Cache")
REPLAY_DESIGNS = ("WL-Cache", "NVSRAM(ideal)", "VCache-WT")
TRACE = "trace1"
SCALE = 0.2


def child(out_path: str) -> int:
    from repro.analysis.stats_io import result_to_dict
    from repro.batch.engine import batch_stats
    from repro.sim.config import SimConfig
    from repro.sim.sweep import run_grid
    from repro.store import store_stats

    def dump(grid):
        return {f"{w}|{d}": {"stats": result_to_dict(r,
                                                     include_periods=True),
                             "final_regs": list(r.final_regs)}
                for (w, d), r in grid.items()}

    memo_cfg = SimConfig(result_cache=True)
    memo = run_grid(APPS, MEMO_DESIGNS, TRACE, scale=SCALE, jobs=1,
                    config=memo_cfg)
    replay_cfg = SimConfig(engine="fast")
    replay = run_grid(APPS, REPLAY_DESIGNS, TRACE, scale=SCALE, jobs=1,
                      config=replay_cfg)
    report = {
        "memo_grid": dump(memo),
        "replay_grid": dump(replay),
        "batch": batch_stats(),
        "store_events": store_stats(),
    }
    with open(out_path, "w") as f:
        json.dump(report, f)
    return 0


def run_child(store_dir: str, tag: str) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        out_path = tf.name
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = store_dir
    src = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                        os.pardir, "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child",
             out_path], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{tag} run failed:\n{proc.stderr}")
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", metavar="OUT", default=None)
    args = parser.parse_args()
    if args.child:
        return child(args.child)

    store_dir = tempfile.mkdtemp(prefix="repro-warmcheck-")
    try:
        first = run_child(store_dir, "cold")
        second = run_child(store_dir, "warm")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    failures = []

    def expect_zero(label, n):
        if n != 0:
            failures.append(f"{label} = {n} (want 0)")

    expect_zero("warm recordings", second["batch"]["recordings"])

    hits = second["store_events"].get("result_hits", 0)
    want = len(second["memo_grid"])
    if hits != want:
        failures.append(f"warm result_hits = {hits} (want {want})")
    loads = second["batch"].get("disk_hits", 0)
    if loads != first["batch"]["recordings"]:
        failures.append(f"warm skeleton loads (disk_hits) = {loads} (want "
                        f"{first['batch']['recordings']}, one per kernel "
                        f"the cold run recorded)")
    for grid in ("memo_grid", "replay_grid"):
        if first[grid] != second[grid]:
            failures.append(f"{grid}: warm results differ from cold")

    if first["batch"]["recordings"] < 1:
        failures.append("cold run recorded nothing - the check measured "
                        "nothing")

    if failures:
        print("warm-cache check FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"warm-cache check passed: second process recorded and "
          f"simulated nothing it had stored "
          f"({loads} skeleton loads, {hits} result hits; results "
          f"bit-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
