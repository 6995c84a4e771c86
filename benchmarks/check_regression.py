"""Perf-regression gate: fresh bench headlines vs committed baselines.

The repository commits each performance benchmark's report
(``results/BENCH_*.json``, recorded at CI's ``REPRO_BENCH_SCALE``) as
the baseline for its headline *speedup ratio* - the fast engine over
the reference engine (BENCH_9) and a warm store over a cold process
(BENCH_10). CI re-runs the benchmarks at smoke scale and this script
compares the fresh headline against the committed one, bench by
bench:

    fresh_gmean >= baseline_gmean * REPRO_BENCH_TOL

Ratios (not wall-clock) are compared because they divide out the
machine: a shared runner is slower than the workstation that produced
the baseline in both numerator and denominator. They still move with
scale and scheduler noise, so the default tolerance is deliberately
loose - the gate exists to catch a tier collapsing (a refactor that
quietly sends fast points to the interpreter, a store that stops
serving), not to
police single-digit percentages. Tighten ``REPRO_BENCH_TOL`` locally
for real perf work at full scale.

Also writes a merged *perf trajectory* (every bench's baseline and
fresh headline side by side) for CI to upload as an artifact.

Usage::

    python benchmarks/check_regression.py --baseline-dir baselines \
        --current-dir results [--out results/perf_trajectory.json]

Exit codes: 0 all benches within tolerance (or no pairs found: that is
an error, exit 2 - a gate that silently checks nothing must not pass),
1 at least one regression.
"""

import argparse
import glob
import json
import os
import sys

#: bench file stem -> (headline key, short description). The committed
#: BENCH_4/5/6.json are history: their benches were retired with the
#: tiers they compared against, so they have no entry and are skipped.
HEADLINES = {
    "BENCH_9": ("gmean_sweep_speedup", "fast engine vs reference engine"),
    "BENCH_10": ("warmstart_speedup", "warm store vs cold process"),
}

#: bench stem -> env var that, when set, makes a missing fresh report a
#: hard error (exit 2) instead of a skip: a gated bench that silently
#: produced no report must not pass CI
REQUIRED_UNDER = {
    "BENCH_9": "REPRO_LOCKSTEP_GATE",
    "BENCH_10": "REPRO_STORE_GATE",
}

DEFAULT_TOL = 0.6


def tolerance() -> float:
    raw = os.environ.get("REPRO_BENCH_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        sys.exit(f"REPRO_BENCH_TOL must be a number in (0, 1+], "
                 f"got {raw!r}")
    if tol <= 0:
        sys.exit(f"REPRO_BENCH_TOL must be > 0, got {tol}")
    return tol


def headline(path: str) -> tuple[str, float] | None:
    stem = os.path.splitext(os.path.basename(path))[0]
    entry = HEADLINES.get(stem)
    if entry is None:
        return None
    with open(path) as f:
        report = json.load(f)
    key, _ = entry
    value = report.get(key)
    if not isinstance(value, (int, float)):
        sys.exit(f"{path}: headline key {key!r} missing or non-numeric")
    return stem, float(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", required=True,
                    help="directory holding the committed BENCH_*.json")
    ap.add_argument("--current-dir", required=True,
                    help="directory holding the freshly generated ones")
    ap.add_argument("--out", default=None,
                    help="write the merged perf trajectory JSON here")
    args = ap.parse_args()
    tol = tolerance()

    baselines = {}
    for path in sorted(glob.glob(os.path.join(args.baseline_dir,
                                              "BENCH_*.json"))):
        got = headline(path)
        if got:
            baselines[got[0]] = got[1]

    trajectory = {}
    failures = []
    checked = 0
    missing_required = []
    for stem, base in sorted(baselines.items()):
        cur_path = os.path.join(args.current_dir, f"{stem}.json")
        key, desc = HEADLINES[stem]
        if not os.path.exists(cur_path):
            gate_env = REQUIRED_UNDER.get(stem)
            if gate_env and os.environ.get(gate_env, "").strip() \
                    not in ("", "0"):
                print(f"{stem}: no fresh report at {cur_path} but "
                      f"{gate_env} is set - the gated bench never ran")
                missing_required.append(stem)
            else:
                print(f"{stem}: no fresh report at {cur_path}, skipping")
            continue
        _, cur = headline(cur_path)
        checked += 1
        floor = base * tol
        ok = cur >= floor
        trajectory[stem] = {
            "what": desc, "key": key,
            "baseline": round(base, 3), "current": round(cur, 3),
            "ratio": round(cur / base, 3), "floor": round(floor, 3),
            "ok": ok,
        }
        verdict = "ok" if ok else "REGRESSION"
        print(f"{stem} ({desc}): baseline x{base:.2f} -> fresh "
              f"x{cur:.2f} (floor x{floor:.2f}) {verdict}")
        if not ok:
            failures.append(stem)

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"tolerance": tol, "benches": trajectory}, f,
                      indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")

    if missing_required:
        print(f"FAIL: {', '.join(missing_required)} gated but missing "
              f"(exit 2)")
        return 2
    if checked == 0:
        print("FAIL: no baseline/current bench pairs found - the gate "
              "checked nothing")
        return 2
    if failures:
        print(f"FAIL: regression in {', '.join(failures)} "
              f"(tolerance {tol})")
        return 1
    print(f"{checked} bench(es) within tolerance {tol}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
