"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run <workload>`` - simulate one workload on one design under one power
  condition and print the run summary (optionally verifying consistency).
* ``compare <workload>`` - run every design on one workload and print
  normalized speedups.
* ``lint`` - statically analyze the suite's workload programs (CFG +
  dataflow: uninitialized reads, dead stores, unreachable code, bad
  branch targets, misaligned/out-of-bounds accesses; with
  ``--intermittent`` also the checkpoint-region rules L009-L014). Exit
  code 0 when clean, 1 with warnings, 2 with error-severity findings
  (waived findings never gate; ``--errors-only`` stops warnings from
  gating too).
* ``audit`` - statically audit the *generated* Python of the lockstep
  engines against their structural contracts (A005, A006, A008). Exit
  code 0 when every engine verifies, 2 on any contract violation.
* ``cache`` - inspect and maintain the persistent artifact store
  (``REPRO_CACHE_DIR``): ``stats`` prints disk usage per artifact class
  plus this process's counters, ``gc --max-size`` evicts least-recently
  -used entries down to a byte budget, ``clear`` empties the store.
* ``trace <app> <design> <trace>`` - run with the observability layer
  attached and export the event trace as Chrome/Perfetto ``trace.json``
  (plus optional CSV/text), with a terminal timeline summary.
* ``campaign`` - run a Monte-Carlo outage campaign: a ``(workload x
  design x stochastic-trace-family x seed)`` grid whose per-point
  results are distilled into bootstrap confidence intervals, tail
  (p95/p99) forward progress, and outage-survival curves, written as
  JSON/CSV/SVG. Points persist as JSON and partial campaigns merge
  losslessly (``--from-json``).
* ``list`` - list available workloads, designs, and traces.

Examples::

    python -m repro run sha --design WL-Cache --trace trace1
    python -m repro run qsort --trace trace2 --maxline 4 --static
    python -m repro compare adpcmencode --trace trace2
    python -m repro trace dijkstra wl trace1 --out trace.json
    python -m repro campaign --apps sha qsort --seeds 8 --out results/mc
    python -m repro lint --format json
    python -m repro cache stats
    python -m repro cache gc --max-size 500M
    python -m repro plot results/fig05_trace1.csv
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.speedup import speedup
from repro.analysis.tables import format_table
from repro.energy.synthetic import TRACE_FACTORIES
from repro.sim.config import BASELINE_DESIGN, DESIGNS, ENGINES
from repro.sim.factory import ALL_DESIGN_NAMES as ALL_DESIGNS
from repro.sim.factory import build_system
from repro.verify.checker import check_crash_consistency
from repro.workloads import ALL_WORKLOADS, build_workload


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, choices=sorted(TRACE_FACTORIES),
                   help="power trace (default: no power failures)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier")
    p.add_argument("--maxline", type=int, default=None)
    p.add_argument("--dq-policy", choices=("fifo", "lru"), default=None)
    p.add_argument("--static", action="store_true",
                   help="disable adaptive threshold management")
    p.add_argument("--dynamic", action="store_true",
                   help="enable dynamic (run-time) maxline raising")
    p.add_argument("--capacitor-uf", type=float, default=None,
                   help="energy buffer size in microfarads")
    p.add_argument("--seed", type=int, default=None, help="trace seed")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the crash-consistency check")
    p.add_argument("--stats-json", default=None, metavar="PATH",
                   help="dump run statistics as JSON")


def _add_engine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help="'fast' records each kernel once and replays "
                        "every point on a generated engine; 'reference' "
                        "interprets every point (bit-identical results; "
                        "default: REPRO_ENGINE env, else reference)")


def _overrides(args) -> dict:
    out: dict = {}
    if args.maxline is not None:
        out["maxline"] = args.maxline
    if args.dq_policy is not None:
        out["dq_policy"] = args.dq_policy
    if args.static:
        out["adaptive"] = False
    if args.dynamic:
        out["dynamic"] = True
    if args.capacitor_uf is not None:
        out["capacitance_f"] = args.capacitor_uf * 1e-6
    if args.seed is not None:
        out["trace_seed"] = args.seed
    if getattr(args, "engine", None) is not None:
        out["engine"] = args.engine
    return out


def _run_once(program, design, args):
    system = build_system(program, design, trace=args.trace,
                          **_overrides(args))
    result = system.run()
    if not args.no_verify:
        check_crash_consistency(program, result)
    return system, result


def cmd_run(args) -> int:
    program = build_workload(args.workload, args.scale)
    system, result = _run_once(program, args.design, args)
    print(result.summary())
    print(f"Vbackup {system.v_backup:.3f} V | Von {system.v_on:.3f} V | "
          f"reserve {system.reserve_nj:.0f} nJ")
    print(f"outages {result.outages} | off-time "
          f"{result.off_time_ns / 1e3:.1f} us | "
          f"NVM writes {result.nvm_writes} words | "
          f"energy {result.energy.total_nj / 1e3:.1f} uJ")
    if result.reconfig_count:
        print(f"adaptive: {result.reconfig_count} reconfigs, maxline "
              f"{result.maxline_min}..{result.maxline_max}, accuracy "
              f"{result.prediction_accuracy:.2f}")
    if not args.no_verify:
        print("crash consistency: verified against the failure-free oracle")
    if args.stats_json:
        from repro.analysis.stats_io import save_result
        print(f"stats written to {save_result(result, args.stats_json)}")
    return 0


def cmd_compare(args) -> int:
    program = build_workload(args.workload, args.scale)
    rows = []
    results = {}
    for design in args.designs:
        _, results[design] = _run_once(program, design, args)
    base = results.get(BASELINE_DESIGN) or next(iter(results.values()))
    for design, res in results.items():
        rows.append([design, f"{res.total_time_ns / 1e3:.1f}",
                     res.outages, speedup(base.total_time_ns,
                                          res.total_time_ns)])
    cond = args.trace or "no failure"
    print(f"{args.workload} under {cond} (speedup vs {BASELINE_DESIGN}):")
    print(format_table(["design", "time us", "outages", "speedup"], rows))
    return 0


def cmd_sweep(args) -> int:
    from repro.sim.sweep import run_grid, speedups_vs_baseline

    apps = args.apps or list(ALL_WORKLOADS)
    progress = None
    if not args.quiet:
        def progress(done, total, key):
            print(f"\r[{done}/{total}] {key[0]} / {key[1]}        ",
                  end="", flush=True)
    results = run_grid(apps, args.designs, args.trace, scale=args.scale,
                       verify=not args.no_verify, jobs=args.jobs,
                       progress=progress, **_overrides(args))
    if progress is not None:
        print()
    rows = []
    have_base = any(d == BASELINE_DESIGN for d in args.designs)
    sp = speedups_vs_baseline(results) if have_base else None
    for (wname, design), res in results.items():
        row = [wname, design, f"{res.total_time_ns / 1e3:.1f}", res.outages]
        if sp is not None:
            row.append(f"{sp[(wname, design)]:.3f}")
        rows.append(row)
    headers = ["app", "design", "time us", "outages"]
    if sp is not None:
        headers.append("speedup")
    cond = args.trace or "no failure"
    print(f"sweep under {cond}:")
    print(format_table(headers, rows))
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(headers)
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


def _cache_stats_line(stats: dict) -> str | None:
    """Human-readable record/replay cache summary, or None when idle."""
    recs = stats.get("recordings", 0)
    hits = stats.get("hits", 0) + stats.get("disk_hits", 0)
    if not recs and not hits:
        return None
    parts = [f"recordings={recs}", f"hits={hits}"]
    if stats.get("disk_hits") or stats.get("disk_writes"):
        parts.append(f"disk_hits={stats.get('disk_hits', 0)}")
        parts.append(f"disk_writes={stats.get('disk_writes', 0)}")
    for key in ("lockstep", "solo"):
        if stats.get(key):
            parts.append(f"{key}={stats[key]}")
    return "stream cache: " + " ".join(parts)


def cmd_campaign(args) -> int:
    import os

    from repro.batch.engine import batch_stats
    from repro.mc import (CampaignSpec, merge_campaigns, run_campaign,
                          save_campaign, summarize_campaign, write_report)
    from repro.mc.engine import dict_to_points

    cache_stats: dict | None = None
    if args.from_json:
        import json as _json

        dicts = []
        for path in args.from_json:
            with open(path) as f:
                dicts.append(_json.load(f))
        merged = merge_campaigns(dicts)
        points = dict_to_points(merged)
        cache_stats = merged.get("cache_stats")
        print(f"loaded {len(points)} points from "
              f"{len(args.from_json)} campaign file(s)")
        if cache_stats:
            line = _cache_stats_line(cache_stats)
            if line:
                print(f"{line} (summed over shards)")
    else:
        overrides = {} if args.engine is None else {"engine": args.engine}
        spec = CampaignSpec(
            workloads=tuple(args.apps or ALL_WORKLOADS),
            designs=tuple(args.designs),
            families=tuple(args.families),
            seeds=tuple(range(args.seed_offset,
                              args.seed_offset + args.seeds)),
            scale=args.scale,
            verify=not args.no_verify,
            overrides=overrides)
        progress = None
        if not args.quiet:
            def progress(done, total, key):
                print(f"\r[{done}/{total}] {key[0]} / {key[1]} / "
                      f"{key[2]} #{key[3]}        ", end="", flush=True)
        print(f"campaign: {spec.n_points} points "
              f"({len(spec.workloads)} workloads x {len(spec.designs)} "
              f"designs x {len(spec.families)} families x "
              f"{len(spec.seeds)} seeds)")
        points = run_campaign(spec, jobs=args.jobs, progress=progress)
        if progress is not None:
            print()
        cache_stats = {k: v for k, v in batch_stats().items()
                       if k != "kernels"}
        line = _cache_stats_line(cache_stats)
        if line:
            print(line)
    for target in (args.points_json, args.out):
        out_dir = os.path.dirname(target) if target else ""
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
    if args.points_json:
        path = save_campaign(points, args.points_json,
                             cache_stats=cache_stats)
        print(f"points written to {path}")
    summary = summarize_campaign(points, confidence=args.confidence,
                                 n_boot=args.n_boot,
                                 boot_seed=args.boot_seed)
    for path in write_report(summary, args.out, svg=not args.no_svg):
        print(f"wrote {path}")
    if summary["speedup_aggregate"]:
        rows = [[a["design"], a["family"], a["n"],
                 f"{a['speedup_gmean']:.3f}",
                 f"[{a['ci_lo']:.3f}, {a['ci_hi']:.3f}]"]
                for a in summary["speedup_aggregate"]]
        print(f"gmean speedup vs {summary['baseline']} "
              f"({summary['confidence']:.0%} CI):")
        print(format_table(["design", "family", "n", "gmean", "CI"], rows))
    return 0


def _parse_size(text: str) -> int:
    """``500M``/``2G``/``123456`` -> bytes (K/M/G/T suffixes, base 1024)."""
    raw = text.strip()
    mult = 1
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}
    if raw and raw[-1].upper() in suffixes:
        mult = suffixes[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(f"repro cache: bad size {text!r} "
                         f"(use bytes or K/M/G/T suffix)") from None
    return max(0, int(value * mult))


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (f"{value:.0f} {unit}" if unit == "B"
                    else f"{value:.1f} {unit}")
        value /= 1024
    return f"{n} B"


def cmd_cache(args) -> int:
    import json as _json

    from repro.store import cache_report, clear_store, gc_store, store_root

    root = store_root()
    if args.action == "stats":
        report = cache_report(include_disk=True)
        if args.json:
            print(_json.dumps(report, indent=2, sort_keys=True))
            return 0
        print(f"store root: {root or '(disabled)'}")
        disk = report.get("disk")
        if disk:
            print(f"disk: {disk['files']} entries, "
                  f"{_fmt_bytes(disk['bytes'])}")
            for cls, d in sorted(disk["classes"].items()):
                print(f"  {cls:<8} {d['files']:>6} entries  "
                      f"{_fmt_bytes(d['bytes'])}")
        events = report["events"]
        if events:
            print("events (this process): "
                  + " ".join(f"{k}={v}" for k, v in sorted(events.items())))
        caches = report["process_caches"]
        print("process caches: "
              + " ".join(f"{name}[" + " ".join(
                    f"{k}={v}" for k, v in sorted(stats.items())) + "]"
                    for name, stats in sorted(caches.items())))
        return 0
    if root is None:
        print("repro cache: the store is disabled "
              "(set REPRO_CACHE_DIR to a directory)", file=sys.stderr)
        return 2
    if args.action == "gc":
        report = gc_store(root, _parse_size(args.max_size))
        print(f"gc {root}: removed {report['removed_files']} entries "
              f"({_fmt_bytes(report['removed_bytes'])}), kept "
              f"{_fmt_bytes(report['kept_bytes'])} "
              f"(budget {_fmt_bytes(report['max_bytes'])})")
        return 0
    removed = clear_store(root)
    print(f"cleared {root}: removed {removed} entries")
    return 0


def cmd_plot(args) -> int:
    import os

    from repro.analysis.plot import plot_csv, render_all
    if os.path.isdir(args.csv):
        for out in render_all(args.csv):
            print(f"wrote {out}")
        return 0
    out = plot_csv(args.csv, args.out, kind=args.kind, log_y=args.log_y,
                   max_rows=args.max_rows)
    print(f"wrote {out}")
    return 0


def cmd_lint(args) -> int:
    from repro.lint.runner import (exit_code, filter_errors_only,
                                   format_findings, lint_workloads)

    if args.apps is not None and not args.apps:
        print("repro lint: error: --apps given with no workloads "
              "(omit it to lint the whole suite)", file=sys.stderr)
        return 2
    results = lint_workloads(args.apps, scale=args.scale,
                             intermittent=args.intermittent,
                             budget_cycles=args.budget_cycles)
    shown = filter_errors_only(results) if args.errors_only else results
    print(format_findings(shown, args.format))
    return exit_code(results, errors_only=args.errors_only)


def cmd_audit(args) -> int:
    from repro.lint.codegen_audit import audit_suite
    from repro.lint.findings import format_findings_sarif
    from repro.lint.runner import (EXIT_CLEAN, EXIT_ERRORS,
                                   format_findings_json,
                                   format_findings_text)

    results = audit_suite(designs=args.designs, scale=args.scale)
    if args.format == "json":
        print(format_findings_json(results, names=("units", "unit")))
    elif args.format == "sarif":
        print(format_findings_sarif(results, tool_name="repro-audit"))
    else:
        print(format_findings_text(results, counted="units audited"))
    violations = sum(len(f) for f in results.values())
    return EXIT_ERRORS if violations else EXIT_CLEAN


#: Short design aliases accepted by ``repro trace`` (the full names carry
#: shell-hostile parentheses); exact names from ALL_DESIGNS work too.
DESIGN_ALIASES = {
    "wl": "WL-Cache",
    "wlcache": "WL-Cache",
    "wleager": "WL-Cache(eager)",
    "nvsram": "NVSRAM(ideal)",
    "nvsramfull": "NVSRAM(full)",
    "nvsrampractical": "NVSRAM(practical)",
    "nvcache": "NVCache-WB",
    "vcache": "VCache-WT",
    "replay": "ReplayCache",
    "wtbuffer": "WT+Buffer",
    "nocache": "NoCache",
}


def resolve_design(name: str) -> str:
    """Map a CLI design name or alias to its canonical design name."""
    if name in ALL_DESIGNS:
        return name
    alias = name.lower().replace("-", "").replace("_", "")
    if alias in DESIGN_ALIASES:
        return DESIGN_ALIASES[alias]
    raise SystemExit(
        f"repro trace: unknown design {name!r}; use one of "
        f"{', '.join(sorted(DESIGN_ALIASES))} or an exact design name "
        f"({', '.join(ALL_DESIGNS)})")


def cmd_trace(args) -> int:
    from repro.obs.export import (timeline_summary, write_chrome, write_csv,
                                  write_text)
    from repro.sim.config import SimConfig

    design = resolve_design(args.design)
    overrides = {"trace": True}
    if args.maxline is not None:
        overrides["maxline"] = args.maxline
    if args.seed is not None:
        overrides["trace_seed"] = args.seed
    config = SimConfig(**overrides)
    power = None if args.power_trace == "none" else args.power_trace
    program = build_workload(args.workload, args.scale)
    system = build_system(program, design, trace=power, config=config)
    if not args.detail:
        system._trace_recorder.detail = False
    result = system.run()
    events = system._trace_recorder.events
    meta = {"program": program.name, "design": design,
            "trace": power or "no-failure"}
    write_chrome(events, args.out, meta)
    print(f"wrote {args.out} ({len(events)} events) - load it at "
          f"https://ui.perfetto.dev or chrome://tracing")
    if args.csv:
        write_csv(events, args.csv)
        print(f"wrote {args.csv}")
    if args.text:
        write_text(events, args.text)
        print(f"wrote {args.text}")
    print()
    print(result.summary())
    print()
    print(timeline_summary(events, result.metrics), end="")
    if args.stats_json:
        from repro.analysis.stats_io import save_result
        print(f"stats written to {save_result(result, args.stats_json)}")
    return 0


def cmd_list(args) -> int:
    print("workloads:", ", ".join(ALL_WORKLOADS))
    print("designs:  ", ", ".join(ALL_DESIGNS))
    print("traces:   ", ", ".join(sorted(TRACE_FACTORIES)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="WL-Cache (ISCA'23) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("workload", choices=ALL_WORKLOADS)
    p_run.add_argument("--design", default="WL-Cache", choices=ALL_DESIGNS)
    _add_sim_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare designs on one workload")
    p_cmp.add_argument("workload", choices=ALL_WORKLOADS)
    p_cmp.add_argument("--designs", nargs="+", default=list(DESIGNS),
                       choices=ALL_DESIGNS)
    _add_sim_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="run a workload x design grid (parallelizable)")
    p_sweep.add_argument("--apps", nargs="+", default=None,
                         choices=ALL_WORKLOADS,
                         help="workload subset (default: all 23)")
    p_sweep.add_argument("--designs", nargs="+", default=list(DESIGNS),
                         choices=ALL_DESIGNS)
    p_sweep.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes (default: REPRO_JOBS env, "
                              "else serial)")
    p_sweep.add_argument("--csv", default=None, metavar="PATH",
                         help="write the result table as CSV")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress the progress line")
    _add_engine_arg(p_sweep)
    _add_sim_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_lint = sub.add_parser(
        "lint", help="statically analyze the suite's workload programs")
    p_lint.add_argument("--apps", nargs="*", default=None,
                        choices=ALL_WORKLOADS,
                        help="workload subset (default: all 23)")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    p_lint.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier")
    p_lint.add_argument("--intermittent", action="store_true",
                        help="also run the checkpoint-region "
                             "intermittency rules L009-L014")
    p_lint.add_argument("--budget-cycles", type=int, default=None,
                        metavar="N",
                        help="override the derived capacitor budget "
                             "used by L011 (worst-case cycles)")
    p_lint.add_argument("--errors-only", action="store_true",
                        help="report only error-severity findings; "
                             "warnings no longer drive a non-zero exit")
    p_lint.set_defaults(func=cmd_lint)

    p_audit = sub.add_parser(
        "audit", help="statically audit the generated lockstep engines "
                      "against their structural contracts")
    p_audit.add_argument("--designs", nargs="+", default=None,
                         choices=ALL_DESIGNS,
                         help="design subset (default: the 5 paper "
                              "designs)")
    p_audit.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text", help="report format")
    p_audit.add_argument("--scale", type=float, default=1.0,
                         help="workload size multiplier")
    p_audit.set_defaults(func=cmd_audit)

    p_trace = sub.add_parser(
        "trace", help="record an event trace and export it for Perfetto")
    p_trace.add_argument("workload", choices=ALL_WORKLOADS)
    p_trace.add_argument("design",
                         help="design name or alias (e.g. wl, nvsram)")
    p_trace.add_argument("power_trace", metavar="trace",
                         choices=sorted(TRACE_FACTORIES) + ["none"],
                         help="power trace ('none' for a failure-free run)")
    p_trace.add_argument("--out", default="trace.json", metavar="PATH",
                         help="Chrome/Perfetto trace output (default: "
                              "trace.json)")
    p_trace.add_argument("--csv", default=None, metavar="PATH",
                         help="also write the events as CSV")
    p_trace.add_argument("--text", default=None, metavar="PATH",
                         help="also write the golden one-line-per-event form")
    p_trace.add_argument("--scale", type=float, default=1.0,
                         help="workload size multiplier")
    p_trace.add_argument("--maxline", type=int, default=None)
    p_trace.add_argument("--seed", type=int, default=None, help="trace seed")
    p_trace.add_argument("--no-detail", dest="detail", action="store_false",
                         help="omit per-access hit events (long runs)")
    p_trace.add_argument("--stats-json", default=None, metavar="PATH",
                         help="dump run statistics (incl. metrics) as JSON")
    p_trace.set_defaults(func=cmd_trace)

    p_mc = sub.add_parser(
        "campaign",
        help="Monte-Carlo outage campaign over stochastic trace ensembles")
    p_mc.add_argument("--apps", nargs="+", default=None,
                      choices=ALL_WORKLOADS,
                      help="workload subset (default: all 23)")
    p_mc.add_argument("--designs", nargs="+",
                      default=["WL-Cache", BASELINE_DESIGN],
                      choices=ALL_DESIGNS)
    p_mc.add_argument("--families", nargs="+",
                      default=["mc-rf-home", "mc-rf-office"],
                      help="stochastic trace families (mc-*, any "
                           "registered trace, or csv:<recording.csv>)")
    p_mc.add_argument("--seeds", type=int, default=8, metavar="N",
                      help="trace seeds per family (default: 8)")
    p_mc.add_argument("--seed-offset", type=int, default=0, metavar="K",
                      help="first seed (shard a big campaign across "
                           "machines, then --from-json merge)")
    p_mc.add_argument("--jobs", "-j", type=int, default=None,
                      help="worker processes (default: REPRO_JOBS env, "
                           "else serial)")
    p_mc.add_argument("--scale", type=float, default=1.0,
                      help="workload size multiplier")
    _add_engine_arg(p_mc)
    p_mc.add_argument("--no-verify", action="store_true",
                      help="skip per-point crash-consistency checks")
    p_mc.add_argument("--out", default="results/campaign", metavar="PREFIX",
                      help="output prefix for _summary.json/_summary.csv/"
                           "_speedup.svg/_survival.svg "
                           "(default: results/campaign)")
    p_mc.add_argument("--points-json", default=None, metavar="PATH",
                      help="also persist the raw per-point results")
    p_mc.add_argument("--from-json", nargs="+", default=None, metavar="PATH",
                      help="skip running: merge these campaign JSONs "
                           "losslessly and summarize the union")
    p_mc.add_argument("--confidence", type=float, default=0.95)
    p_mc.add_argument("--n-boot", type=int, default=1000,
                      help="bootstrap resamples per interval")
    p_mc.add_argument("--boot-seed", type=int, default=2023,
                      help="bootstrap RNG seed (summaries are "
                           "deterministic per seed)")
    p_mc.add_argument("--no-svg", action="store_true",
                      help="write only JSON/CSV")
    p_mc.add_argument("--quiet", action="store_true",
                      help="suppress the progress line")
    p_mc.set_defaults(func=cmd_campaign)

    p_cache = sub.add_parser(
        "cache",
        help="inspect/maintain the persistent artifact store "
             "(REPRO_CACHE_DIR)")
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    p_cstats = cache_sub.add_parser(
        "stats", help="disk usage per artifact class + process counters")
    p_cstats.add_argument("--json", action="store_true",
                          help="machine-readable report")
    p_cgc = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries to a byte budget")
    p_cgc.add_argument("--max-size", required=True, metavar="SIZE",
                       help="target size, e.g. 500M, 2G, or plain bytes")
    cache_sub.add_parser("clear", help="remove every store entry")
    p_cache.set_defaults(func=cmd_cache)

    p_plot = sub.add_parser("plot", help="render a bench CSV to SVG")
    p_plot.add_argument("csv", help="a bench CSV, or a results directory to render everything")
    p_plot.add_argument("--out", default=None)
    p_plot.add_argument("--kind", choices=("bar", "line"), default="bar")
    p_plot.add_argument("--log-y", action="store_true")
    p_plot.add_argument("--max-rows", type=int, default=None)
    p_plot.set_defaults(func=cmd_plot)

    p_list = sub.add_parser("list", help="list workloads/designs/traces")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
