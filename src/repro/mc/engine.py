"""Campaign runner: shard (workload x design x family x seed) points.

A campaign point is an ordinary sweep task whose power condition is a
stochastic family member: the task carries ``trace=family`` and
``overrides["trace_seed"]=seed``, so the sweep driver
(:func:`repro.sim.parallel.run_tasks`) runs it like any other point -
serially or on the process pool, on either engine. The fast engine
(:mod:`repro.batch`) is what makes per-seed cost cheap: the
architectural stream depends only on the kernel, so one recording
serves *every* seed and design in the group, and only the trace-driven
outage/timing replay differs per point.

The driver keys results by caller-supplied point keys; a campaign has
many points per ``(workload, design)`` pair, so it keys every result by
the full ``(workload, design, family, seed)`` :data:`PointKey`. Results
are bit-identical across serial, parallel, and fast-engine execution and
independent of shard order and worker count - the campaign tests
enforce both.

Campaigns persist as JSON (:func:`save_campaign` /
:func:`load_campaign`) holding per-point stats dicts
(:func:`repro.analysis.stats_io.result_to_dict` shape), and partial
campaigns merge losslessly (:func:`merge_campaigns`) - resumed or
sharded-across-machines campaigns summarize identically to a single
run.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sim.config import SimConfig
from repro.sim.factory import validate_design
from repro.sim.parallel import SweepTask, resolve_jobs, run_tasks
from repro.sim.results import RunResult

#: (workload, design, family, seed) - the identity of one campaign point.
PointKey = tuple[str, str, str, int]

#: ``progress(done, total, key)`` with the full point key.
CampaignProgressFn = Callable[[int, int, PointKey], None]

_CAMPAIGN_FORMAT = 1


@dataclass(frozen=True)
class CampaignSpec:
    """The full cross product a campaign runs.

    ``families`` are stochastic trace family names (``mc-*``,
    ``csv:<path>``, or any registered family - the deterministic named
    sources work too, they just collapse the seed axis to identical
    conditions). ``seeds`` feed ``SimConfig.trace_seed`` per point.
    """

    workloads: tuple[str, ...]
    designs: tuple[str, ...]
    families: tuple[str, ...] = ("mc-rf-home", "mc-rf-office")
    seeds: tuple[int, ...] = tuple(range(8))
    scale: float = 1.0
    verify: bool = True
    config: SimConfig | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis, values in (("workloads", self.workloads),
                             ("designs", self.designs),
                             ("families", self.families),
                             ("seeds", self.seeds)):
            if not values:
                raise ConfigError(f"campaign {axis} must be non-empty")
        if "trace_seed" in self.overrides:
            raise ConfigError(
                "campaign overrides may not set trace_seed - the seed "
                "axis owns it")

    @property
    def n_points(self) -> int:
        return (len(self.workloads) * len(self.designs)
                * len(self.families) * len(self.seeds))


def expand_campaign(spec: CampaignSpec) -> list[tuple[PointKey, SweepTask]]:
    """Expand a spec into ``(key, task)`` pairs, workload-major.

    Workload-major ordering keeps every point sharing a kernel
    contiguous: one block, which a pool deals round-robin into chunks
    that each carry the same design x family x seed mix
    (:func:`repro.sim.parallel._chunked`).
    """
    from repro.energy.synthetic import make_trace
    from repro.workloads import get_workload

    for d in spec.designs:
        validate_design(d)
    for fam in spec.families:
        make_trace(fam, int(spec.seeds[0]))  # fail fast on unknown families
    pairs: list[tuple[PointKey, SweepTask]] = []
    for wname in spec.workloads:
        get_workload(wname)  # fail fast on unknown names
        for design in spec.designs:
            for fam in spec.families:
                for seed in spec.seeds:
                    overrides = dict(spec.overrides)
                    overrides["trace_seed"] = int(seed)
                    key = (wname, design, fam, int(seed))
                    pairs.append((key, SweepTask(
                        wname, design, fam, spec.scale, spec.verify,
                        spec.config, overrides)))
    return pairs


def run_campaign_tasks(pairs: list[tuple[PointKey, SweepTask]],
                       jobs: int | None = None,
                       progress: CampaignProgressFn | None = None
                       ) -> dict[PointKey, RunResult]:
    """Run expanded campaign points; results keyed by point, task order.

    One :func:`repro.sim.parallel.run_tasks` call keyed by the full
    :data:`PointKey`, so seeds of one ``(workload, design)`` pair don't
    collide and a pool's :class:`~repro.errors.SweepError` names the
    failing points. Serial unless ``jobs`` or ``REPRO_JOBS`` says
    otherwise.
    """
    return run_tasks([task for _, task in pairs],
                     jobs=resolve_jobs(jobs, fallback=1), progress=progress,
                     keys=[key for key, _ in pairs])


def run_campaign(spec: CampaignSpec, jobs: int | None = None,
                 progress: CampaignProgressFn | None = None
                 ) -> dict[PointKey, RunResult]:
    """Expand and run a campaign; returns ``{point key: RunResult}``."""
    return run_campaign_tasks(expand_campaign(spec), jobs=jobs,
                              progress=progress)


# ---------------------------------------------------------------------------
# persistence + lossless merge
# ---------------------------------------------------------------------------


def campaign_to_dict(points: dict[PointKey, RunResult],
                     include_periods: bool = False,
                     cache_stats: dict | None = None) -> dict:
    """JSON-able campaign: sorted point entries of stats dicts.

    ``cache_stats`` optionally embeds the shard's record/replay cache
    counters (:func:`repro.batch.engine.batch_stats` event keys), so a
    merge of shard files can report how many guest-stream recordings
    the whole campaign actually paid for versus served from cache.
    """
    from repro.analysis.stats_io import result_to_dict

    entries = []
    for key in sorted(points):
        wname, design, family, seed = key
        entries.append({
            "workload": wname, "design": design, "family": family,
            "seed": seed,
            "result": result_to_dict(points[key], include_periods),
        })
    out = {"format_version": _CAMPAIGN_FORMAT, "points": entries}
    if cache_stats:
        out["cache_stats"] = {k: int(v) for k, v in
                              sorted(cache_stats.items()) if v}
    return out


def dict_to_points(data: dict) -> dict[PointKey, RunResult]:
    """Rebuild stats-only results from a campaign dict."""
    from repro.analysis.stats_io import result_from_dict

    if data.get("format_version") != _CAMPAIGN_FORMAT:
        raise ConfigError(
            f"unsupported campaign format {data.get('format_version')!r}")
    points: dict[PointKey, RunResult] = {}
    for entry in data["points"]:
        key = (entry["workload"], entry["design"], entry["family"],
               int(entry["seed"]))
        points[key] = result_from_dict(entry["result"])
    return points


def save_campaign(points: dict[PointKey, RunResult], path: str,
                  include_periods: bool = False,
                  cache_stats: dict | None = None) -> str:
    """Write campaign points as JSON; returns the path."""
    with open(path, "w") as f:
        json.dump(campaign_to_dict(points, include_periods, cache_stats),
                  f, indent=1)
    return path


def load_campaign(path: str) -> dict[PointKey, RunResult]:
    with open(path) as f:
        return dict_to_points(json.load(f))


def merge_campaigns(dicts: Iterable[dict]) -> dict:
    """Losslessly merge campaign dicts (resumed/partial shards).

    Points are unioned by key. A key appearing in several shards must
    carry an identical result payload - the simulator is deterministic
    per point, so a mismatch means the shards were produced by
    different code or configs, and silently picking one would poison
    the statistics; that raises :class:`~repro.errors.ConfigError`,
    exactly like :func:`repro.obs.metrics.merge_metrics` refuses
    incompatible histograms.
    """
    merged: dict[PointKey, dict] = {}
    cache_stats: dict[str, int] = {}
    for data in dicts:
        if data.get("format_version") != _CAMPAIGN_FORMAT:
            raise ConfigError(
                f"unsupported campaign format "
                f"{data.get('format_version')!r}")
        for entry in data["points"]:
            key = (entry["workload"], entry["design"], entry["family"],
                   int(entry["seed"]))
            prev = merged.get(key)
            if prev is None:
                merged[key] = entry
            elif prev["result"] != entry["result"]:
                raise ConfigError(
                    f"cannot merge campaigns: point {key} has two "
                    f"different results (shards from different code or "
                    f"configs?)")
        for k, v in data.get("cache_stats", {}).items():
            cache_stats[k] = cache_stats.get(k, 0) + int(v)
    out = {"format_version": _CAMPAIGN_FORMAT,
           "points": [merged[key] for key in sorted(merged)]}
    if cache_stats:
        # shard counters sum: events, not gauges, so addition is exact
        out["cache_stats"] = dict(sorted(cache_stats.items()))
    return out
