"""Campaign statistics: bootstrap CIs, tail quantiles, outage survival.

Everything here is deterministic: quantiles interpolate linearly on
sorted values, the bootstrap is seeded (``random.Random``), and group
values are always consumed in sorted point-key order - so a campaign
summary is bit-identical whatever engine, shard order, or worker count
produced the points, and a fixed-seed campaign summary can be
golden-tested exactly. The bootstrap reads its resample indices from
the Mersenne Twister stream in bulk (:func:`_draw_indices`), drawing
exactly the indices per-draw ``randrange`` would on every supported
CPython, pinned by ``tests/test_mc_stats.py``.

Metrics:

* **forward progress** - instructions retired per nanosecond of wall
  clock (outage charging included), the rate the paper's fig05/06
  normalized-runtime comparisons reduce to;
* **speedup** - per-(workload, family, seed) runtime ratio against the
  baseline design, when the campaign includes it;
* **outage survival** - for each group, ``S(k)`` = fraction of runs
  that experienced at least ``k`` outages, the distributional view of
  the paper's single outage counts.
"""

from __future__ import annotations

import bisect
import math
import random
import sys
import zlib
from array import array
from itertools import repeat
from operator import truediv

from repro.errors import ConfigError
from repro.sim.config import BASELINE_DESIGN
from repro.sim.results import RunResult

_SUMMARY_FORMAT = 1

#: ``randbytes`` is little-endian; ``array("I")`` (4-byte items on every
#: CPython platform) reads host order
_BIG_ENDIAN = sys.byteorder == "big"


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of ``values`` (q in [0, 1])."""
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"quantile q must be in [0, 1], got {q!r}")
    xs = sorted(values)
    if not xs:
        raise ConfigError("quantile of no values")
    if len(xs) == 1:
        return float(xs[0])
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def mean(values) -> float:
    xs = list(values)
    if not xs:
        raise ConfigError("mean of no values")
    return sum(xs) / len(xs)


def gmean(values) -> float:
    """Geometric mean (speedup aggregation, like the benches)."""
    xs = list(values)
    if not xs:
        raise ConfigError("gmean of no values")
    if any(x <= 0 for x in xs):
        raise ConfigError("gmean needs positive values")
    return _exp_mean([math.log(x) for x in xs])


def _exp_mean(logs: list[float]) -> float:
    """``gmean`` of the values whose logs are ``logs`` - the one
    definition of its arithmetic, so bootstrapping the logs reproduces
    bootstrapping the values with ``gmean`` exactly."""
    return math.exp(sum(logs) / len(logs))


def _draw_indices(rng: random.Random, n: int, count: int) -> list[int]:
    """``[rng.randrange(n) for _ in range(count)]`` for ``1 <= n < 2**32``,
    read from the Mersenne Twister stream in bulk.

    Each ``randrange(n)`` attempt takes one 32-bit word, keeps its top
    ``n.bit_length()`` bits and rejects values ``>= n``;
    ``randbytes(4 * m)`` hands out the next ``m`` words little-endian.
    So keeping the in-range shifted words reproduces the draws. Words
    read past the last kept one are lost to later draws from ``rng``.
    For ``n < 256`` the kept bits all lie in each word's top byte, every
    fourth byte of the read, so one ``bytes.translate`` shifts them and
    drops the rejected ones.
    """
    k = n.bit_length()
    shift = 32 - k
    if k <= 8:
        table = bytes(b >> (8 - k) for b in range(256))
        reject = bytes(b for b in range(256) if table[b] >= n)
    out: list[int] = []
    while len(out) < count:
        # expected words for the rest, plus a margin against a re-read
        m = ((count - len(out)) << k) // n + 16
        if k <= 8:
            out += rng.randbytes(4 * m)[3::4].translate(table, reject)
        else:
            words = array("I", rng.randbytes(4 * m))
            if _BIG_ENDIAN:
                words.byteswap()
            out += [r for w in words if (r := w >> shift) < n]
    del out[count:]
    return out


def bootstrap_ci(values, confidence: float = 0.95, n_boot: int = 1000,
                 seed: int = 0, statistic=None) -> tuple[float, float]:
    """Seeded percentile-bootstrap CI for ``statistic`` (default mean).

    Resamples ``values`` with replacement ``n_boot`` times and returns
    the ``(1 - confidence) / 2`` and ``1 - (1 - confidence) / 2``
    quantiles of the resampled statistics. Deterministic in
    ``(values order, n_boot, seed)``. A single value yields a
    degenerate interval at that value.
    """
    xs = list(values)
    if not xs:
        raise ConfigError("bootstrap of no values")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence!r}")
    stat = mean if statistic is None else statistic
    if len(xs) == 1:
        v = float(stat(xs))
        return (v, v)
    n = len(xs)
    draws = map(xs.__getitem__,
                _draw_indices(random.Random(seed), n, n * n_boot))
    # n consecutive draws make one resample, in draw order
    rows = zip(*[draws] * n)
    if stat is mean:
        # mean's own arithmetic, without a list per resample
        stats = sorted(map(truediv, map(sum, rows), repeat(n)))
    elif stat is _exp_mean:
        # _exp_mean's own arithmetic, likewise
        stats = sorted(map(math.exp,
                           map(truediv, map(sum, rows), repeat(n))))
    else:
        stats = sorted(map(stat, map(list, rows)))
    alpha = (1.0 - confidence) / 2.0
    return (quantile(stats, alpha), quantile(stats, 1.0 - alpha))


def survival_curve(values) -> list[list[float]]:
    """``[[k, S(k)], ...]`` with ``S(k)`` = fraction of values >= k.

    Thresholds are the distinct observed values plus 0, ascending -
    ``S(0)`` is always 1.0 and the curve steps down to the max.
    """
    xs = sorted(values)
    if not xs:
        raise ConfigError("survival curve of no values")
    n = len(xs)
    thresholds = sorted({0, *xs})
    curve = []
    for k in thresholds:
        at_least = n - bisect.bisect_left(xs, k)
        curve.append([float(k), at_least / n])
    return curve


def progress_rate(res: RunResult) -> float:
    """Forward progress: instructions per ns of wall clock (with
    charging time), scaled to instructions/us for readable magnitudes."""
    if res.total_time_ns <= 0:
        return 0.0
    return res.instructions / res.total_time_ns * 1e3


def _dist(values, confidence: float, n_boot: int, seed: int) -> dict:
    """The per-metric summary block: mean + CI + tail quantiles."""
    lo, hi = bootstrap_ci(values, confidence, n_boot, seed)
    return {
        "n": len(values),
        "mean": mean(values),
        "ci_lo": lo,
        "ci_hi": hi,
        "p50": quantile(values, 0.50),
        "p95": quantile(values, 0.95),
        "p99": quantile(values, 0.99),
        "min": float(min(values)),
        "max": float(max(values)),
    }


def summarize_campaign(points: dict, baseline: str = BASELINE_DESIGN,
                       confidence: float = 0.95, n_boot: int = 1000,
                       boot_seed: int = 2023) -> dict:
    """Distill campaign points into a deterministic summary dict.

    ``points`` maps ``(workload, design, family, seed)`` to
    :class:`RunResult` (full or stats-only - only reportable scalars
    are consumed). Groups are ``(workload, design, family)`` with the
    seed axis as the sample; the ``speedup`` block appears when the
    group's ``(workload, family)`` also ran the ``baseline`` design.
    Per-group bootstrap seeds derive deterministically from
    ``boot_seed`` and the group identity, so a merged campaign
    summarizes identically to a single-run one.
    """
    if not points:
        raise ConfigError("cannot summarize an empty campaign")
    keys = sorted(points)
    workloads = sorted({k[0] for k in keys})
    designs = sorted({k[1] for k in keys})
    families = sorted({k[2] for k in keys})
    seeds = sorted({k[3] for k in keys})

    groups: dict[tuple[str, str, str], list[tuple[int, RunResult]]] = {}
    for key in keys:
        groups.setdefault((key[0], key[1], key[2]), []).append(
            (key[3], points[key]))

    def group_seed(*ident) -> int:
        return boot_seed ^ zlib.crc32("/".join(str(x) for x in ident)
                                      .encode())

    out_groups = []
    # (design, family) -> per-(workload, seed) speedups, sorted order
    agg_speedups: dict[tuple[str, str], list[float]] = {}
    for (wname, design, family), members in sorted(groups.items()):
        members.sort()
        rates = [progress_rate(res) for _, res in members]
        times = [float(res.total_time_ns) for _, res in members]
        outages = [res.outages for _, res in members]
        block = {
            "workload": wname,
            "design": design,
            "family": family,
            "progress_rate": _dist(rates, confidence, n_boot,
                                   group_seed(wname, design, family, "pr")),
            "total_time_ns": _dist(times, confidence, n_boot,
                                   group_seed(wname, design, family, "t")),
            "outages": {
                "mean": mean(outages),
                "p95": quantile(outages, 0.95),
                "p99": quantile(outages, 0.99),
                "max": float(max(outages)),
                "survival": survival_curve(outages),
            },
        }
        if design != baseline:
            speedups = []
            for seed, res in members:
                base = points.get((wname, baseline, family, seed))
                if base is None or res.total_time_ns <= 0:
                    speedups = []
                    break
                speedups.append(base.total_time_ns / res.total_time_ns)
            if speedups:
                block["speedup"] = _dist(
                    speedups, confidence, n_boot,
                    group_seed(wname, design, family, "sp"))
                agg_speedups.setdefault((design, family),
                                        []).extend(speedups)
        out_groups.append(block)

    agg = []
    for (design, family), sp in sorted(agg_speedups.items()):
        speedup_gmean = gmean(sp)  # checks positivity before the logs
        # bootstrapping the logs with _exp_mean is bootstrapping sp with
        # gmean, with each log taken once instead of once per resample
        lo, hi = bootstrap_ci([math.log(x) for x in sp], confidence,
                              n_boot, group_seed(design, family, "agg"),
                              statistic=_exp_mean)
        agg.append({
            "design": design,
            "family": family,
            "n": len(sp),
            "speedup_gmean": speedup_gmean,
            "ci_lo": lo,
            "ci_hi": hi,
            "p5": quantile(sp, 0.05),
            "p95": quantile(sp, 0.95),
        })

    return {
        "format_version": _SUMMARY_FORMAT,
        "baseline": baseline,
        "confidence": confidence,
        "n_boot": n_boot,
        "boot_seed": boot_seed,
        "n_points": len(keys),
        "workloads": workloads,
        "designs": designs,
        "families": families,
        "seeds": seeds,
        "groups": out_groups,
        "speedup_aggregate": agg,
    }
