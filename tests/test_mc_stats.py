"""Campaign statistics: quantiles, bootstrap CIs, survival, golden summary.

Three layers: analytic self-tests (the bootstrap interval must agree
with the classical standard-error interval on a well-behaved sample,
tails must order correctly); an oracle - the bulk index draw and the
bootstrap built on it must equal the per-draw ``randrange`` loop
(:func:`_reference_bootstrap_ci`) exactly, compared on the running
interpreter, since a float golden at n >= 8 could differ across
CPython's ``sum``; and a fixed-seed golden - the full summary JSON
of a tiny campaign is byte-pinned, so any drift in the simulator, the
trace ensembles, the point keying, or the statistics shows up as a
diff, not as a silently shifted confidence interval.
"""

import json
import math
import os
import random
import zlib

import pytest

from repro.errors import ConfigError
from repro.mc import (CampaignSpec, bootstrap_ci, gmean, quantile,
                      run_campaign, summarize_campaign, survival_curve)
from repro.mc import stats as mc_stats
from repro.mc.stats import _draw_indices, _exp_mean, mean, progress_rate
from repro.sim.config import BASELINE_DESIGN
from repro.sim.results import RunResult

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "mc_campaign_summary.json")

GOLDEN_SPEC = CampaignSpec(
    workloads=("sha",),
    designs=("WL-Cache", "NVSRAM(ideal)"),
    families=("mc-rf-home",),
    seeds=(0, 1, 2),
    scale=0.1,
)


class TestQuantile:
    def test_known_values(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert quantile(xs, 0.0) == 1.0
        assert quantile(xs, 1.0) == 4.0
        assert quantile(xs, 0.5) == 2.5
        assert quantile(xs, 0.25) == 1.75

    def test_order_invariant(self):
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_single_value(self):
        assert quantile([7.0], 0.99) == 7.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            quantile([], 0.5)
        with pytest.raises(ConfigError):
            quantile([1.0], 1.5)


class TestGmean:
    def test_known(self):
        assert gmean([2.0, 8.0]) == pytest.approx(4.0)
        assert gmean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            gmean([1.0, 0.0])
        with pytest.raises(ConfigError):
            gmean([])


class TestSurvival:
    def test_curve_shape(self):
        curve = survival_curve([0, 0, 1, 2, 2, 5])
        assert curve[0] == [0.0, 1.0]          # S(0) is always 1
        assert [2.0, 0.5] in curve             # 3 of 6 runs had >= 2
        assert curve[-1] == [5.0, 1.0 / 6.0]
        ks = [k for k, _ in curve]
        ss = [s for _, s in curve]
        assert ks == sorted(ks)
        assert ss == sorted(ss, reverse=True)  # monotone non-increasing

    def test_all_zero(self):
        assert survival_curve([0, 0, 0]) == [[0.0, 1.0]]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            survival_curve([])


class TestBootstrap:
    def test_deterministic_per_seed(self):
        xs = [float(i) for i in range(40)]
        assert bootstrap_ci(xs, seed=3) == bootstrap_ci(xs, seed=3)
        assert bootstrap_ci(xs, seed=3) != bootstrap_ci(xs, seed=4)

    def test_degenerate_inputs(self):
        assert bootstrap_ci([5.0]) == (5.0, 5.0)
        lo, hi = bootstrap_ci([2.0] * 10)
        assert lo == hi == 2.0

    def test_matches_analytic_interval(self):
        """On a smooth sample the percentile bootstrap must agree with
        the classical normal-theory CI: same center, width within 25%.
        This is the self-test that the resampling machinery estimates a
        *standard error*, not an arbitrary spread."""
        # deterministic near-uniform sample on [0, 1)
        xs = [(i + 0.5) / 200 for i in range(200)]
        mu = mean(xs)
        sd = math.sqrt(sum((x - mu) ** 2 for x in xs) / (len(xs) - 1))
        se = sd / math.sqrt(len(xs))
        lo, hi = bootstrap_ci(xs, confidence=0.95, n_boot=2000, seed=1)
        assert lo < mu < hi
        assert (lo + hi) / 2 == pytest.approx(mu, abs=0.5 * se)
        width = hi - lo
        analytic = 2 * 1.959964 * se
        assert width == pytest.approx(analytic, rel=0.25)

    def test_confidence_ordering(self):
        xs = [float(i % 17) for i in range(60)]
        lo99, hi99 = bootstrap_ci(xs, confidence=0.99, n_boot=1500, seed=2)
        lo80, hi80 = bootstrap_ci(xs, confidence=0.80, n_boot=1500, seed=2)
        assert lo99 <= lo80 and hi80 <= hi99

    def test_custom_statistic(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        lo, hi = bootstrap_ci(xs, n_boot=500, seed=5, statistic=gmean)
        assert min(xs) <= lo <= hi <= max(xs)

    def test_validation(self):
        with pytest.raises(ConfigError):
            bootstrap_ci([])
        with pytest.raises(ConfigError):
            bootstrap_ci([1.0, 2.0], confidence=1.0)


def _reference_bootstrap_ci(values, confidence: float = 0.95,
                            n_boot: int = 1000, seed: int = 0,
                            statistic=None) -> tuple[float, float]:
    """The per-draw bootstrap loop ``bootstrap_ci`` replaced: the oracle
    its bulk draw must reproduce exactly."""
    xs = list(values)
    if not xs:
        raise ConfigError("bootstrap of no values")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence!r}")
    stat = mean if statistic is None else statistic
    if len(xs) == 1:
        v = float(stat(xs))
        return (v, v)
    rng = random.Random(seed)
    n = len(xs)
    stats = sorted(stat([xs[rng.randrange(n)] for _ in range(n)])
                   for _ in range(n_boot))
    alpha = (1.0 - confidence) / 2.0
    return (quantile(stats, alpha), quantile(stats, 1.0 - alpha))


def _sorting_median(xs: list[float]) -> float:
    """A statistic that sorts its argument in place."""
    xs.sort()
    return xs[len(xs) // 2]


#: range sizes past 1..300: powers of two and their neighbours, where
#: the rejection rate jumps, up to the largest one-word draw
EDGE_SIZES = (1000, 4096, 65535, 65536, 65537, 2**24 + 1, 2**31 - 1,
              2**31, 2**32 - 1)


def _positive_sample(n: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(0.25, 4.0) for _ in range(n)]


class TestDrawIndices:
    @pytest.mark.parametrize("seed", [0, 2023, 2**40 + 7])
    def test_equals_per_draw_randrange(self, seed):
        for n in (*range(1, 301), *EDGE_SIZES):
            for count in (0, 1, 257):
                ref = random.Random(seed)
                expect = [ref.randrange(n) for _ in range(count)]
                assert _draw_indices(random.Random(seed), n, count) \
                    == expect, (n, count)


class TestBootstrapOracle:
    @pytest.mark.parametrize("statistic", [mean, gmean, _sorting_median],
                             ids=["mean", "gmean", "sorting"])
    @pytest.mark.parametrize("n", [2, 3, 8, 32, 257])
    def test_equals_per_draw_loop(self, statistic, n):
        xs = _positive_sample(n, seed=n)
        for n_boot in (1, 7, 1000):
            assert bootstrap_ci(xs, n_boot=n_boot, seed=n_boot,
                                statistic=statistic) \
                == _reference_bootstrap_ci(xs, n_boot=n_boot, seed=n_boot,
                                           statistic=statistic), n_boot

    @pytest.mark.parametrize("n", [2, 8, 32, 257])
    def test_mean_by_default_name_or_wrapper(self, n):
        """The default statistic and ``mean`` passed by name sum each
        resample without a list; a wrapper around ``mean`` gets a list
        per resample. All three equal the per-draw loop."""
        xs = _positive_sample(n, seed=n)
        ref = _reference_bootstrap_ci(xs, seed=n, statistic=mean)
        for statistic in (None, mean, lambda ys: mean(ys)):
            assert bootstrap_ci(xs, seed=n, statistic=statistic) == ref

    def test_no_resamples_rejected_alike(self):
        for boot in (bootstrap_ci, _reference_bootstrap_ci):
            with pytest.raises(ConfigError, match="quantile of no values"):
                boot([1.0, 2.0, 3.0], n_boot=0)

    @pytest.mark.parametrize("n", [2, 8, 32, 257])
    def test_log_space_gmean(self, n):
        """Bootstrapping the logs with ``_exp_mean`` - the campaign
        aggregate's form - is bootstrapping the values with ``gmean``.
        ``_exp_mean`` by name sums each resample without a list; a
        wrapper around it gets a list per resample. Both equal the
        per-draw loop."""
        for seed in range(4):
            sp = _positive_sample(n, seed=100 * n + seed)
            logs = [math.log(x) for x in sp]
            ref = _reference_bootstrap_ci(sp, seed=seed, statistic=gmean)
            for statistic in (_exp_mean, lambda ys: _exp_mean(ys)):
                assert bootstrap_ci(logs, seed=seed,
                                    statistic=statistic) == ref
            assert _exp_mean(logs) == gmean(sp)

    def test_summary_equals_per_draw_summary(self, monkeypatch):
        """A 4 x 5 x 2 x 8 campaign of stats-only results - 8-value
        groups and 32-value aggregates, sizes the golden's 3-seed
        campaign never reaches."""
        rng = random.Random(7)
        designs = (BASELINE_DESIGN, "WL-Cache", "VCache-WT", "ReplayCache",
                   "NVCache-WB")
        points = {}
        for w in ("w0", "w1", "w2", "w3"):
            for d in designs:
                for fam in ("fam-a", "fam-b"):
                    for seed in range(8):
                        points[(w, d, fam, seed)] = RunResult(
                            w, d, fam,
                            total_time_ns=rng.randrange(10**5, 10**7),
                            instructions=rng.randrange(10**4, 10**6),
                            outages=rng.randrange(0, 40))
        bulk = summarize_campaign(points)
        assert len(bulk["speedup_aggregate"]) == 8
        for agg in bulk["speedup_aggregate"]:
            # the aggregate as first defined: gmean over the speedup
            # values themselves, workload-major then seed order
            d, fam = agg["design"], agg["family"]
            sp = [points[(w, BASELINE_DESIGN, fam, seed)].total_time_ns
                  / points[(w, d, fam, seed)].total_time_ns
                  for w in ("w0", "w1", "w2", "w3") for seed in range(8)]
            seed = 2023 ^ zlib.crc32(f"{d}/{fam}/agg".encode())
            assert (agg["ci_lo"], agg["ci_hi"]) == _reference_bootstrap_ci(
                sp, seed=seed, statistic=gmean)
        monkeypatch.setattr(mc_stats, "bootstrap_ci",
                            _reference_bootstrap_ci)
        assert json.dumps(bulk, sort_keys=True) \
            == json.dumps(summarize_campaign(points), sort_keys=True)


class TestSummarize:
    @pytest.fixture(scope="class")
    def points(self):
        return run_campaign(GOLDEN_SPEC, jobs=1)

    def test_structure(self, points):
        s = summarize_campaign(points, n_boot=200)
        assert s["n_points"] == 6
        assert s["workloads"] == ["sha"]
        assert s["designs"] == ["NVSRAM(ideal)", "WL-Cache"]
        assert len(s["groups"]) == 2
        for g in s["groups"]:
            pr = g["progress_rate"]
            assert pr["n"] == 3
            assert pr["ci_lo"] <= pr["mean"] <= pr["ci_hi"]
            assert pr["min"] <= pr["p50"] <= pr["p95"] <= pr["p99"] \
                <= pr["max"]
            assert g["outages"]["survival"][0] == [0.0, 1.0]
        wl = next(g for g in s["groups"] if g["design"] == "WL-Cache")
        assert "speedup" in wl                  # baseline present
        base = next(g for g in s["groups"]
                    if g["design"] == "NVSRAM(ideal)")
        assert "speedup" not in base            # never vs itself
        assert s["speedup_aggregate"][0]["design"] == "WL-Cache"

    def test_progress_rate_definition(self, points):
        key = next(iter(points))
        res = points[key]
        assert progress_rate(res) == pytest.approx(
            res.instructions / res.total_time_ns * 1e3)

    def test_boot_seed_changes_only_intervals(self, points):
        a = summarize_campaign(points, n_boot=200, boot_seed=1)
        b = summarize_campaign(points, n_boot=200, boot_seed=2)
        ga, gb = a["groups"][0], b["groups"][0]
        assert ga["progress_rate"]["mean"] == gb["progress_rate"]["mean"]
        assert ga["progress_rate"]["p95"] == gb["progress_rate"]["p95"]
        assert (ga["progress_rate"]["ci_lo"], ga["progress_rate"]["ci_hi"]) \
            != (gb["progress_rate"]["ci_lo"], gb["progress_rate"]["ci_hi"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize_campaign({})

    def test_golden_summary_exact(self, points, update_goldens):
        """The end-to-end statistical pipeline is byte-pinned: a fixed
        seed campaign's summary JSON must match the golden exactly.
        Regenerate with ``pytest --update-goldens`` after intentional
        changes."""
        summary = summarize_campaign(points, n_boot=300, boot_seed=2023)
        text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
        if update_goldens:
            os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
            with open(GOLDEN, "w") as f:
                f.write(text)
            pytest.skip("golden rewritten")
        with open(GOLDEN) as f:
            assert text == f.read()
