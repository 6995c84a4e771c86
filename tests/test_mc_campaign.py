"""Monte-Carlo campaign engine: determinism, sharding, lossless merge.

The statistical layer is only as good as the points feeding it, so the
load-bearing guarantees are executional: a campaign must produce
point-for-point identical results from the serial loop, the process
pool (any worker count), and the fast engine's record-once columns,
and a campaign sharded across runs must merge back losslessly.
"""

import os
import random

import pytest

from repro.errors import ConfigError, SweepError
from repro.mc import (CampaignSpec, campaign_to_dict, expand_campaign,
                      load_campaign, merge_campaigns, run_campaign,
                      run_campaign_tasks, save_campaign, summarize_campaign)
from repro.mc.engine import dict_to_points

SPEC = CampaignSpec(
    workloads=("sha",),
    designs=("WL-Cache", "NVSRAM(ideal)"),
    families=("mc-rf-home", "mc-rf-office"),
    seeds=(0, 1),
    scale=0.1,
    overrides={"engine": "reference"},
)

FAST_SPEC = CampaignSpec(
    workloads=SPEC.workloads, designs=SPEC.designs, families=SPEC.families,
    seeds=SPEC.seeds, scale=SPEC.scale, overrides={"engine": "fast"})


@pytest.fixture(scope="module")
def serial_points():
    return run_campaign(SPEC, jobs=1)


def as_dicts(points):
    """Stable comparable form (full RunResult equality incl. memory)."""
    from repro.analysis.stats_io import result_to_dict
    return {k: result_to_dict(v, include_periods=True)
            for k, v in points.items()}


class TestSpec:
    def test_n_points(self):
        assert SPEC.n_points == 8

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            CampaignSpec(workloads=(), designs=("WL-Cache",))

    def test_trace_seed_override_rejected(self):
        with pytest.raises(ConfigError, match="trace_seed"):
            CampaignSpec(workloads=("sha",), designs=("WL-Cache",),
                         overrides={"trace_seed": 3})

    def test_unknown_family_rejected(self):
        spec = CampaignSpec(workloads=("sha",), designs=("WL-Cache",),
                            families=("mc-rf-mars",))
        with pytest.raises(KeyError):
            expand_campaign(spec)

    def test_unknown_workload_rejected(self):
        spec = CampaignSpec(workloads=("nope",), designs=("WL-Cache",))
        with pytest.raises(Exception):
            expand_campaign(spec)

    def test_expansion_order_and_keys(self):
        pairs = expand_campaign(SPEC)
        assert len(pairs) == SPEC.n_points
        keys = [k for k, _ in pairs]
        assert len(set(keys)) == len(keys)
        # workload-major: every point of one workload is contiguous
        assert keys[0] == ("sha", "WL-Cache", "mc-rf-home", 0)
        for (key, task) in pairs:
            assert task.trace == key[2]
            assert task.overrides["trace_seed"] == key[3]


class TestDeterminism:
    def test_serial_results_complete(self, serial_points):
        assert len(serial_points) == SPEC.n_points
        assert all(res.halted for res in serial_points.values())
        # the seed axis genuinely varies conditions: some pair of seeds
        # of the same (workload, design, family) differs in timing
        times = {}
        for (w, d, f, s), res in serial_points.items():
            times.setdefault((w, d, f), set()).add(res.total_time_ns)
        assert any(len(v) > 1 for v in times.values())

    def test_parallel_equals_serial(self, serial_points):
        par = run_campaign(SPEC, jobs=2)
        assert as_dicts(par) == as_dicts(serial_points)

    def test_worker_count_irrelevant(self, serial_points):
        par3 = run_campaign(SPEC, jobs=3)
        assert as_dicts(par3) == as_dicts(serial_points)

    def test_batch_equals_serial(self, serial_points):
        bat = run_campaign(FAST_SPEC, jobs=1)
        assert as_dicts(bat) == as_dicts(serial_points)

    def test_batch_parallel_equals_serial(self, serial_points):
        bat = run_campaign(FAST_SPEC, jobs=2)
        assert as_dicts(bat) == as_dicts(serial_points)

    def test_shard_order_irrelevant(self, serial_points):
        pairs = expand_campaign(SPEC)
        random.Random(42).shuffle(pairs)
        shuffled = run_campaign_tasks(pairs, jobs=1)
        assert as_dicts(shuffled) == as_dicts(serial_points)
        # and the summary is a pure function of the point set
        assert (summarize_campaign(shuffled)
                == summarize_campaign(serial_points))

    def test_result_order_follows_input(self, serial_points):
        pairs = expand_campaign(SPEC)
        assert list(serial_points) == [k for k, _ in pairs]

    def test_pool_failure_names_point_keys(self):
        spec = CampaignSpec(workloads=("sha",), designs=("WL-Cache",),
                            families=("mc-rf-home",), seeds=(0, 1),
                            scale=0.1, overrides={"maxline": 99})
        with pytest.raises(SweepError, match="maxline") as exc:
            run_campaign(spec, jobs=2)
        assert set(exc.value.failures) == {
            ("sha", "WL-Cache", "mc-rf-home", 0),
            ("sha", "WL-Cache", "mc-rf-home", 1)}

    def test_failure_names_the_point(self):
        spec = CampaignSpec(workloads=("sha",), designs=("WL-Cache",),
                            families=("mc-rf-home",), seeds=(0, 1),
                            scale=0.1, overrides={"capacitance_f": 1e-12})
        with pytest.raises((SweepError, Exception)):
            run_campaign(spec, jobs=1)


class TestPersistence:
    def test_save_load_round_trip(self, serial_points, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(serial_points, path)
        back = load_campaign(path)
        assert set(back) == set(serial_points)
        for key, res in back.items():
            orig = serial_points[key]
            assert res.total_time_ns == orig.total_time_ns
            assert res.outages == orig.outages
            assert res.instructions == orig.instructions
        # stats-only round trip summarizes identically to live results
        assert summarize_campaign(back) == summarize_campaign(serial_points)

    def test_merge_shards_losslessly(self, serial_points):
        items = sorted(serial_points.items())
        half_a = dict(items[: len(items) // 2])
        half_b = dict(items[len(items) // 2:])
        merged = merge_campaigns([campaign_to_dict(half_a),
                                  campaign_to_dict(half_b)])
        assert merged == campaign_to_dict(serial_points)

    def test_merge_overlap_identical_ok(self, serial_points):
        whole = campaign_to_dict(serial_points)
        assert merge_campaigns([whole, whole]) == whole

    def test_merge_conflicting_results_rejected(self, serial_points):
        whole = campaign_to_dict(serial_points)
        import copy
        tainted = copy.deepcopy(whole)
        tainted["points"][0]["result"]["total_time_ns"] += 1
        with pytest.raises(ConfigError, match="merge"):
            merge_campaigns([whole, tainted])

    def test_bad_format_version_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            dict_to_points({"format_version": 99, "points": []})
        with pytest.raises(ConfigError, match="format"):
            merge_campaigns([{"format_version": None, "points": []}])


@pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                    reason="full-ensemble campaign (set REPRO_TIER2=1)")
class TestFullEnsemble:
    """Nightly-scale check: a wider campaign stays engine-invariant."""

    SPEC = CampaignSpec(
        workloads=("sha", "qsort", "dijkstra"),
        designs=("WL-Cache", "NVSRAM(ideal)", "NVCache-WB"),
        families=("mc-rf-home", "mc-rf-office", "mc-rf-mobile", "mc-solar"),
        seeds=tuple(range(4)),
        scale=0.2,
        overrides={"engine": "reference"},
    )

    def test_all_engines_identical_at_scale(self):
        serial = run_campaign(self.SPEC, jobs=1)
        assert len(serial) == self.SPEC.n_points  # 144 points
        par = run_campaign(self.SPEC, jobs=os.cpu_count() or 2)
        assert as_dicts(par) == as_dicts(serial)
        fast_spec = CampaignSpec(
            workloads=self.SPEC.workloads, designs=self.SPEC.designs,
            families=self.SPEC.families, seeds=self.SPEC.seeds,
            scale=self.SPEC.scale, overrides={"engine": "fast"})
        fast = run_campaign(fast_spec, jobs=os.cpu_count() or 2)
        assert as_dicts(fast) == as_dicts(serial)
        summary = summarize_campaign(serial)
        assert summary["n_points"] == self.SPEC.n_points
        assert summary["speedup_aggregate"]
