"""The parallel sweep engine: bit-exactness, failure reporting, dispatch.

The headline property - ``run_grid_parallel`` returns RunResults *equal*
to the serial sweep's, field for field - is what lets every figure bench
fan out over cores without a reproducibility caveat. RunResult equality
covers all stats, energy breakdowns, per-period records, and the final
memory image, so one ``==`` is a deep check.
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SweepError
from repro.sim.parallel import (SweepTask, make_tasks, resolve_jobs,
                                run_grid_parallel, run_task, run_tasks)
from repro.sim.sweep import run_grid

APPS = ("sha", "qsort")
DESIGNS = ("NVSRAM(ideal)", "WL-Cache")


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_over_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(fallback=1) == 5

    def test_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(fallback=1) == 1

    def test_default_is_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()


class TestBitExactness:
    def test_parallel_equals_serial(self):
        serial = run_grid(APPS, DESIGNS, "trace1", scale=0.15, jobs=1)
        par = run_grid_parallel(APPS, DESIGNS, "trace1", scale=0.15, jobs=4)
        assert serial == par
        assert list(serial) == list(par)  # ordering matches the serial loop

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=st.sampled_from(["trace1", "trace2", None]),
           seed=st.integers(0, 2**16))
    def test_equality_property(self, trace, seed):
        kwargs = dict(scale=0.12, trace_seed=seed)
        serial = run_grid(["qsort"], DESIGNS, trace, **kwargs)
        par = run_grid_parallel(["qsort"], DESIGNS, trace, jobs=2, **kwargs)
        assert serial == par

    def test_overrides_reach_workers(self):
        serial = run_grid(["sha"], ("WL-Cache",), "trace1", scale=0.15,
                          maxline=3, adaptive=False)
        par = run_grid_parallel(["sha"], ("WL-Cache",), "trace1", scale=0.15,
                                jobs=2, maxline=3, adaptive=False)
        assert serial == par


class TestInvariantPropagation:
    def test_repro_check_reaches_workers(self, monkeypatch):
        # the invariant-checking switch must be re-exported into pool
        # workers: a checked parallel sweep that silently ran unchecked
        # would defeat the whole point of REPRO_CHECK=1 in CI
        monkeypatch.setenv("REPRO_CHECK", "1")
        par = run_grid_parallel(APPS, ("WL-Cache",), "trace1",
                                scale=0.15, jobs=2)
        assert len(par) == len(APPS)
        assert all(r.invariant_checks > 0 for r in par.values())

    def test_checked_parallel_equals_checked_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        serial = run_grid(APPS, ("WL-Cache",), "trace1", scale=0.15, jobs=1)
        par = run_grid_parallel(APPS, ("WL-Cache",), "trace1",
                                scale=0.15, jobs=2)
        assert serial == par

    def test_unchecked_workers_stay_unchecked(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        par = run_grid_parallel(APPS, ("WL-Cache",), None, scale=0.1, jobs=2)
        assert all(r.invariant_checks == 0 for r in par.values())


class TestFailureReporting:
    def test_worker_failure_names_the_run(self):
        # maxline=99 exceeds the DirtyQueue capacity: every WL-Cache run
        # raises ConfigError inside its worker
        with pytest.raises(SweepError) as exc:
            run_grid_parallel(APPS, ("WL-Cache",), "trace1", scale=0.1,
                              jobs=2, maxline=99)
        assert ("sha", "WL-Cache", "trace1") in exc.value.failures
        assert ("qsort", "WL-Cache", "trace1") in exc.value.failures
        assert "maxline" in str(exc.value)

    def test_unknown_design_fails_before_spawning(self):
        with pytest.raises(ConfigError, match="unknown design"):
            run_grid_parallel(APPS, ("Bogus",), None, jobs=4)

    def test_unknown_workload_fails_before_spawning(self):
        with pytest.raises(KeyError, match="unknown workload"):
            run_grid_parallel(["nonesuch"], DESIGNS, None, jobs=4)


class TestDispatch:
    def test_progress_callback(self):
        seen = []
        run_grid_parallel(APPS, DESIGNS, None, scale=0.1, jobs=2,
                          progress=lambda d, t, k: seen.append((d, t, k)))
        assert [d for d, _, _ in seen] == [1, 2, 3, 4]
        assert all(t == 4 for _, t, _ in seen)
        assert {k for _, _, k in seen} == {
            (a, d) for a in APPS for d in DESIGNS}

    def test_single_task_stays_serial(self):
        # one task never pays for a pool; identical to a direct run
        res = run_grid_parallel(["sha"], ("WL-Cache",), None, scale=0.1,
                                jobs=8)
        task = SweepTask("sha", "WL-Cache", None, 0.1, True, None)
        assert res[("sha", "WL-Cache")] == run_task(task)

    def test_empty_grid(self):
        assert run_grid_parallel([], DESIGNS, None, jobs=4) == {}
        assert run_grid([], scale=0.1) == {}

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the PREP_HOOK")
    def test_progress_reports_each_chunk_as_it_returns(self, tmp_path,
                                                        monkeypatch):
        # two aligned chunks, one per workload; the second cannot finish
        # until progress has reported a point of the first - which only
        # happens if the first chunk is reported when it returns, not
        # when every chunk has
        from repro.lockstep import scheduler

        gate = tmp_path / "first-chunk-reported"
        deadline = time.monotonic() + 60  # one bound for every instance

        def hold_second(task, _system):
            if task.workload != "qsort":
                return
            while not gate.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError("the first chunk was never reported")
                time.sleep(0.01)

        def progress(_done, _total, key):
            if key[0] == "sha":
                gate.touch()

        monkeypatch.setattr(scheduler, "PREP_HOOK", hold_second)
        tasks = make_tasks(["sha", "qsort"], DESIGNS, None, None, 0.05,
                           False, {"engine": "fast"})
        out = run_tasks(tasks, jobs=2, progress=progress)
        assert list(out) == [t.key for t in tasks]

    def test_run_tasks_order_independent_of_completion(self):
        # qsort at a larger scale finishes after sha; result order must
        # still be submission (workload-major) order
        tasks = make_tasks(["qsort", "sha"], ("WL-Cache",), None, None,
                           0.2, False, {})
        out = run_tasks(tasks, jobs=2)
        assert list(out) == [("qsort", "WL-Cache"), ("sha", "WL-Cache")]


class TestPointKeys:
    def test_caller_keys_hold_one_kernel_and_design_twice(self):
        # two configs of one (workload, design) in one call, plus the
        # same task object twice, keyed by the caller; progress sees the
        # same keys, serial and pooled
        low = SweepTask("sha", "WL-Cache", "trace1", 0.1, True, None,
                        {"maxline": 3})
        high = SweepTask("sha", "WL-Cache", "trace1", 0.1, True, None,
                         {"maxline": 6})
        tasks = [low, high, high]
        keys = ["maxline3", "maxline6", "maxline6-again"]
        for jobs in (1, 2):
            seen = []
            out = run_tasks(tasks, jobs=jobs, keys=keys,
                            progress=lambda d, t, k: seen.append(k))
            assert list(out) == keys
            assert sorted(seen) == sorted(keys)
            assert out["maxline3"] == run_task(low)
            assert out["maxline6"] == out["maxline6-again"] == run_task(high)


class TestSweepEdgeCases:
    def test_bench_scale_bad_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ConfigError, match="REPRO_BENCH_SCALE"):
            run_grid(["sha"], ("WL-Cache",), None)

    def test_bench_scale_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ConfigError, match="must be > 0"):
            run_grid(["sha"], ("WL-Cache",), None)

    def test_missing_baseline_reported(self):
        from repro.sim.sweep import speedups_vs_baseline
        results = run_grid(["sha"], ("WL-Cache",), None, scale=0.1)
        with pytest.raises(ConfigError, match="include the baseline"):
            speedups_vs_baseline(results)
