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
from repro.mc.engine import CampaignSpec, expand_campaign
from repro.sim.config import DESIGNS as ALL_DESIGNS
from repro.sim.parallel import (SweepTask, _chunked, make_tasks,
                                resolve_jobs, run_grid_parallel, run_task,
                                run_tasks)
from repro.sim.sweep import run_grid
from repro.workloads import ALL_WORKLOADS

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

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the PREP_HOOK")
    def test_worker_killed_mid_chunk_names_its_points(self, monkeypatch):
        # n = ceil(10 / (4 * 2)) = 2, so each kernel's 5-task block is
        # dealt into chunks of 3 and 2; a worker dies building the last
        # instance of qsort's 3-task chunk. The sweep runs in a forked
        # child, so a hang fails this test instead of stalling the suite
        from repro.lockstep import scheduler

        def crash(task, _system):
            if task.where == ("qsort", "WL-Cache", None):
                os._exit(1)

        monkeypatch.setattr(scheduler, "PREP_HOOK", crash)
        tasks = make_tasks(APPS, ALL_DESIGNS, None, None, 0.05, False,
                           {"engine": "fast"})
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_outcome, args=(send, tasks))
        child.start()
        try:
            assert recv.poll(60), "run_tasks hung after a worker crash"
            kind, message, failures = recv.recv()
            child.join(30)
            assert not child.is_alive(), "the sweep never exited"
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert kind == "SweepError", message
        assert ("qsort", "WL-Cache", None) in failures
        assert "worker process crashed" in message
        assert len(set(failures)) == len(failures)
        assert set(failures) <= {t.where for t in tasks}

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
        # each workload's 2-task block is dealt into two 1-task chunks
        # (n = ceil(4 / (4 * 2)) = 1); a qsort chunk cannot finish until
        # progress has reported a sha point - which only happens if a
        # sha chunk is reported when it returns, not when every chunk has
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


def _send_outcome(conn, tasks) -> None:
    """Forked child body: send home how ``run_tasks`` on two workers
    ended, as ``(exception type name, message, failures)``."""
    try:
        run_tasks(tasks, jobs=2)
        conn.send(("ok", "", ()))
    except Exception as exc:
        conn.send((type(exc).__name__, str(exc),
                   tuple(getattr(exc, "failures", ()))))


def _blocks(*sizes) -> list[SweepTask]:
    """Synthetic tasks in workload-major blocks of ``sizes`` tasks;
    ``_chunked`` reads only their workload and scale, and nothing runs."""
    return [SweepTask(f"w{b}", f"d{i}", None, 0.1, False, None)
            for b, size in enumerate(sizes) for i in range(size)]


_SHAPES = [((5,) * 23, 2), ((80,) * 4, 2), ((3, 40, 1, 2, 17), 3),
           ((1,) * 10, 1), ((23,), 1), ((7, 30, 7), 2), ((2, 2), 4)]


class TestChunking:
    @pytest.mark.parametrize("aligned", [False, True])
    @pytest.mark.parametrize("sizes, jobs", _SHAPES)
    def test_every_index_once_ascending(self, sizes, jobs, aligned):
        tasks = _blocks(*sizes)
        chunks = _chunked(tasks, jobs, aligned)
        assert sorted(i for c in chunks for i in c) == list(range(len(tasks)))
        assert all(c and c == sorted(c) for c in chunks)

    def test_small_blocks_pack_whole(self):
        # n = ceil(15 / 8) = 2: each 3-task block reaches n and closes
        # its chunk; none reaches 2n
        assert _chunked(_blocks(3, 3, 3, 3, 3), 2, True) == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14]]
        # n = ceil(10 / 4) = 3: one-task blocks pack three to a chunk
        assert _chunked(_blocks(*(1,) * 10), 1, True) == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    @pytest.mark.parametrize("sizes, jobs", _SHAPES)
    def test_wide_blocks_dealt_round_robin(self, sizes, jobs):
        tasks = _blocks(*sizes)
        n = -(-len(tasks) // (4 * jobs))
        chunks = _chunked(tasks, jobs, True)
        start = 0
        for b, size in enumerate(sizes):
            block = range(start, start + size)
            start += size
            if size < 2 * n:
                # whole, inside one chunk
                assert sum(set(block) <= set(c) for c in chunks) == 1
                continue
            k = size // n
            mine = [c for c in chunks if c[0] in block]
            assert mine == [list(block[j::k]) for j in range(k)]
            lengths = [len(c) for c in mine]
            assert min(lengths) >= n and max(lengths) - min(lengths) <= 1

    def test_small_blocks_pack_around_a_dealt_one(self):
        # n = ceil(44 / 8) = 6: the 40-task block becomes 6 chunks of
        # its own; the two 2-task blocks pack together around it
        chunks = _chunked(_blocks(2, 40, 2), 2, True)
        assert chunks == [list(range(2 + j, 42, 6)) for j in range(6)] \
            + [[0, 1, 42, 43]]

    def test_unaligned_runs_are_contiguous(self):
        # n = ceil(23 / 4) = 6
        assert _chunked(_blocks(23), 1) == [
            list(range(i, min(i + 6, 23))) for i in range(0, 23, 6)]

    def test_mc_campaign_shape(self):
        """perfbench mc-campaign: 4 kernels x 80 points on two workers
        become 8 chunks of 40, each with the same design order."""
        spec = CampaignSpec(("sha", "qsort", "dijkstra", "adpcmencode"),
                            ALL_DESIGNS, scale=0.25)
        tasks = [task for _, task in expand_campaign(spec)]
        chunks = _chunked(tasks, 2, True)
        assert [len(c) for c in chunks] == [40] * 8
        order = [tasks[i].design for i in chunks[0]]
        for c in chunks:
            assert [tasks[i].design for i in c] == order
            assert len({tasks[i].workload for i in c}) == 1

    def test_figure_grid_deals_nothing_below_15_workers(self):
        tasks = make_tasks(ALL_WORKLOADS, ALL_DESIGNS, None, None, 1.0,
                           False, {})
        width = len(ALL_DESIGNS)
        for jobs in range(1, 15):
            for c in _chunked(tasks, jobs, True):
                assert c == list(range(c[0], c[-1] + 1))
                assert c[0] % width == 0 and (c[-1] + 1) % width == 0
        assert _chunked(tasks, 15, True)[0] == [0, 2, 4]


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
