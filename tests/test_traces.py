"""Power traces: integration, charging, erosion, generation, CSV I/O."""

import pytest

from repro.energy.synthetic import (make_trace, solar, thermal, trace1,
                                    trace2, trace3)
from repro.energy.traces import ConstantTrace, PowerTrace, load_csv, save_csv
from repro.errors import TraceError


class TestConstant:
    def test_power_and_energy(self):
        tr = ConstantTrace(0.5)
        assert tr.power_w(0) == 0.5
        assert tr.power_w(10**9) == 0.5
        assert tr.energy_nj(0, 1000) == pytest.approx(500.0)  # W * ns = nJ

    def test_time_to_harvest(self):
        tr = ConstantTrace(0.1)
        t = tr.time_to_harvest(100, 50.0)
        assert t == pytest.approx(600, abs=2)

    def test_zero_power_never_harvests(self):
        tr = ConstantTrace(0.0)
        with pytest.raises(TraceError, match="dead"):
            tr.time_to_harvest(0, 1.0, horizon_ns=10**6)


class TestSegmented:
    def make(self):
        return PowerTrace([0, 100, 200], [0.1, 0.0, 0.2], "seg")

    def test_power_lookup(self):
        tr = self.make()
        assert tr.power_w(0) == 0.1
        assert tr.power_w(99) == 0.1
        assert tr.power_w(100) == 0.0
        assert tr.power_w(250) == 0.2

    def test_energy_across_segments(self):
        tr = self.make()
        # 50ns@0.1 + 100ns@0 + 50ns@0.2
        assert tr.energy_nj(50, 250) == pytest.approx(5.0 + 0.0 + 10.0)

    def test_energy_additivity(self):
        tr = self.make()
        whole = tr.energy_nj(0, 400)
        split = tr.energy_nj(0, 170) + tr.energy_nj(170, 400)
        assert whole == pytest.approx(split)

    def test_time_to_harvest_skips_dead_segment(self):
        tr = self.make()
        # needs 3nJ starting at t=90: 1nJ by t=100, then dead until 200,
        # then 2nJ more at 0.2 W -> 10 ns
        t = tr.time_to_harvest(90, 3.0)
        assert t == pytest.approx(210, abs=2)

    def test_charge_until_with_drain(self):
        tr = self.make()
        # during the dead segment a 0.05 W drain erodes charge
        t = tr.charge_until(0, 0.0, 25.0, drain_w=0.05)
        # segment 1: net 0.05 -> +5nJ by t=100; segment 2: net -0.05 ->
        # floor at 0 by t=200; segment 3: net 0.15 -> 25nJ at ~167ns more
        assert t == pytest.approx(200 + 25 / 0.15, abs=3)

    def test_charge_until_already_charged(self):
        tr = self.make()
        assert tr.charge_until(50, 10.0, 5.0) == 50

    def test_validation(self):
        with pytest.raises(TraceError):
            PowerTrace([], [])
        with pytest.raises(TraceError):
            PowerTrace([5], [0.1])       # must start at 0
        with pytest.raises(TraceError):
            PowerTrace([0, 0], [0.1, 0.2])  # non-increasing
        with pytest.raises(TraceError):
            PowerTrace([0], [-0.1])


class TestSegmentEdges:
    """Boundary and zero-power edge cases of the trace integrators.

    The negative-time cases are regression tests for an off-by-one-segment
    bug: ``_seek`` computed ``bisect_right(starts, t) - 1``, which is -1
    for t < 0, and Python indexing silently wrapped that to the *last*
    segment - so ``energy_nj(-50, 50)`` billed [-50, 0) at the final
    segment's power instead of raising. ``power_w`` had a guard; the three
    integrators did not.
    """

    def make(self):
        return PowerTrace([0, 100, 200], [0.1, 0.0, 0.2], "seg")

    def test_energy_rejects_negative_start(self):
        tr = self.make()
        with pytest.raises(TraceError, match="negative"):
            tr.energy_nj(-50, 50)

    def test_time_to_harvest_rejects_negative_start(self):
        tr = self.make()
        with pytest.raises(TraceError, match="negative"):
            tr.time_to_harvest(-1, 5.0)

    def test_charge_until_rejects_negative_start(self):
        tr = self.make()
        with pytest.raises(TraceError, match="negative"):
            tr.charge_until(-10, 0.0, 5.0)

    def test_energy_rejects_reversed_interval(self):
        tr = self.make()
        with pytest.raises(TraceError, match="reversed"):
            tr.energy_nj(100, 50)

    def test_energy_exactly_on_boundaries(self):
        tr = self.make()
        # whole segments, endpoints exactly on the segment starts
        assert tr.energy_nj(0, 100) == pytest.approx(10.0)
        assert tr.energy_nj(100, 200) == pytest.approx(0.0)
        assert tr.energy_nj(0, 200) == pytest.approx(10.0)

    def test_energy_empty_interval_on_boundary(self):
        tr = self.make()
        assert tr.energy_nj(100, 100) == 0.0
        assert tr.energy_nj(200, 200) == 0.0

    def test_energy_inside_zero_power_segment(self):
        tr = self.make()
        assert tr.energy_nj(110, 190) == 0.0

    def test_energy_additivity_at_every_boundary(self):
        tr = self.make()
        whole = tr.energy_nj(0, 300)
        for cut in (0, 1, 99, 100, 101, 199, 200, 201, 300):
            assert (tr.energy_nj(0, cut) + tr.energy_nj(cut, 300)
                    == pytest.approx(whole))

    def test_time_to_harvest_exact_fill_at_boundary(self):
        tr = self.make()
        # 10 nJ is exactly what segment 0 delivers: the crossing instant
        # is t=100 and the reported time is the first ns past it
        assert tr.time_to_harvest(0, 10.0) == 101

    def test_time_to_harvest_starting_in_zero_segment(self):
        tr = self.make()
        # dead until t=200, then 4 nJ at 0.2 W -> 20 ns
        assert tr.time_to_harvest(150, 4.0) == pytest.approx(220, abs=2)

    def test_charge_until_floor_in_zero_segment(self):
        tr = self.make()
        # drain through the dead segment may not take energy below the floor
        t = tr.charge_until(100, 3.0, 50.0, drain_w=0.05, e_floor_nj=2.0)
        # floor at 2 nJ by t=120; 48 nJ at net 0.15 W from t=200 -> 320 ns
        assert t == pytest.approx(200 + 48 / 0.15, abs=3)

    def test_charge_until_target_met_at_start(self):
        tr = self.make()
        assert tr.charge_until(0, 5.0, 5.0) == 0

    def test_seek_cache_survives_backwards_query(self):
        tr = self.make()
        assert tr.power_w(250) == 0.2    # advances the segment cache
        assert tr.power_w(10) == 0.1     # rewind must re-bisect correctly
        assert tr.energy_nj(50, 250) == pytest.approx(15.0)


class TestGenerated:
    def test_deterministic_per_seed(self):
        a, b = trace1(seed=5), trace1(seed=5)
        assert a.energy_nj(0, 10**7) == pytest.approx(b.energy_nj(0, 10**7))
        c = trace1(seed=6)
        assert a.energy_nj(0, 10**7) != pytest.approx(c.energy_nj(0, 10**7))

    def test_lazy_extension(self):
        tr = trace2()
        n0 = len(tr.starts)
        tr.power_w(10**8)
        assert len(tr.starts) > n0

    def test_charge_until_extends_indefinitely(self):
        tr = trace3()
        t = tr.charge_until(0, 0.0, 5000.0, drain_w=0.02)
        assert t > 0

    def test_all_factories(self):
        for name in ("trace1", "trace2", "trace3", "solar", "thermal"):
            tr = make_trace(name)
            assert tr.energy_nj(0, 10**6) > 0
        with pytest.raises(KeyError):
            make_trace("trace9")

    def test_stability_ordering(self):
        """Coefficient of variation: thermal < solar < tr1 < tr2 < tr3."""
        import statistics

        def cv(tr, n=400, step=50_000):
            samples = [tr.power_w(i * step) for i in range(n)]
            return statistics.pstdev(samples) / statistics.mean(samples)

        cvs = [cv(t()) for t in (thermal, solar, trace1, trace2, trace3)]
        assert cvs == sorted(cvs)

    def test_mean_power_ordering(self):
        """Stable sources are also stronger (solar/thermal > RF)."""
        def mean(tr, n=300):
            return tr.energy_nj(0, n * 10**5) / (n * 10**5)

        assert mean(solar()) > mean(trace1()) > mean(trace3())


class TestLazyExtension:
    """The ``_ensure`` gate: fixed traces treat their last segment as
    open-ended (``_extend`` is a no-op), generated traces append segments
    on demand - and neither may depend on the order queries arrive in."""

    def test_fixed_trace_last_segment_open_ended(self):
        tr = PowerTrace([0, 100, 200], [0.1, 0.0, 0.2], "seg")
        # queries at and far past the last start hit the no-op _extend
        assert tr.power_w(200) == 0.2
        assert tr.power_w(10**12) == 0.2
        assert len(tr.starts) == 3  # nothing was appended
        # open-ended integration: [200, 200+N) bills at 0.2 W forever
        assert tr.energy_nj(200, 200 + 10**6) == pytest.approx(0.2 * 10**6)

    def test_queries_before_last_start_skip_extension(self):
        tr = trace2(seed=3)
        tr.power_w(10**7)
        n = len(tr.starts)
        # strictly-inside queries are covered: no growth
        tr.power_w(tr.starts[-1] - 1)
        tr.energy_nj(0, tr.starts[-1] - 1)
        assert len(tr.starts) == n
        # a query at the last start stays within its segment (which runs
        # to the coverage end); a query *at* the coverage end must grow
        tr.power_w(tr.starts[-1])
        assert tr.starts[-1] < tr._coverage_end_ns()
        tr.power_w(tr._coverage_end_ns())
        assert len(tr.starts) > n

    def test_incremental_equals_one_shot_over_hours(self):
        """Growing a multi-hour trace in many small steps yields the
        same segment list as one far query - extension boundaries leave
        no seams."""
        hour_ns = 3_600 * 10**9
        inc = make_trace("mc-rf-long", 9)
        one = make_trace("mc-rf-long", 9)
        t = 0
        while t < 2 * hour_ns:
            inc.power_w(t)
            t += 97 * 10**9  # ~1.6-minute strides, misaligned on purpose
        one.power_w(t - 97 * 10**9)
        assert inc.starts == one.starts
        assert inc.powers == one.powers

    def test_harvest_across_extension_boundary_mid_outage(self):
        """time_to_harvest launched from inside a dropout must keep
        extending coverage until power returns, even when the outage
        spans several _extend batches."""
        for seed in range(12):
            tr = make_trace("mc-rf-long", seed)
            tr.power_w(10**9)
            # find a blackout window within the first simulated seconds
            start = next((s for s, p in zip(tr.starts, tr.powers)
                          if p == 0.0 and s > 0), None)
            if start is None:
                continue
            twin = make_trace("mc-rf-long", seed)
            t = twin.time_to_harvest(start, 50.0, horizon_ns=10**13)
            assert t > start
            assert twin.energy_nj(start, t) >= 50.0 - 1e-6
            # the lazily-driven twin agrees with the pre-extended trace
            # over their shared coverage (either may have generated one
            # look-ahead segment more than the other)
            tr.power_w(t)
            n = min(len(twin.starts), len(tr.starts))
            assert n > 2
            assert twin.starts[:n] == tr.starts[:n]
            assert twin.powers[:n] == tr.powers[:n]
            return
        raise AssertionError("no dropout found in 12 seeds")


class TestCsv:
    def test_roundtrip(self, tmp_path):
        tr = PowerTrace([0, 50, 75], [0.1, 0.2, 0.05], "x")
        path = str(tmp_path / "trace.csv")
        save_csv(tr, path)
        back = load_csv(path, "x2")
        assert back.starts == tr.starts
        assert back.powers == tr.powers

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n0,1\n")
        with pytest.raises(TraceError):
            load_csv(str(path))

    def test_malformed_row_names_its_line(self, tmp_path):
        path = tmp_path / "semicolon.csv"
        path.write_text("start_ns,power_w\n0,0.5\n1000000;0.3\n")
        with pytest.raises(TraceError, match=r"semicolon\.csv: line 3"):
            load_csv(str(path))

    @pytest.mark.parametrize("power", ["nan", "inf"])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(TraceError, match="finite"):
            PowerTrace([0, 5000], [0.5, float(power)])

    def test_nan_row_fails_alike_on_both_engines(self, tmp_path):
        # the reference harvest read a NaN power as a full charge, while
        # the fast engine's inlined harvest kept the NaN and crashed
        from repro.sim.sweep import run_grid

        path = tmp_path / "nan.csv"
        path.write_text("start_ns,power_w\n0,0.5\n5000,nan\n20000,0.4\n")
        errors = []
        for engine in ("reference", "fast"):
            with pytest.raises(TraceError) as info:
                run_grid(["sha"], ["WL-Cache", "VCache-WT"], f"csv:{path}",
                         scale=0.1, jobs=1, engine=engine)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert "finite" in errors[0]
