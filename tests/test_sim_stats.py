"""Unit tests for the measurement machinery."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim.engine import SEC, Simulator
from repro.sim.stats import (
    Counter,
    LatencyRecorder,
    RateWindow,
    StatsRegistry,
    weighted_mean,
)


class TestCounter:
    def test_add_defaults_to_one(self):
        c = Counter("x")
        c.add()
        c.add(5)
        assert c.value == 6


class TestLatencyRecorder:
    def test_summary_stats(self):
        rec = LatencyRecorder("lat")
        for v in (10, 20, 30, 40):
            rec.record(v)
        assert rec.count == 4
        assert rec.mean == 25
        assert rec.minimum == 10
        assert rec.maximum == 40
        assert rec.total == 100

    def test_percentiles(self):
        rec = LatencyRecorder("lat")
        for v in range(1, 101):
            rec.record(v)
        assert rec.percentile(50) == pytest.approx(50.5)
        assert rec.percentile(0) == 1
        assert rec.percentile(100) == 100

    def test_percentile_single_sample(self):
        rec = LatencyRecorder("lat")
        rec.record(7)
        assert rec.percentile(99) == 7.0

    def test_percentile_out_of_range(self):
        rec = LatencyRecorder("lat")
        rec.record(1)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_negative_sample_rejected(self):
        rec = LatencyRecorder("lat")
        with pytest.raises(ValueError):
            rec.record(-1)

    def test_empty_recorder_is_zero(self):
        rec = LatencyRecorder("lat")
        assert rec.mean == 0.0
        assert rec.percentile(50) == 0.0
        assert rec.stdev == 0.0

    def test_stdev(self):
        rec = LatencyRecorder("lat")
        for v in (2, 4, 4, 4, 5, 5, 7, 9):
            rec.record(v)
        assert rec.stdev == pytest.approx(2.138, abs=1e-3)

    def test_percentile_cache_sees_same_length_mutation(self):
        # Regression: the stale-sorted-cache guard used to compare lengths
        # only, so an in-place mutation that kept len(samples) constant
        # served percentiles from the stale sorted copy.
        rec = LatencyRecorder("lat")
        for v in (10, 20, 30):
            rec.record(v)
        assert rec.percentile(100) == 30  # populate the cache
        rec.samples[2] = 300
        assert rec.percentile(100) == 300
        rec.samples.sort(reverse=True)
        assert rec.percentile(0) == 10
        del rec.samples[0]
        assert rec.percentile(100) == 20

    def test_percentile_cache_sees_reassignment(self):
        rec = LatencyRecorder("lat")
        for v in (1, 2, 3):
            rec.record(v)
        assert rec.percentile(50) == 2
        rec.samples = [5, 6, 7]
        assert rec.percentile(50) == 6

    def test_snapshot_restore_roundtrip_invalidates_cache(self):
        rec = LatencyRecorder("lat")
        for v in (10, 20, 30):
            rec.record(v)
        snap = rec.snapshot()
        assert rec.percentile(100) == 30
        rec.record(999)
        assert rec.percentile(100) == 999
        rec.restore(snap)
        assert rec.count == 3
        assert rec.percentile(100) == 30
        rec.samples[0] = 70  # version tracking still live after restore
        assert rec.percentile(100) == 70


class TestRateWindow:
    def test_rate_over_window(self):
        sim = Simulator()
        rate = RateWindow("r", sim)
        rate.start_window()
        for _ in range(10):
            rate.hit()
        sim.after(SEC // 2, lambda: None)
        sim.run()
        rate.stop_window()
        assert rate.per_second() == pytest.approx(20.0)

    def test_hits_outside_window_ignored(self):
        sim = Simulator()
        rate = RateWindow("r", sim)
        rate.hit()  # before window
        rate.start_window()
        rate.hit()
        sim.after(SEC, lambda: None)
        sim.run()
        rate.stop_window()
        rate.hit()  # after window
        assert rate.events == 1

    def test_no_window_is_zero(self):
        sim = Simulator()
        rate = RateWindow("r", sim)
        assert rate.per_second() == 0.0


class TestStatsRegistry:
    def test_counters_are_memoized(self):
        sim = Simulator()
        stats = StatsRegistry(sim)
        stats.counter("a").add()
        stats.counter("a").add()
        assert stats.counter("a").value == 2

    def test_summary_includes_all_kinds(self):
        sim = Simulator()
        stats = StatsRegistry(sim)
        stats.counter("c").add(3)
        stats.latency("l").record(10)
        stats.rate("r")
        summary = stats.summary()
        assert summary["count.c"] == 3
        assert summary["lat.l.mean_ns"] == 10
        assert "rate.r.per_sec" in summary

    def test_window_control(self):
        sim = Simulator()
        stats = StatsRegistry(sim)
        rate = stats.rate("x")
        stats.start_all_windows()
        rate.hit(4)
        sim.after(SEC, lambda: None)
        sim.run()
        stats.stop_all_windows()
        assert rate.per_second() == pytest.approx(4.0)


class TestRestoreAcrossBranches:
    """``restore`` to a snapshot that is not an ancestor of the live state:
    a branch taken after rewinding to an earlier snapshot."""

    def test_equal_sized_but_different_key_sets(self):
        sim = Simulator()
        stats = StatsRegistry(sim)
        empty = stats.snapshot()
        stats.counter("a").add(3)
        stats.latency("la").record(10)
        stats.quantile("qa").record(20)
        stats.rate("ra").hit()
        branch_a = stats.snapshot()
        summary_a = stats.summary()
        stats.restore(empty)
        assert stats.summary() == {}
        stats.counter("b").add(5)
        stats.latency("lb").record(30)
        stats.quantile("qb").record(40)
        stats.rate("rb").hit(2)
        summary_b = stats.summary()
        branch_b = stats.snapshot()
        # Same sizes, different names: every value must land on its own
        # entry, and the other branch's names must be gone.
        stats.restore(branch_a)
        assert stats.summary() == summary_a
        stats.restore(branch_b)
        assert stats.summary() == summary_b

    def test_model_checker_restore_after_rewind(self):
        # Fork at every depth of one schedule, then restore the deepest
        # snapshot, an early one, and the deepest again: the last restore
        # recreates the entries the early one dropped.
        from repro.verify.mc.executor import McExecutor, McScope

        executor = McExecutor(McScope(cores=3, pages=2, ops=5))
        snaps, hashes, summaries = [], [], []
        while len(snaps) < 10:
            snaps.append(executor.fork())
            hashes.append(executor.state_hash())
            summaries.append(executor.kernel.stats.summary())
            if len(snaps) < 10:
                executor.execute(executor.enabled_actions()[0])
        for depth in (9, 1, 9):
            executor.restore(snaps[depth])
            assert executor.state_hash() == hashes[depth]
            assert executor.kernel.stats.summary() == summaries[depth]


def test_weighted_mean():
    assert weighted_mean([(10, 1), (20, 3)]) == pytest.approx(17.5)
    assert weighted_mean([]) == 0.0


class TestQuantileRecorder:
    def test_small_values_exact(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        for v in range(32):  # unit bins below 2**SUB_BITS are exact
            rec.record(v)
        assert rec.count == 32
        assert rec.minimum == 0
        assert rec.maximum == 31
        assert rec.percentile(50) == 15.0  # nearest rank: 16th smallest of 0..31
        assert rec.percentile(100) == 31.0

    def test_summary_stats_exact(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        for v in (100, 200, 3000, 40000):
            rec.record(v)
        # count/total/mean/min/max are tracked exactly; only the
        # percentile positions are binned.
        assert rec.count == 4
        assert rec.total == 43300
        assert rec.mean == pytest.approx(10825.0)
        assert rec.minimum == 100
        assert rec.maximum == 40000

    def test_percentile_clamped_to_extremes(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        rec.record(1_000_003)
        assert rec.percentile(0) == 1_000_003.0
        assert rec.percentile(100) == 1_000_003.0

    def test_empty_is_zero(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        assert rec.percentile(99) == 0.0
        assert rec.mean == 0.0

    def test_negative_sample_rejected(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        with pytest.raises(ValueError):
            rec.record(-1)

    def test_percentile_out_of_range(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        rec.record(1)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_bin_memory_is_bounded(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        for v in range(1, 200_000, 7):
            rec.record(v)
        # log-spaced bins: ~2**SUB_BITS per power of two, not one per sample.
        assert len(rec._bins) < 64 * 20

    def test_snapshot_restore_roundtrip(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        for v in (5, 50, 500, 5000):
            rec.record(v)
        snap = rec.snapshot()
        p99 = rec.percentile(99)
        rec.record(1_000_000)
        rec.restore(snap)
        assert rec.count == 4
        assert rec.percentile(99) == p99

    def test_restore_skips_on_equal_version(self):
        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        rec.record(77)
        snap = rec.snapshot()
        # Untouched since the snapshot: restore must be a no-op (the
        # version-mint contract -- equal version implies identical state).
        bins_before = rec._bins
        rec.restore(snap)
        assert rec._bins is bins_before


class TestQuantileAccuracyProperty:
    """The recorder's documented error bound, property-tested against an
    exact nearest-rank percentile."""

    @given(
        values=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=300),
        pct=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_half_bin_of_exact(self, values, pct):
        import math

        from repro.sim.stats import QuantileRecorder

        rec = QuantileRecorder("q")
        for v in values:
            rec.record(v)
        rank = max(1, math.ceil((pct / 100.0) * len(values)))
        exact = sorted(values)[rank - 1]
        estimate = rec.percentile(pct)
        # Relative half-bin error: 2**-(SUB_BITS+1) of the exact value
        # (exact for values below 2**SUB_BITS, which unit bins hold).
        tolerance = exact * 2.0 ** -(QuantileRecorder.SUB_BITS + 1)
        assert abs(estimate - exact) <= tolerance


class TestWindowGating:
    def _gated_registry(self):
        sim = Simulator()
        return sim, StatsRegistry(sim, gate_latencies=True)

    def test_start_window_discards_warmup_samples(self):
        _sim, stats = self._gated_registry()
        rec = stats.latency("req")
        qrec = stats.quantile("req.q")
        rec.record(999_999)  # warmup pollution
        qrec.record(999_999)
        stats.start_all_windows()
        rec.record(10)
        qrec.record(10)
        assert rec.count == 1 and rec.maximum == 10
        assert qrec.count == 1 and qrec.maximum == 10

    def test_stop_window_drops_later_samples(self):
        _sim, stats = self._gated_registry()
        rec = stats.latency("req")
        qrec = stats.quantile("req.q")
        stats.start_all_windows()
        rec.record(10)
        qrec.record(10)
        stats.stop_all_windows()
        rec.record(999)
        qrec.record(999)
        assert rec.count == 1
        assert qrec.count == 1

    def test_recorder_created_mid_window_joins_it(self):
        _sim, stats = self._gated_registry()
        stats.start_all_windows()
        rec = stats.latency("late")
        qrec = stats.quantile("late.q")
        rec.record(5)
        qrec.record(5)
        stats.stop_all_windows()
        rec.record(6)
        qrec.record(6)
        assert rec.count == 1
        assert qrec.count == 1

    def test_ungated_recorder_ignores_windows(self):
        sim = Simulator()
        stats = StatsRegistry(sim, gate_latencies=False)
        rec = stats.latency("req")
        rec.record(1)
        stats.start_all_windows()
        rec.record(2)
        stats.stop_all_windows()
        rec.record(3)
        # Historical behaviour: every sample from t=0 is kept.
        assert rec.count == 3

    def test_recorder_without_any_window_records_freely(self):
        # Workloads that never call start_all_windows must keep working
        # even with gating on (the FREE state).
        sim = Simulator()
        stats = StatsRegistry(sim, gate_latencies=True)
        rec = stats.latency("free")
        rec.record(42)
        assert rec.count == 1

    def test_module_default_controls_new_registries(self):
        from repro.sim.stats import latency_gating_enabled, set_latency_gating

        sim = Simulator()
        assert latency_gating_enabled()
        try:
            set_latency_gating(False)
            assert StatsRegistry(sim).gate_latencies is False
            set_latency_gating(True)
            assert StatsRegistry(sim).gate_latencies is True
        finally:
            set_latency_gating(True)

    def test_gated_window_state_survives_snapshot_restore(self):
        _sim, stats = self._gated_registry()
        rec = stats.latency("req")
        qrec = stats.quantile("req.q")
        stats.start_all_windows()
        rec.record(10)
        qrec.record(10)
        snap = (rec.snapshot(), qrec.snapshot())
        stats.stop_all_windows()
        rec.restore(snap[0])
        qrec.restore(snap[1])
        # Restored into the open-window state: recording works again.
        rec.record(11)
        qrec.record(11)
        assert rec.count == 2
        assert qrec.count == 2
