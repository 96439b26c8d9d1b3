"""Open-loop workload, arrival processes, and window-gating regressions.

The open-loop runs here use the small commodity box with a handful of
cores -- the 120-core fleet configuration belongs to the ``slo``
experiment, not to tier-1.
"""

import random

import pytest

from helpers import set_batched_faults  # noqa: F401

from repro.sim.arrivals import (
    MarkovModulatedArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.sim.engine import SEC
from repro.workloads import apache as apache_module
from repro.workloads import openloop as openloop_module
from repro.workloads.apache import run_apache
from repro.workloads.openloop import run_openloop

#: Small, fast open-loop scope shared by the tests below.
SMALL = dict(
    machine="commodity-2s16c",
    cores=4,
    offered_kreq_s=40.0,
    connections=16,
    conn_churn_per_sec=200.0,
    warmup_ms=3,
    duration_ms=12,
)


class TestArrivals:
    def test_poisson_deterministic_per_seed(self):
        gaps_a = PoissonArrivals(random.Random(7), 1000.0).gaps(200)
        gaps_b = PoissonArrivals(random.Random(7), 1000.0).gaps(200)
        assert gaps_a == gaps_b

    def test_poisson_mean_rate(self):
        arr = PoissonArrivals(random.Random(3), 5000.0)
        gaps = arr.gaps(20_000)
        measured = len(gaps) / (sum(gaps) / SEC)
        assert measured == pytest.approx(5000.0, rel=0.05)
        assert arr.mean_rate_per_sec == 5000.0

    def test_poisson_rate_sweep_replays_same_uniforms(self):
        # Doubling the rate must halve every gap, not redraw the stream --
        # this keeps offered-load sweeps comparable point to point.
        lo = PoissonArrivals(random.Random(11), 1000.0).gaps(100)
        hi = PoissonArrivals(random.Random(11), 2000.0).gaps(100)
        for g_lo, g_hi in zip(lo, hi):
            assert abs(g_lo - 2 * g_hi) <= 1  # int truncation slack

    def test_bursty_long_run_mean_matches_requested(self):
        arr = make_arrivals("bursty", random.Random(5), 2000.0)
        assert arr.mean_rate_per_sec == pytest.approx(2000.0)
        gaps = arr.gaps(40_000)
        measured = len(gaps) / (sum(gaps) / SEC)
        assert measured == pytest.approx(2000.0, rel=0.1)

    def test_bursty_is_burstier_than_poisson(self):
        # Same mean rate: the MMPP's gap variance must exceed Poisson's
        # (that is the entire reason it exists).
        poisson = make_arrivals("poisson", random.Random(9), 1000.0).gaps(20_000)
        bursty = make_arrivals(
            "bursty", random.Random(9), 1000.0, burst_factor=8.0
        ).gaps(20_000)

        def variance(xs):
            m = sum(xs) / len(xs)
            return sum((x - m) ** 2 for x in xs) / len(xs)

        assert variance(bursty) > variance(poisson)

    def test_mmpp_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(random.Random(1), -5.0)
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(random.Random(1), 100.0, burst_factor=0.5)
        with pytest.raises(ValueError):
            PoissonArrivals(random.Random(1), 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_arrivals("uniform", random.Random(1), 100.0)


class TestOpenLoopWorkload:
    def test_smoke_metrics_complete(self):
        result = run_openloop("latr", **SMALL)
        for key in (
            "offered_kreq_s",
            "achieved_kreq_s",
            "latency_p50_us",
            "latency_p99_us",
            "latency_p999_us",
            "backlog_requests",
            "samples",
        ):
            assert key in result.metrics
        assert result.metric("achieved_kreq_s") > 0
        assert result.metric("samples") > 0
        assert (
            result.metric("latency_p50_us")
            <= result.metric("latency_p99_us")
            <= result.metric("latency_p999_us")
        )

    def test_deterministic_across_runs(self):
        a = run_openloop("latr", **SMALL)
        b = run_openloop("latr", **SMALL)
        assert a.metrics == b.metrics
        assert a.counters == b.counters

    def test_batched_and_generic_fault_paths_agree(self, monkeypatch, set_batched_faults):
        # The batched touch_pages path is a wall-clock optimisation only:
        # every modelled result, and every core's TLB hit and miss counts,
        # must match the per-page generic path, on anonymous (open-loop)
        # and file-backed (Apache) touches alike.
        systems = []

        def recording(build):
            def build_and_record(*args, **kwargs):
                systems.append(build(*args, **kwargs))
                return systems[-1]

            return build_and_record

        for module in (openloop_module, apache_module):
            monkeypatch.setattr(
                module, "warm_build_system", recording(module.warm_build_system)
            )

        def leg(batched, run, *args, **kwargs):
            set_batched_faults(batched)
            result = run(*args, **kwargs)
            tlbs = [core.tlb.stats() for core in systems[-1].machine.cores]
            return result.metrics, result.counters, tlbs

        assert leg(True, run_openloop, "linux", **SMALL) == leg(
            False, run_openloop, "linux", **SMALL
        )
        apache = dict(cores=2, warmup_ms=2, duration_ms=5)
        for mechanism in ("linux", "abis", "latr"):
            batched = leg(True, run_apache, mechanism, **apache)
            generic = leg(False, run_apache, mechanism, **apache)
            assert batched == generic, mechanism

    def test_overload_grows_backlog_and_tail(self):
        light = run_openloop("linux", **{**SMALL, "offered_kreq_s": 2.0})
        heavy = run_openloop("linux", **{**SMALL, "offered_kreq_s": 400.0})
        assert heavy.metric("backlog_requests") > light.metric("backlog_requests")
        assert heavy.metric("latency_p999_us") > light.metric("latency_p999_us")
        # Open loop: the achieved rate saturates below the offered rate.
        assert heavy.metric("achieved_kreq_s") < heavy.metric("offered_kreq_s")

    def test_bursty_arrival_runs(self):
        result = run_openloop("latr", **{**SMALL, "arrival": "bursty"})
        assert result.metric("samples") > 0


class TestWindowGatingDelta:
    """The warmup-pollution bugfix, asserted end to end."""

    def test_warmup_samples_excluded_from_percentiles(self):
        # Many connections on few cores: establishment storms through
        # mmap_sem during warmup, so requests arriving then queue for ages.
        scope = {**SMALL, "connections": 96, "warmup_ms": 6}
        gated = run_openloop("linux", gate_latencies=True, **scope)
        legacy = run_openloop("linux", gate_latencies=False, **scope)
        # Same simulation either way: modelled counters cannot move.
        assert gated.counters == legacy.counters
        assert gated.metric("achieved_kreq_s") == legacy.metric("achieved_kreq_s")
        # The legacy recorder keeps the warmup samples, so it reports a
        # different -- polluted -- distribution over more samples.
        assert gated.metric("samples") < legacy.metric("samples")
        percentiles = ("latency_p50_us", "latency_p99_us", "latency_p999_us")
        assert tuple(gated.metric(p) for p in percentiles) != tuple(
            legacy.metric(p) for p in percentiles
        )
