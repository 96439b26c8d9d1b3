"""Extra microbenchmark-workload behaviours not covered elsewhere."""

import pytest

from repro.workloads.microbench import MicrobenchConfig, MunmapMicrobench


class TestShapes:
    def test_shootdown_fraction_grows_with_cores_linux(self):
        fractions = []
        for cores in (2, 8, 16):
            result = MunmapMicrobench(MicrobenchConfig(cores=cores, reps=12)).run("linux")
            fractions.append(result.metric("shootdown_fraction"))
        assert fractions[0] < fractions[1] < fractions[2]

    def test_latr_flat_shootdown_across_cores(self):
        """LATR's critical-path cost is core-count independent (one state
        write) -- the flat curve in Figures 6/7."""
        costs = [
            MunmapMicrobench(MicrobenchConfig(cores=cores, reps=12))
            .run("latr")
            .metric("shootdown_us")
            for cores in (2, 8, 16)
        ]
        assert max(costs) - min(costs) < 0.05

    def test_p99_at_least_mean(self):
        result = MunmapMicrobench(MicrobenchConfig(cores=8, reps=30)).run("latr")
        assert result.metric("munmap_p99_us") >= result.metric("munmap_us") * 0.99

    def test_single_core_mechanism_parity(self):
        linux = MunmapMicrobench(MicrobenchConfig(cores=1, reps=12)).run("linux")
        latr = MunmapMicrobench(MicrobenchConfig(cores=1, reps=12)).run("latr")
        assert latr.metric("munmap_us") == pytest.approx(
            linux.metric("munmap_us"), rel=0.05
        )

    def test_machine_preset_selected(self):
        result = MunmapMicrobench(
            MicrobenchConfig(machine="large-numa-8s120c", cores=30, reps=6)
        ).run("latr")
        assert result.metric("munmap_us") > 0
        assert result.counters["sys.munmap"] == 6


class TestStateFootprintMetric:
    def test_memoverhead_reports_latr_state_kb(self):
        """The fixed state-queue memory metric cross-checks the spec's
        closed form (total_cores x 64 slots x 68 B, paper 4.1)."""
        from repro.hw import preset
        from repro.workloads.microbench import run_memoverhead

        cores = 8
        result = run_memoverhead("latr", cores=cores, reps=6)
        spec = preset("commodity-2s16c").with_cores(cores)
        assert result.metrics["latr_state_kb"] == pytest.approx(
            spec.latr_state_footprint_bytes / 1024
        )

    def test_numapte_has_no_state_queue_metric(self):
        from repro.workloads.microbench import run_memoverhead

        result = run_memoverhead("numapte", cores=4, reps=6)
        assert "latr_state_kb" not in result.metrics
