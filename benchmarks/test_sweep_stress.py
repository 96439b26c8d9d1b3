"""Benchmark the simulator hot paths on the paper's 120-core machine.

Times the sweep-stress microbench with the active-state index on and off
(the indexed run must be at least 2x faster) and the invalidate-stress
microbench with the per-pcid TLB index on and off (identical final state,
at least 2x faster) -- the same gates the wall-clock harness records in
BENCH_*.json. The sweep-stress case is also
held to >= 3x the events/sec of the committed pre-wheel baseline.
"""

import gc
import json
import os
import time

#: The committed pre-timer-wheel baseline this PR's 3x target is measured
#: against (see EXPERIMENTS.md).
BASELINE_FILE = "BENCH_20260806-190159.json"
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def test_sweep_stress_index_speedup(benchmark):
    from repro.bench import SWEEP_STRESS_MS, run_sweep_stress

    started = time.perf_counter()
    full_summary = run_sweep_stress(SWEEP_STRESS_MS, use_sweep_index=False)
    full_wall = time.perf_counter() - started

    started = time.perf_counter()
    indexed_summary = benchmark.pedantic(
        run_sweep_stress,
        args=(SWEEP_STRESS_MS,),
        kwargs={"use_sweep_index": True},
        rounds=1,
        iterations=1,
    )
    indexed_wall = time.perf_counter() - started

    print(
        f"\nsweep-stress-120c: indexed {indexed_wall:.2f}s, "
        f"full scan {full_wall:.2f}s, speedup {full_wall / indexed_wall:.2f}x"
    )
    assert indexed_summary == full_summary, "index changed a modelled result"
    assert full_wall >= 2.0 * indexed_wall, (
        f"sweep index speedup below 2x: {full_wall / indexed_wall:.2f}x"
    )


def test_sweep_stress_beats_prewheel_baseline():
    """The tentpole gate: >= 3x the events/sec of the committed pre-wheel
    baseline BENCH file (best of three, wall-clock timing is noisy)."""
    from repro.bench import SWEEP_STRESS_MS, run_sweep_stress
    from repro.sim.engine import Simulator

    path = os.path.join(RESULTS_DIR, BASELINE_FILE)
    with open(path) as fh:
        baseline = json.load(fh)
    base_eps = baseline["cases"]["sweep-stress-120c"]["events_per_sec"]

    best_eps = 0.0
    for _ in range(3):
        # Earlier tests in this file leave the cyclic GC primed mid-cycle;
        # collect so each round times the workload, not the leftovers.
        gc.collect()
        events_before = Simulator.total_events_executed
        started = time.perf_counter()
        run_sweep_stress(SWEEP_STRESS_MS, use_sweep_index=True)
        wall = time.perf_counter() - started
        events = Simulator.total_events_executed - events_before
        best_eps = max(best_eps, events / wall)

    print(
        f"\nsweep-stress-120c: {best_eps:,.0f} events/s vs baseline "
        f"{base_eps:,.0f} ({best_eps / base_eps:.2f}x)"
    )
    assert best_eps >= 3.0 * base_eps, (
        f"sweep-stress below 3x pre-wheel baseline: {best_eps / base_eps:.2f}x"
    )


def test_invalidate_stress_index_speedup(benchmark):
    """Per-pcid TLB index vs linear scan: identical final TLB state, and
    the indexed run must be at least 2x faster."""
    from repro.bench import INVALIDATE_STRESS_OPS, run_invalidate_stress

    started = time.perf_counter()
    scan_result = run_invalidate_stress(INVALIDATE_STRESS_OPS, use_index=False)
    scan_wall = time.perf_counter() - started

    started = time.perf_counter()
    indexed_result = benchmark.pedantic(
        run_invalidate_stress,
        args=(INVALIDATE_STRESS_OPS,),
        kwargs={"use_index": True},
        rounds=1,
        iterations=1,
    )
    indexed_wall = time.perf_counter() - started

    print(
        f"\ninvalidate-stress: indexed {indexed_wall:.2f}s, "
        f"scan {scan_wall:.2f}s, speedup {scan_wall / indexed_wall:.2f}x"
    )
    assert indexed_result == scan_result, "TLB index changed observable state"
    assert scan_wall >= 2.0 * indexed_wall, (
        f"TLB index speedup below 2x: {scan_wall / indexed_wall:.2f}x"
    )
