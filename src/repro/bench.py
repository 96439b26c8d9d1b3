"""Wall-clock benchmark harness: how fast does the *simulator* run?

Everything else in the repo measures simulated nanoseconds; this module
measures host seconds. ``python -m repro bench`` times a fixed suite --
fast-mode fig6/fig9/fuzz-smoke plus a 120-core sweep-stress microbench --
and writes ``BENCH_<timestamp>.json`` into ``benchmarks/results/`` with
per-case wall-clock and simulator events/sec. Each run is compared against
the most recent previous ``BENCH_*.json`` so perf regressions fail loudly
(``--check-regression`` turns a regression into a non-zero exit).

The sweep-stress case runs twice on the paper's 8-socket/120-core machine:
once with the LATR active-state index (the default) and once with the
original full O(cores x queue_depth) scan (``use_sweep_index=False``). The
JSON records both wall-clocks and the speedup, and the two legs' complete
``StatsRegistry.summary()`` dicts are asserted identical -- the index must
never change a modelled result.

Two engine microbenches time the simulator core on fixed schedules
(shared deterministic xorshift RNG): **engine-stress** times periodic +
one-shot churn with cancellations through the event heap alone;
**invalidate-stress** replays a fill/invalidate_range/flush mix with
``use_tlb_index`` on vs off, asserting dropped-counts, entries and
``stats()`` match and recording ``speedup_vs_scan``. A mismatch fails the
bench.

The mc-snapshot case runs one exhaustive model-checker exploration twice:
backtracking via executor ``fork()``/``restore()`` snapshots (the default)
and via honest prefix replay (``use_snapshots=False``). Both legs must
reach the same verdict, node count and canonical state-hash set
(``hashes_match``), and the snapshot leg must be at least
``MC_SNAPSHOT_MIN_SPEEDUP`` times faster (``speedup_ok``) -- the explorer
silently falling back to replay fails the bench.

The openloop-stress case runs the open-loop service workload (the ``slo``
experiment's engine) on the 120-core box twice: with the batched
``touch_pages`` fault path (the default) and with the per-page generic
path (``use_batched_faults=False``). The legs' metrics and counters must
be identical (``tables_match``), and the batched leg must clear an
absolute simulator-throughput floor, ``OPENLOOP_MIN_EVENTS_PER_SEC``
(``events_floor_ok``) -- best-of up to ``OPENLOOP_FLOOR_ROUNDS`` timing
rounds, since absolute rates swing with host phase.

The fleet-stress case lights up the 16-socket/960-core fleet spec: many
concurrent drivers churn mmap/touch/remote-touch/munmap so every tick all
960 cores sweep the packed LATR queues while the TLB fill/invalidate and
frame alloc/free paths churn. It gates on an absolute events/s floor
(``events_floor_ok``). Its modelled output is pinned separately: ``repro
ci``'s fleet smoke checks a shorter scope's stats summary against golden
fingerprints (``FLEET_SMOKE_FINGERPRINTS``).

The all-fast-parallel case (full suite only) runs every registered
experiment in fast mode twice -- serially, then with the run cells sharded
over one worker process per CPU -- and records the jobs=1 vs jobs=N
speedup. The two legs' rendered tables are asserted byte-identical
(``tables_match``); a mismatch fails the bench like a stats divergence.

JSON format (one file per run)::

    {
      "schema": 1,
      "created": "2026-08-06T12:34:56",
      "quick": false,
      "python": "3.11.9",
      "threshold_pct": 25.0,
      "cases": {
        "fig6-fast": {"wall_s": 0.21, "events": 412345, "events_per_sec": 1.9e6},
        ...,
        "sweep-stress-120c": {
          "wall_s": 1.8, "events": ..., "events_per_sec": ...,
          "full_scan_wall_s": 9.4, "speedup_vs_full_scan": 5.2,
          "stats_match": true
        }
      },
      "comparison": {"previous": "BENCH_...json", "regressions": []}
    }
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

DEFAULT_BENCH_DIR = os.path.join("benchmarks", "results")
DEFAULT_THRESHOLD_PCT = 25.0
SCHEMA_VERSION = 1

#: Simulated milliseconds the sweep-stress microbench runs for. Long enough
#: that tick sweeps dominate the one-off machine-build cost, so the indexed
#: vs full-scan wall-clock ratio reflects the sweep hot path.
SWEEP_STRESS_MS = 60
SWEEP_STRESS_MS_QUICK = 20

#: Events the engine-stress microbench executes (pure Simulator churn:
#: periodic timers plus one-shot schedules at mixed horizons, with
#: cancellations).
ENGINE_STRESS_EVENTS = 120_000
ENGINE_STRESS_EVENTS_QUICK = 30_000

#: Operations the invalidate-stress microbench performs against a bare Tlb
#: (fills across many PCIDs, range invalidations, per-PCID flushes). Run
#: twice -- per-pcid index on and off -- and the two legs' drop counts,
#: surviving entries, and counter stats must be identical.
INVALIDATE_STRESS_OPS = 6_000
INVALIDATE_STRESS_OPS_QUICK = 1_500

#: (cores, pages, ops) scope of the mc-snapshot microbench: exhaustive DPOR
#: exploration run twice, once backtracking via executor fork/restore
#: snapshots and once via honest prefix replay. The two legs must visit the
#: same node count and canonical state set; their wall-clock ratio is the
#: snapshot machinery's speedup and is gated at MC_SNAPSHOT_MIN_SPEEDUP.
#: A wide machine (4 cores, the mc CLI's core cap) is the representative
#: load: every replayed prefix starts with a fresh 4-core boot, which is
#: exactly the cost restore() avoids, and deeper page pressure (3 slots)
#: keeps LATR states live across more of each trace. Quick and full runs
#: share the scope so their baselines compare.
MC_SNAPSHOT_SCOPE = (4, 3, 5)
MC_SNAPSHOT_SCOPE_QUICK = (4, 3, 5)
MC_SNAPSHOT_MIN_SPEEDUP = 5.0

#: Fixed scope of the openloop-stress microbench: the open-loop service
#: workload on the 120-core box, offered load held below the Linux
#: capacity knee so the measured window is steady state (no unbounded
#: backlog distorting later rounds), with long per-request service times
#: so the arrival path -- dispatch, per-request mmap/touch/munmap, and
#: execute quanta -- dominates the event mix. Quick and full runs share
#: the scope so their baselines compare.
OPENLOOP_STRESS_SCOPE = dict(
    machine="large-numa-8s120c",
    mechanism="linux",
    offered_kreq_s=5.0,
    request_work_ns=8_000_000,
    request_pages=1,
    conn_churn_per_sec=0.0,
    warmup_ms=5,
    duration_ms=100,
)

#: Absolute simulator-throughput floor for the openloop-stress case. The
#: open-loop hot path's trajectory across baselines is 49.6k -> 170k ->
#: this stop at >=300k events/s, reached by the batched fault path (flat
#: per-page loop under one mmap_sem hold, no nested generator frames or
#: redundant walks). Absolute wall-clock rates swing with host phase, so
#: the case times up to OPENLOOP_FLOOR_ROUNDS batched rounds and gates on
#: the best -- a structural slowdown still fails every round.
OPENLOOP_MIN_EVENTS_PER_SEC = 300_000.0
OPENLOOP_FLOOR_ROUNDS = 8

#: Fixed scope of the fleet-stress microbench: the 16-socket/960-core
#: fleet spec under many concurrent mmap/touch/remote-touch/munmap
#: drivers, so every tick all 960 cores sweep a long active-state list
#: while the TLB fill/invalidate and frame alloc/free paths churn -- the
#: load the packed hot state (SoA LATR queues, int-encoded TLB slots,
#: slab frame frees) exists for. Quick and full runs share the scope so
#: their baselines compare.
FLEET_STRESS_SCOPE = dict(
    machine="fleet-16s960c",
    drivers=96,
    pages=4,
    touchers=3,
    duration_ms=8,
)
#: The case's boot seed, which also draws each driver's offset into the
#: remote-toucher rotation. Reports record it: a baseline without it
#: predates the offsets and ran another op sequence.
FLEET_STRESS_SEED = 7

#: The fleet-stress case's absolute simulator-throughput floor. Absolute
#: rates swing with host phase, so the case times up to
#: FLEET_FLOOR_ROUNDS rounds and gates on the best.
FLEET_MIN_EVENTS_PER_SEC = 20_000.0
FLEET_FLOOR_ROUNDS = 6

#: The short fleet scope ``repro ci``'s fleet smoke runs (about 0.1 s a
#: seed), and the golden fingerprint (:func:`fleet_fingerprint`) of its
#: ``run_fleet_stress`` stats summary at the benchmark's default rotation
#: seed and a held-out one. The values are the same under any
#: PYTHONHASHSEED; a change that moves one must update it here and name
#: the cause in CHANGES.md.
FLEET_SMOKE_SCOPE = dict(
    machine="fleet-16s960c", drivers=8, pages=4, touchers=3, duration_ms=2
)
FLEET_SMOKE_FINGERPRINTS = {1: "46e1afdeb8c0604b", 7919: "ae0da4f0dca2e0a3"}


# ---------------------------------------------------------------------------
# Timed execution
# ---------------------------------------------------------------------------


@dataclass
class CaseResult:
    """One timed suite entry."""

    name: str
    wall_s: float
    events: int
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
        }
        out.update(self.extra)
        return out


def _timed(fn: Callable[[], object], rounds: int = 1) -> Tuple[float, int, object]:
    """Run ``fn`` returning (wall seconds, simulator events executed, result).

    With ``rounds > 1`` this is best-of-N: a single-shot wall clock taken
    mid-suite swings tens of percent with allocator and cyclic-GC state
    left by earlier cases, so the microbench cases time each (deterministic)
    leg a few times after a collect and keep the minimum -- the stable
    statistic for a fixed workload."""
    import gc

    from .sim.engine import Simulator

    best: Optional[Tuple[float, int, object]] = None
    for _ in range(rounds):
        if rounds > 1:
            gc.collect()
        events_before = Simulator.total_events_executed
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        events = Simulator.total_events_executed - events_before
        if best is None or wall < best[0]:
            best = (wall, events, result)
    return best


# ---------------------------------------------------------------------------
# The sweep-stress microbench
# ---------------------------------------------------------------------------


def run_sweep_stress(
    duration_ms: int = SWEEP_STRESS_MS,
    use_sweep_index: bool = True,
    machine: str = "large-numa-8s120c",
) -> Dict[str, object]:
    """Tick-dominated load on the big box: a task pinned to every core (so
    every core sweeps every tick) while core 0 keeps a trickle of munmaps
    posting LATR states that a scatter of remote cores has cached. Returns
    the final ``StatsRegistry.summary()`` so callers can assert the indexed
    and full-scan runs are modelled identically."""
    from . import build_system
    from .mm.addr import PAGE_SIZE
    from .sim.engine import MSEC, AllOf, Timeout

    system = build_system(
        "latr", machine=machine, seed=7, use_sweep_index=use_sweep_index
    )
    kernel = system.kernel
    cores = kernel.machine.cores
    proc = kernel.create_process("sweep-stress")
    tasks = [kernel.spawn_thread(proc, f"ss.t{core.id}", core.id) for core in cores]

    def touch(task, vrange):
        core = kernel.machine.core(task.home_core_id)
        yield from kernel.syscalls.touch_pages(task, core, vrange, write=False)

    def driver():
        t0, c0 = tasks[0], kernel.machine.core(0)
        rep = 0
        while True:
            vrange = yield from kernel.syscalls.mmap(t0, c0, 4 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            # A few cacheing cores scattered across the sockets, rotating
            # with the rep count so sweeps keep pulling fresh remote state;
            # kept small so sweeps (not touches) dominate the wall-clock.
            remote = [tasks[(rep * 7 + i * 15 + 1) % len(tasks)] for i in range(4)]
            spawned = [
                system.sim.spawn(touch(task, vrange), name=f"ss.touch{task.tid}")
                for task in remote
            ]
            yield AllOf(spawned)
            yield from kernel.syscalls.munmap(t0, c0, vrange)
            rep += 1
            yield Timeout(MSEC)

    system.sim.spawn(driver(), name="sweep-stress-driver")
    system.sim.run(until=duration_ms * MSEC)
    return kernel.stats.summary()


def _sweep_stress_case(duration_ms: int) -> CaseResult:
    """Time both legs; report the indexed leg as the case proper and the
    full scan as its recorded pre-index baseline."""
    wall_idx, events_idx, summary_idx = _timed(
        lambda: run_sweep_stress(duration_ms, use_sweep_index=True), rounds=3
    )
    wall_full, _events_full, summary_full = _timed(
        lambda: run_sweep_stress(duration_ms, use_sweep_index=False), rounds=2
    )
    return CaseResult(
        name="sweep-stress-120c",
        wall_s=wall_idx,
        events=events_idx,
        extra={
            "sim_ms": duration_ms,
            "full_scan_wall_s": round(wall_full, 4),
            "speedup_vs_full_scan": round(wall_full / wall_idx, 2) if wall_idx > 0 else 0.0,
            "stats_match": summary_idx == summary_full,
        },
    )


# ---------------------------------------------------------------------------
# The pt-replication microbench (replicated vs single page table)
# ---------------------------------------------------------------------------


def run_pt_replication_stress(
    duration_ms: int = SWEEP_STRESS_MS,
    replicated: bool = True,
    machine: str = "large-numa-8s120c",
) -> Dict[str, object]:
    """Sweep-stress-shaped load through the numaPTE facade: core 0 keeps a
    trickle of mmaps/munmaps (each fanning out to every live replica when
    replication is on) while a rotating scatter of remote-socket cores
    touches the fresh range (each first touch a hardware walk, local under
    replication). ``replicated=False`` is the single-table leg of the
    wall-clock comparison: same mechanism, same op sequence, facade never
    built."""
    from . import build_system
    from .mm.addr import PAGE_SIZE
    from .sim.engine import MSEC, AllOf, Timeout

    system = build_system(
        "numapte", machine=machine, seed=7, use_pt_replication=replicated
    )
    kernel = system.kernel
    cores = kernel.machine.cores
    proc = kernel.create_process("pt-repl-stress")
    tasks = [kernel.spawn_thread(proc, f"pr.t{core.id}", core.id) for core in cores]

    def touch(task, vrange):
        core = kernel.machine.core(task.home_core_id)
        yield from kernel.syscalls.touch_pages(task, core, vrange, write=False)

    def driver():
        t0, c0 = tasks[0], kernel.machine.core(0)
        rep = 0
        while True:
            vrange = yield from kernel.syscalls.mmap(t0, c0, 4 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            remote = [tasks[(rep * 7 + i * 15 + 1) % len(tasks)] for i in range(4)]
            spawned = [
                system.sim.spawn(touch(task, vrange), name=f"pr.touch{task.tid}")
                for task in remote
            ]
            yield AllOf(spawned)
            yield from kernel.syscalls.munmap(t0, c0, vrange)
            rep += 1
            yield Timeout(MSEC)

    system.sim.spawn(driver(), name="pt-repl-stress-driver")
    system.sim.run(until=duration_ms * MSEC)
    return kernel.stats.summary()


#: Replicated-walk bookkeeping budget: the facade (mirrored mutations,
#: local-replica lookup, pending-count drains) may cost at most this much
#: wall-clock over the identical single-table run.
PT_REPLICATION_MAX_OVERHEAD_PCT = 10.0
PT_REPLICATION_PAIR_ROUNDS = 8


def _pt_replication_case(duration_ms: int) -> CaseResult:
    """Time both legs; the replicated leg is the case proper, pinned to
    <= PT_REPLICATION_MAX_OVERHEAD_PCT wall-clock over the single table.

    The legs are interleaved round by round (rather than one ``_timed``
    block each) with the in-pair order alternating, after an untimed
    warmup of each: a leg that always runs first (or cold) eats the
    process warmup and allocator drift, and the overhead ratio swings
    tens of percent. The gated overhead is the best *pair* ratio (the
    mc-snapshot statistic): per-leg minima can come from different host
    phases and swing past the budget on a loaded single-CPU host, while
    adjacent in-round legs share their phase."""
    import gc

    from .sim.engine import Simulator

    for leg in (False, True):  # untimed warmup
        run_pt_replication_stress(duration_ms, replicated=leg)
    best: Dict[bool, Tuple[float, int, Dict[str, object]]] = {}
    pair_overheads = []
    for round_idx in range(PT_REPLICATION_PAIR_ROUNDS):
        order = (False, True) if round_idx % 2 == 0 else (True, False)
        pair: Dict[bool, float] = {}
        for leg in order:
            gc.collect()
            events_before = Simulator.total_events_executed
            started = time.perf_counter()
            summary = run_pt_replication_stress(duration_ms, replicated=leg)
            wall = time.perf_counter() - started
            events = Simulator.total_events_executed - events_before
            pair[leg] = wall
            if leg not in best or wall < best[leg][0]:
                best[leg] = (wall, events, summary)
        pair_overheads.append(
            (pair[True] / pair[False] - 1.0) * 100.0 if pair[False] > 0 else 0.0
        )
        # The budget is a property of the code, not of one noisy sample:
        # stop as soon as some phase-matched pair clears it.
        if min(pair_overheads) <= PT_REPLICATION_MAX_OVERHEAD_PCT:
            break
    wall_repl, events_repl, summary_repl = best[True]
    wall_single, _events_single, _summary_single = best[False]
    overhead_pct = min(pair_overheads) if pair_overheads else 0.0
    return CaseResult(
        name="pt-replication-120c",
        wall_s=wall_repl,
        events=events_repl,
        extra={
            "sim_ms": duration_ms,
            "single_table_wall_s": round(wall_single, 4),
            "pair_overhead_pcts": [round(p, 2) for p in pair_overheads],
            "overhead_pct": round(overhead_pct, 2),
            "max_overhead_pct": PT_REPLICATION_MAX_OVERHEAD_PCT,
            "overhead_ok": overhead_pct <= PT_REPLICATION_MAX_OVERHEAD_PCT,
            # Correctness ride-along: the replicated leg must never walk
            # remotely, and must actually be replicating.
            "replicas_ok": (
                "count.pt.walk.remote" not in summary_repl
                and summary_repl.get("count.pt.replica.updates", 0) > 0
            ),
        },
    )


# ---------------------------------------------------------------------------
# The engine-stress microbench (event heap churn)
# ---------------------------------------------------------------------------


def _xorshift(state: List[int]) -> int:
    """Deterministic 32-bit xorshift; the stress benches must replay the
    exact same schedule on both legs."""
    x = state[0]
    x ^= (x << 13) & 0xFFFFFFFF
    x ^= x >> 17
    x ^= (x << 5) & 0xFFFFFFFF
    state[0] = x
    return x


def run_engine_stress(
    n_events: int = ENGINE_STRESS_EVENTS,
    record_order: bool = False,
):
    """Pure event-loop churn, no kernel model: eight periodic generators
    keep scheduling one-shot timers at near (< 4 us), mid (< 2 ms) and far
    (up to 52 ms) delays and cancel a deterministic subset. Returns
    ``(simulator, order_log)``; the order log (when recorded) is the
    executed ``(time, seq)`` sequence, whose hash the engine tests pin."""
    from .sim.engine import Simulator

    sim = Simulator()
    if record_order:
        sim.order_log = []
    rng = [0x2545F491]
    cancel_pool: List[object] = []

    def noop() -> None:
        pass

    def churn() -> None:
        for _ in range(3):
            r = _xorshift(rng)
            kind = r % 16
            if kind < 8:
                delay = 1 + (r >> 4) % 4_000
            elif kind < 14:
                delay = 4_096 + (r >> 4) % 2_000_000
            else:
                delay = 2_200_000 + (r >> 4) % 50_000_000
            handle = sim.after(delay, noop)
            if r & 1:
                cancel_pool.append(handle)
        while len(cancel_pool) > 32:
            victim = cancel_pool.pop(_xorshift(rng) % len(cancel_pool))
            victim.cancel()

    for i in range(8):
        sim.every(7_000 + 911 * i, churn, start=503 * i)
    sim.run(max_events=n_events)
    return sim, sim.order_log


def _engine_stress_case(n_events: int) -> CaseResult:
    # The order log stays on: the committed BENCH_*.json baselines timed it.
    wall, events, _result = _timed(
        lambda: run_engine_stress(n_events, record_order=True), rounds=3
    )
    return CaseResult(
        name="engine-stress",
        wall_s=wall,
        events=events,
        extra={"n_events": n_events},
    )


# ---------------------------------------------------------------------------
# The invalidate-stress microbench (per-pcid TLB index vs linear scan)
# ---------------------------------------------------------------------------


def run_invalidate_stress(
    ops: int = INVALIDATE_STRESS_OPS, use_index: bool = True
) -> Dict[str, object]:
    """Hammer one bare Tlb with a deterministic mix of fills (24 PCIDs,
    clustered vpns, occasional 2 MiB entries), range invalidations wide
    enough to overlap huge pages, and per-PCID flushes. Returns the final
    observable state -- drop count, surviving (pcid, vpn) keys in residence
    order, counter stats -- which must not depend on ``use_index``."""
    from .hw.tlb import HUGE_SPAN, Tlb, TlbEntry

    tlb = Tlb(capacity=4096, pcid_enabled=True, huge_capacity=128, use_index=use_index)
    rng = [0x9E3779B9]
    drops = 0
    for op in range(ops):
        r = _xorshift(rng)
        pcid = 1 + r % 24
        base = (r >> 8) % 1_000_000
        kind = op % 8
        if kind < 3:
            stride = (r >> 5) % 3 + 1
            for i in range(32):
                tlb.fill(pcid, base + i * stride, TlbEntry(pfn=op * 32 + i))
            if (r >> 3) % 4 == 0:
                tlb.fill_huge(
                    pcid, base - base % HUGE_SPAN, TlbEntry(pfn=op)
                )
        elif kind < 7:
            width = 8 + (r >> 6) % 4096
            drops += tlb.invalidate_range(pcid, base, base + width)
        else:
            drops += tlb.flush(pcid)
    return {
        "drops": drops,
        "entries": [key for key, _ in tlb.items()],
        "huge_entries": [key for key, _ in tlb.huge_items()],
        "stats": tlb.stats(),
    }


def _invalidate_stress_case(ops: int) -> CaseResult:
    """Time both legs; ``events`` is the op count (this bench runs no
    simulator). Identical final TLB state is a hard gate."""
    wall_idx, _ev, result_idx = _timed(
        lambda: run_invalidate_stress(ops, use_index=True), rounds=3
    )
    wall_scan, _ev, result_scan = _timed(
        lambda: run_invalidate_stress(ops, use_index=False), rounds=2
    )
    return CaseResult(
        name="invalidate-stress",
        wall_s=wall_idx,
        events=ops,
        extra={
            "ops": ops,
            "scan_wall_s": round(wall_scan, 4),
            "speedup_vs_scan": round(wall_scan / wall_idx, 2) if wall_idx > 0 else 0.0,
            "state_match": result_idx == result_scan,
        },
    )


# ---------------------------------------------------------------------------
# The mc-snapshot microbench (fork/restore backtracking vs prefix replay)
# ---------------------------------------------------------------------------


def run_mc_snapshot(
    cores: int, pages: int, ops: int, use_snapshots: bool
) -> Dict[str, object]:
    """One exhaustive model-checker run over the given scope (no mutation
    differential, hash collection on). Returns the verdict, the explored
    node count and the canonical state-hash set -- all of which must be
    identical between the snapshot and replay legs."""
    from .verify.mc.explorer import McConfig, McScope, run_mc

    report = run_mc(
        McConfig(
            scope=McScope(cores=cores, pages=pages, ops=ops),
            differential=False,
            collect_hashes=True,
            stop_on_first=False,
            use_snapshots=use_snapshots,
        )
    )
    hashes: set = set()
    nodes = 0
    for cell in report.cells:
        hashes |= set(cell.state_hashes)
        nodes += cell.nodes
    return {"verdict": report.verdict, "nodes": nodes, "hashes": hashes}


def _mc_snapshot_case(scope: Tuple[int, int, int], pairs: int = 3) -> CaseResult:
    """Time both legs as interleaved (snapshot, replay) pairs.

    A shared host swings either leg tens of percent between rounds, which
    a sequential best-of can pair pessimally (a throttled snapshot leg
    against a boosted replay leg). Interleaving keeps each ratio within
    one machine phase, and the best paired ratio is the stable statistic
    for the fixed, deterministic workload -- while a structural failure
    (the explorer silently falling back to prefix replay) still shows as
    ~1x in every pair. Two hard gates: the legs must visit identical
    (verdict, nodes, state set), and the best paired speedup must clear
    MC_SNAPSHOT_MIN_SPEEDUP."""
    import gc

    cores, pages, ops = scope
    runs = []
    for _ in range(pairs):
        gc.collect()
        snap_run = _timed(
            lambda: run_mc_snapshot(cores, pages, ops, use_snapshots=True)
        )
        gc.collect()
        replay_run = _timed(
            lambda: run_mc_snapshot(cores, pages, ops, use_snapshots=False)
        )
        runs.append((snap_run, replay_run))
    wall_snap, events_snap, res_snap = min(runs, key=lambda r: r[0][0])[0]
    wall_replay, _events_replay, res_replay = min(runs, key=lambda r: r[1][0])[1]
    pair_speedups = [
        round(r_run[0] / s_run[0], 2) if s_run[0] > 0 else 0.0
        for s_run, r_run in runs
    ]
    speedup = max(pair_speedups)
    states = len(res_snap["hashes"])
    return CaseResult(
        name="mc-snapshot",
        wall_s=wall_snap,
        events=events_snap,
        extra={
            "mc_scope": f"{cores}c{pages}p{ops}o",
            "nodes": res_snap["nodes"],
            "states": states,
            "states_per_sec": round(states / wall_snap, 1) if wall_snap > 0 else 0.0,
            "replay_wall_s": round(wall_replay, 4),
            "pair_speedups": pair_speedups,
            "speedup_vs_replay": speedup,
            "min_speedup": MC_SNAPSHOT_MIN_SPEEDUP,
            "speedup_ok": speedup >= MC_SNAPSHOT_MIN_SPEEDUP,
            "hashes_match": (
                res_snap["verdict"] == res_replay["verdict"]
                and res_snap["nodes"] == res_replay["nodes"]
                and res_snap["hashes"] == res_replay["hashes"]
            ),
        },
    )


# ---------------------------------------------------------------------------
# The openloop-stress microbench (batched fault path vs per-page generic)
# ---------------------------------------------------------------------------


def run_openloop_stress(use_batched_faults: bool = True) -> Dict[str, object]:
    """One open-loop run at the fixed stress scope. Returns the complete
    observable outcome -- headline metrics plus the raw counter snapshot --
    which must not depend on ``use_batched_faults``: the batched path is a
    pure wall-clock optimisation and may never change a modelled result."""
    from .workloads.openloop import run_openloop

    result = run_openloop(
        use_batched_faults=use_batched_faults, **OPENLOOP_STRESS_SCOPE
    )
    return {"metrics": dict(result.metrics), "counters": dict(result.counters)}


def _openloop_stress_case() -> CaseResult:
    """Time the batched leg until it clears the absolute events/s floor
    (best-of up to OPENLOOP_FLOOR_ROUNDS -- the host phase swings a leg
    tens of percent, and the floor is a property of the code, not of one
    noisy sample), then the per-page generic leg as its recorded baseline.
    Two hard gates: identical metrics+counters between the legs
    (``tables_match``) and the batched events/s floor (``events_floor_ok``)."""
    import gc

    best: Optional[Tuple[float, int, object]] = None
    rounds = 0
    for _ in range(OPENLOOP_FLOOR_ROUNDS):
        gc.collect()
        run = _timed(lambda: run_openloop_stress(use_batched_faults=True))
        rounds += 1
        if best is None or run[0] < best[0]:
            best = run
        if best[1] / best[0] >= OPENLOOP_MIN_EVENTS_PER_SEC:
            break
    wall_batched, events_batched, outcome_batched = best
    wall_generic, _events_generic, outcome_generic = _timed(
        lambda: run_openloop_stress(use_batched_faults=False), rounds=2
    )
    events_per_sec = events_batched / wall_batched if wall_batched > 0 else 0.0
    return CaseResult(
        name="openloop-stress-120c",
        wall_s=wall_batched,
        events=events_batched,
        extra={
            "sim_ms": OPENLOOP_STRESS_SCOPE["duration_ms"],
            "floor_rounds": rounds,
            "generic_wall_s": round(wall_generic, 4),
            "speedup_vs_generic": (
                round(wall_generic / wall_batched, 2) if wall_batched > 0 else 0.0
            ),
            "min_events_per_sec": OPENLOOP_MIN_EVENTS_PER_SEC,
            "events_floor_ok": events_per_sec >= OPENLOOP_MIN_EVENTS_PER_SEC,
            "tables_match": outcome_batched == outcome_generic,
        },
    )


# ---------------------------------------------------------------------------
# The fleet-stress microbench
# ---------------------------------------------------------------------------


def run_fleet_stress(
    scope: Optional[Dict[str, object]] = None,
    seed: int = FLEET_STRESS_SEED,
) -> Dict[str, object]:
    """FLEET_STRESS_SCOPE's churn on the 960-core fleet box: every driver
    process pins a task to every core, then loops mmap / local write touch /
    a rotating scatter of remote read touches / munmap, so LATR states post
    from many owner cores and stay live while all 960 cores sweep each
    tick. Returns the final ``StatsRegistry.summary()``. ``scope``
    overrides FLEET_STRESS_SCOPE (the CI fleet smoke runs
    FLEET_SMOKE_SCOPE). ``seed`` is the boot seed and draws each driver's
    offset into the remote-toucher rotation."""
    import random

    from . import build_system
    from .mm.addr import PAGE_SIZE
    from .sim.engine import MSEC, AllOf, Timeout

    scope = scope or FLEET_STRESS_SCOPE
    system = build_system("latr", machine=scope["machine"], seed=seed)
    kernel = system.kernel
    n_cores = len(kernel.machine.cores)
    n_drivers = scope["drivers"]
    n_pages = scope["pages"]
    n_touchers = scope["touchers"]
    rotation = random.Random(seed)
    offsets = [rotation.randrange(n_cores) for _ in range(n_drivers)]
    procs = [kernel.create_process(f"fleet{p}") for p in range(n_drivers)]
    tasks = [
        [kernel.spawn_thread(proc, f"fleet{p}.t{c}", c) for c in range(n_cores)]
        for p, proc in enumerate(procs)
    ]

    def touch(task, vrange):
        core = kernel.machine.core(task.home_core_id)
        yield from kernel.syscalls.touch_pages(task, core, vrange, write=False)

    def driver(p):
        home = (p * 17) % n_cores
        t0 = tasks[p][home]
        c0 = kernel.machine.core(home)
        rep = 0
        while True:
            vrange = yield from kernel.syscalls.mmap(t0, c0, n_pages * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            # Remote cacheing cores rotate with the rep count so sweeps
            # keep pulling fresh cross-socket state lines.
            remote = [
                tasks[p][(rep * 37 + i * 131 + home + 1 + offsets[p]) % n_cores]
                for i in range(n_touchers)
            ]
            spawned = [
                system.sim.spawn(touch(task, vrange), name=f"fleet.touch{task.tid}")
                for task in remote
            ]
            yield AllOf(spawned)
            yield from kernel.syscalls.munmap(t0, c0, vrange)
            rep += 1
            yield Timeout(MSEC // 8)

    for p in range(n_drivers):
        system.sim.spawn(driver(p), name=f"fleet-driver{p}")
    system.sim.run(until=scope["duration_ms"] * MSEC)
    return kernel.stats.summary()


def fleet_fingerprint(summary: Dict[str, object]) -> str:
    """Golden fingerprint of a ``run_fleet_stress`` stats summary: the
    first 16 hex digits of the sha256 of its sorted items' repr."""
    return hashlib.sha256(repr(sorted(summary.items())).encode()).hexdigest()[:16]


def _fleet_stress_case() -> CaseResult:
    """Time up to FLEET_FLOOR_ROUNDS rounds, keeping the fastest, until
    one clears the events/s floor (``events_floor_ok``)."""
    import gc

    best: Optional[Tuple[float, int, object]] = None
    rounds = 0
    for _ in range(FLEET_FLOOR_ROUNDS):
        gc.collect()
        run = _timed(run_fleet_stress)
        rounds += 1
        if best is None or run[0] < best[0]:
            best = run
        if best[1] / best[0] >= FLEET_MIN_EVENTS_PER_SEC:
            break
    wall, events, _summary = best
    events_per_sec = events / wall if wall > 0 else 0.0
    return CaseResult(
        name="fleet-stress-960c",
        wall_s=wall,
        events=events,
        extra={
            "sim_ms": FLEET_STRESS_SCOPE["duration_ms"],
            "drivers": FLEET_STRESS_SCOPE["drivers"],
            "seed": FLEET_STRESS_SEED,
            "floor_rounds": rounds,
            "min_events_per_sec": FLEET_MIN_EVENTS_PER_SEC,
            "events_floor_ok": events_per_sec >= FLEET_MIN_EVENTS_PER_SEC,
        },
    )


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def _experiment_case(exp_id: str) -> CaseResult:
    from .experiments import run_experiment

    wall, events, result = _timed(lambda: run_experiment(exp_id, fast=True))
    return CaseResult(
        name=f"{exp_id}-fast", wall_s=wall, events=events,
        extra={"rows": len(result.rows)},
    )


def _all_parallel_case(jobs: Optional[int] = None) -> CaseResult:
    """``repro all --fast`` serially, then again sharded over ``jobs``
    worker processes. Records the speedup and asserts the rendered tables
    are byte-identical (``tables_match`` fails the bench when not).

    On a single-CPU host the parallel leg is skipped (sharding one core
    only measures pool overhead) and the speedup is reported as 1.0."""
    from .experiments import available_experiments, run_many

    exp_ids = available_experiments()
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    wall_serial, _parent_events, serial_runs = _timed(
        lambda: run_many(exp_ids, fast=True, jobs=1)
    )
    serial_tables = [run.result.render() for run in serial_runs]
    events = sum(run.events for run in serial_runs)
    cells = sum(len(run.outcomes) for run in serial_runs)
    extra: Dict[str, object] = {
        "experiments": len(exp_ids),
        "cells": cells,
        "jobs": jobs,
        "serial_wall_s": round(wall_serial, 4),
    }
    if jobs > 1:
        wall_par, _parent_events, parallel_runs = _timed(
            lambda: run_many(exp_ids, fast=True, jobs=jobs)
        )
        parallel_tables = [run.result.render() for run in parallel_runs]
        extra["speedup_vs_serial"] = (
            round(wall_serial / wall_par, 2) if wall_par > 0 else 0.0
        )
        extra["tables_match"] = parallel_tables == serial_tables
        wall = wall_par
    else:
        extra["speedup_vs_serial"] = 1.0
        extra["note"] = "single-CPU host: parallel leg skipped"
        wall = wall_serial
    return CaseResult(name="all-fast-parallel", wall_s=wall, events=events, extra=extra)


def bench_suite(quick: bool = False) -> List[Callable[[], CaseResult]]:
    """The fixed suite, as thunks (so case failures are attributable)."""
    if quick:
        return [
            lambda: _experiment_case("fig6"),
            lambda: _engine_stress_case(ENGINE_STRESS_EVENTS_QUICK),
            lambda: _invalidate_stress_case(INVALIDATE_STRESS_OPS_QUICK),
            lambda: _mc_snapshot_case(MC_SNAPSHOT_SCOPE_QUICK, pairs=2),
            lambda: _sweep_stress_case(SWEEP_STRESS_MS_QUICK),
            # Full duration even in quick mode: at 20 sim-ms each leg is
            # ~25 ms wall and timer jitter alone can swing the overhead
            # ratio past the 10% budget.
            lambda: _pt_replication_case(SWEEP_STRESS_MS),
            _openloop_stress_case,
            _fleet_stress_case,
        ]
    return [
        lambda: _experiment_case("fig6"),
        lambda: _experiment_case("fig9"),
        lambda: _experiment_case("fuzz-smoke"),
        lambda: _engine_stress_case(ENGINE_STRESS_EVENTS),
        lambda: _invalidate_stress_case(INVALIDATE_STRESS_OPS),
        lambda: _mc_snapshot_case(MC_SNAPSHOT_SCOPE),
        lambda: _sweep_stress_case(SWEEP_STRESS_MS),
        lambda: _pt_replication_case(SWEEP_STRESS_MS),
        _openloop_stress_case,
        _fleet_stress_case,
        lambda: _all_parallel_case(),
    ]


# ---------------------------------------------------------------------------
# Persistence + regression comparison
# ---------------------------------------------------------------------------


def previous_bench_file(bench_dir: str) -> Optional[str]:
    """Most recent BENCH_*.json already in ``bench_dir`` (lexicographic ==
    chronological, the filenames embed a sortable timestamp)."""
    files = sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json")))
    return files[-1] if files else None


def compare_to_previous(
    cases: Dict[str, Dict[str, object]],
    previous: Optional[Dict[str, object]],
    threshold_pct: float,
) -> List[str]:
    """Human-readable regression lines: cases whose wall-clock grew more
    than ``threshold_pct`` percent over the previous run's."""
    if not previous:
        return []
    regressions: List[str] = []
    prev_cases = previous.get("cases", {})
    for name, entry in cases.items():
        prev = prev_cases.get(name)
        if not isinstance(prev, dict):
            continue
        if any(
            prev.get(scale_key) != entry.get(scale_key)
            # Quick and full runs use different stress sizes,
            # all-fast-parallel varies with the host CPU count, and a
            # fleet-stress-960c report without a seed ran another op
            # sequence; such wall-clocks are not comparable.
            for scale_key in ("sim_ms", "jobs", "n_events", "ops", "mc_scope", "seed")
        ):
            continue
        prev_wall = prev.get("wall_s")
        wall = entry.get("wall_s")
        if not isinstance(prev_wall, (int, float)) or not isinstance(wall, (int, float)):
            continue
        if prev_wall > 0 and wall > prev_wall * (1.0 + threshold_pct / 100.0):
            regressions.append(
                f"{name}: {wall:.3f}s vs previous {prev_wall:.3f}s "
                f"(+{(wall / prev_wall - 1.0) * 100.0:.0f}%, threshold {threshold_pct:.0f}%)"
            )
    return regressions


def run_bench(
    bench_dir: str = DEFAULT_BENCH_DIR,
    quick: bool = False,
    check_regression: bool = False,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    suite: Optional[List[Callable[[], CaseResult]]] = None,
    echo: Callable[[str], None] = print,
) -> Tuple[Dict[str, object], int]:
    """Run the suite, write BENCH_<timestamp>.json, compare to the previous
    file. Returns (report dict, exit code): exit 1 means a case failed its
    own correctness check (sweep-stress stats mismatch) or, when
    ``check_regression`` is set, a wall-clock regression beyond threshold.
    Exit 2 means ``check_regression`` was requested but no committed
    BENCH_*.json baseline exists to compare against."""
    os.makedirs(bench_dir, exist_ok=True)
    prev_path = previous_bench_file(bench_dir)
    previous = None
    if prev_path:
        try:
            with open(prev_path) as fh:
                previous = json.load(fh)
        except (OSError, json.JSONDecodeError):
            echo(f"warning: could not read previous bench file {prev_path}")
    if check_regression and previous is None:
        echo(
            f"error: --check-regression requires a committed BENCH_*.json "
            f"baseline in {bench_dir}, and none was found (or it was "
            f"unreadable); run `python -m repro bench` once and commit the "
            f"result"
        )
        return {}, 2

    cases: Dict[str, Dict[str, object]] = {}
    failed = False
    for thunk in suite if suite is not None else bench_suite(quick):
        case = thunk()
        cases[case.name] = case.to_json()
        line = (
            f"  {case.name:<20} {case.wall_s:7.3f}s  "
            f"{case.events_per_sec:>12,.0f} events/s"
        )
        if "speedup_vs_full_scan" in case.extra:
            line += (
                f"  (full scan {case.extra['full_scan_wall_s']}s, "
                f"{case.extra['speedup_vs_full_scan']}x speedup)"
            )
        if "speedup_vs_scan" in case.extra:
            line += (
                f"  (scan {case.extra['scan_wall_s']}s, "
                f"{case.extra['speedup_vs_scan']}x speedup)"
            )
        if "speedup_vs_replay" in case.extra:
            line += (
                f"  (replay {case.extra['replay_wall_s']}s, "
                f"{case.extra['speedup_vs_replay']}x speedup, "
                f"{case.extra['states_per_sec']} states/s)"
            )
        if "speedup_vs_generic" in case.extra:
            line += (
                f"  (generic {case.extra['generic_wall_s']}s, "
                f"{case.extra['speedup_vs_generic']}x speedup)"
            )
        if "single_table_wall_s" in case.extra:
            line += (
                f"  (single table {case.extra['single_table_wall_s']}s, "
                f"{case.extra['overhead_pct']:+.1f}% overhead)"
            )
        if "speedup_vs_serial" in case.extra:
            line += (
                f"  (serial {case.extra['serial_wall_s']}s, "
                f"{case.extra['speedup_vs_serial']}x speedup on "
                f"{case.extra['jobs']} jobs)"
            )
        echo(line)
        if case.extra.get("stats_match") is False:
            echo(f"  {case.name}: FAIL -- indexed and full-scan stats diverge")
            failed = True
        if case.extra.get("tables_match") is False:
            echo(f"  {case.name}: FAIL -- the two legs' tables/stats diverge")
            failed = True
        if case.extra.get("state_match") is False:
            echo(f"  {case.name}: FAIL -- indexed and scan TLB states diverge")
            failed = True
        if case.extra.get("hashes_match") is False:
            echo(
                f"  {case.name}: FAIL -- snapshot and replay exploration "
                f"diverge (verdict/nodes/state set)"
            )
            failed = True
        if case.extra.get("events_floor_ok") is False:
            echo(
                f"  {case.name}: FAIL -- {case.events_per_sec:,.0f} events/s "
                f"below the {case.extra.get('min_events_per_sec'):,.0f} floor "
                f"after {case.extra.get('floor_rounds')} round(s)"
            )
            failed = True
        if case.extra.get("overhead_ok") is False:
            echo(
                f"  {case.name}: FAIL -- replication bookkeeping overhead "
                f"{case.extra.get('overhead_pct')}% over the single table "
                f"exceeds the {case.extra.get('max_overhead_pct')}% budget"
            )
            failed = True
        if case.extra.get("replicas_ok") is False:
            echo(
                f"  {case.name}: FAIL -- replicated leg walked remotely "
                f"or never fanned out an update"
            )
            failed = True
        if case.extra.get("speedup_ok") is False:
            echo(
                f"  {case.name}: FAIL -- snapshot backtracking speedup "
                f"{case.extra.get('speedup_vs_replay')}x below the "
                f"{case.extra.get('min_speedup')}x floor"
            )
            failed = True

    regressions = compare_to_previous(cases, previous, threshold_pct)
    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": quick,
        "python": platform.python_version(),
        "threshold_pct": threshold_pct,
        "cases": cases,
        "comparison": {
            "previous": os.path.basename(prev_path) if prev_path else None,
            "regressions": regressions,
        },
    }
    out_path = os.path.join(
        bench_dir, f"BENCH_{time.strftime('%Y%m%d-%H%M%S')}.json"
    )
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    echo(f"wrote {out_path}")

    for line in regressions:
        echo(f"  REGRESSION: {line}")
    if not regressions and prev_path:
        echo(f"  no regressions vs {os.path.basename(prev_path)}")

    exit_code = 1 if failed or (check_regression and regressions) else 0
    return report, exit_code
