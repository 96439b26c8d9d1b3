"""The munmap/TLB-shootdown microbenchmark (paper section 6.2.1).

One process, one thread per participating core. Each iteration maps a set
of pages, every core touches them (populating its TLB), and core 0 calls
munmap() -- forcing a shootdown covering all participating cores. The
benchmark reports the munmap() latency and the shootdown-only portion,
exactly the two panels of Figures 6 and 7; sweeping the page count gives
Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import warm_build_system
from ..mm.addr import PAGE_SIZE
from ..sim.engine import MSEC, AllOf
from .base import WorkloadResult


@dataclass
class MicrobenchConfig:
    machine: str = "commodity-2s16c"
    cores: int = 16
    pages: int = 1
    #: Iterations measured (the paper runs 250k; means stabilize long
    #: before that in a deterministic simulator).
    reps: int = 60
    seed: int = 1


def run_microbench(mechanism: str, mechanism_kwargs=None, **config_kwargs) -> WorkloadResult:
    """Run-one-cell entry point: boot a fresh system and run the munmap
    microbenchmark. Module-level (and all-picklable arguments) so run cells
    can name it across process boundaries."""
    bench = MunmapMicrobench(MicrobenchConfig(**config_kwargs))
    return bench.run(mechanism, **(mechanism_kwargs or {}))


def run_memoverhead(mechanism: str = "latr", mechanism_kwargs=None, **config_kwargs) -> WorkloadResult:
    """Run-one-cell entry point for the section 6.4 lazy-memory bound."""
    bench = MunmapMicrobench(MicrobenchConfig(**config_kwargs))
    return bench.lazy_memory_overhead(mechanism, **(mechanism_kwargs or {}))


def run_pt_placement(mechanism: str, mechanism_kwargs=None, **config_kwargs) -> WorkloadResult:
    """Run-one-cell entry point for the numaPTE placement experiment."""
    bench = PtPlacementBench(PtPlacementConfig(**config_kwargs))
    return bench.run(mechanism, **(mechanism_kwargs or {}))


@dataclass
class PtPlacementConfig:
    machine: str = "large-numa-8s120c"
    cores: Optional[int] = None
    pages: int = 64
    reps: int = 12
    seed: int = 1


class PtPlacementBench:
    """Page-table placement on a big NUMA box (the numaPTE experiment).

    One thread per socket shares a region homed (tables and all) on
    node 0. Every iteration maps fresh pages, the node-0 thread populates
    them, every remote socket then reads them -- each read is a TLB miss
    whose hardware walk descends the page table -- and node 0 unmaps.
    With ``use_pt_replication`` forced on for every mechanism,
    single-table kernels pay a hop charge per remote-socket walk, while a
    replicated mm walks its local replica and instead pays the fan-out
    cost on each mutation. The table this feeds shows exactly that trade.
    """

    name = "pt-placement"

    def __init__(self, config: Optional[PtPlacementConfig] = None):
        self.config = config or PtPlacementConfig()

    def run(self, mechanism: str, **mechanism_kwargs) -> WorkloadResult:
        cfg = self.config
        system = warm_build_system(
            mechanism,
            machine=cfg.machine,
            cores=cfg.cores,
            seed=cfg.seed,
            use_pt_replication=True,
            **mechanism_kwargs,
        )
        kernel = system.kernel
        machine = kernel.machine
        spec = machine.spec
        # One thread on the first core of each socket.
        leader_cores = [s * spec.cores_per_socket for s in range(spec.sockets)]
        proc = kernel.create_process("ptplace")
        tasks = [
            kernel.spawn_thread(proc, f"s{i}", cid)
            for i, cid in enumerate(leader_cores)
        ]

        def remote_reader(task, vrange):
            core = machine.core(task.home_core_id)
            yield from kernel.syscalls.touch_pages(task, core, vrange)

        finished = {}

        def driver():
            t0, c0 = tasks[0], machine.core(leader_cores[0])
            for _rep in range(cfg.reps):
                vrange = yield from kernel.syscalls.mmap(t0, c0, cfg.pages * PAGE_SIZE)
                yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
                spawned = [
                    system.sim.spawn(remote_reader(task, vrange), name=f"rd{task.tid}")
                    for task in tasks[1:]
                ]
                if spawned:
                    yield AllOf(spawned)
                yield from kernel.syscalls.munmap(t0, c0, vrange)
            finished["ns"] = system.sim.now

        start_ns = system.sim.now
        driver_proc = system.sim.spawn(driver(), name="ptplace-driver")
        system.sim.run(until=start_ns + 60_000 * MSEC, stop=driver_proc.done)
        if driver_proc.alive:
            raise RuntimeError("pt-placement run did not finish within the horizon")
        runtime_ns = finished["ns"] - start_ns

        stats = kernel.stats
        pt = proc.mm.page_table
        replica_pages = 0
        if hasattr(pt, "table_pages_by_node"):
            by_node = pt.table_pages_by_node()
            replica_pages = sum(
                pages for node, pages in by_node.items() if node != pt.home_node
            )
        return WorkloadResult(
            workload=self.name,
            mechanism=mechanism,
            metrics={
                "runtime_ms": runtime_ns / MSEC,
                "walks_local": float(stats.counter("pt.walk.local").value),
                "walks_remote": float(stats.counter("pt.walk.remote").value),
                "remote_walk_ms": stats.counter("pt.walk.remote_ns").value / MSEC,
                "replica_updates": float(stats.counter("pt.replica.updates").value),
                "replica_update_ms": stats.counter("pt.replica.update_ns").value / MSEC,
                "replica_table_pages": float(replica_pages),
            },
            counters=kernel.stats.counters_snapshot(),
        )


class MunmapMicrobench:
    """Figures 6, 7, 8."""

    name = "microbench"

    def __init__(self, config: Optional[MicrobenchConfig] = None):
        self.config = config or MicrobenchConfig()

    def run(self, mechanism: str, **mechanism_kwargs) -> WorkloadResult:
        cfg = self.config
        system = warm_build_system(
            mechanism,
            machine=cfg.machine,
            cores=cfg.cores,
            seed=cfg.seed,
            **mechanism_kwargs,
        )
        kernel = system.kernel
        proc = kernel.create_process("microbench")
        tasks = [kernel.spawn_thread(proc, f"t{i}", i) for i in range(cfg.cores)]
        munmap_samples = []

        def touch_from(task):
            core = kernel.machine.core(task.home_core_id)

            def gen(vrange):
                yield from kernel.syscalls.touch_pages(task, core, vrange, write=True)

            return gen

        def driver():
            t0, c0 = tasks[0], kernel.machine.core(0)
            for _rep in range(cfg.reps):
                vrange = yield from kernel.syscalls.mmap(t0, c0, cfg.pages * PAGE_SIZE)
                # Initiator populates first (takes the faults), then all
                # remote cores fill their TLBs concurrently.
                yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
                spawned = [
                    system.sim.spawn(touch_from(task)(vrange), name=f"touch{task.tid}")
                    for task in tasks[1:]
                ]
                if spawned:
                    yield AllOf(spawned)
                start = system.sim.now
                yield from kernel.syscalls.munmap(t0, c0, vrange)
                munmap_samples.append(system.sim.now - start)

        driver_proc = system.sim.spawn(driver(), name="driver")
        # Generous bound: reps * (page faults + a few ticks of slack).
        horizon = (cfg.reps * max(1, cfg.pages) * 10 + 200) * MSEC // 100
        system.sim.run(until=max(horizon, 500 * MSEC), stop=driver_proc.done)
        if driver_proc.alive:
            raise RuntimeError("microbench did not finish within the horizon")

        sd = kernel.stats.latency("shootdown.free")
        mean_munmap = sum(munmap_samples) / len(munmap_samples)
        result = WorkloadResult(
            workload=self.name,
            mechanism=mechanism,
            metrics={
                "munmap_us": mean_munmap / 1000.0,
                "munmap_p50_us": sorted(munmap_samples)[int(0.50 * (len(munmap_samples) - 1))]
                / 1000.0,
                "munmap_p99_us": sorted(munmap_samples)[int(0.99 * (len(munmap_samples) - 1))]
                / 1000.0,
                "shootdown_us": sd.mean / 1000.0,
                "shootdown_fraction": (sd.mean / mean_munmap) if mean_munmap else 0.0,
                "fallback_ipis": float(
                    kernel.stats.counter("latr.fallback_ipi").value
                ),
            },
            counters=kernel.stats.counters_snapshot(),
        )
        return result

    def lazy_memory_overhead(self, mechanism: str = "latr", **mechanism_kwargs) -> WorkloadResult:
        """Section 6.4's memory-utilization bound: peak bytes parked on
        lazy lists during the run."""
        cfg = self.config
        system = warm_build_system(
            mechanism, machine=cfg.machine, cores=cfg.cores, seed=cfg.seed, **mechanism_kwargs
        )
        kernel = system.kernel
        proc = kernel.create_process("microbench")
        tasks = [kernel.spawn_thread(proc, f"t{i}", i) for i in range(cfg.cores)]
        peak = {"bytes": 0}

        def sample_peak():
            coherence = kernel.coherence
            if hasattr(coherence, "lazy_bytes_outstanding"):
                peak["bytes"] = max(peak["bytes"], coherence.lazy_bytes_outstanding())

        def driver():
            t0, c0 = tasks[0], kernel.machine.core(0)
            for _rep in range(cfg.reps):
                vrange = yield from kernel.syscalls.mmap(t0, c0, cfg.pages * PAGE_SIZE)
                yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
                spawned = [
                    system.sim.spawn(
                        kernel.syscalls.touch_pages(
                            task, kernel.machine.core(task.home_core_id), vrange
                        )
                    )
                    for task in tasks[1:]
                ]
                if spawned:
                    yield AllOf(spawned)
                yield from kernel.syscalls.munmap(t0, c0, vrange)
                sample_peak()

        driver_proc = system.sim.spawn(driver())
        system.sim.run(until=1000 * MSEC, stop=driver_proc.done)
        if driver_proc.alive:
            raise RuntimeError("memory-overhead run did not finish")
        sample_peak()
        # Page-table memory by NUMA node: a replicated mm (numaPTE) spends
        # extra table pages per remote node; a flat table is all node-0.
        pt = proc.mm.page_table
        if hasattr(pt, "table_pages_by_node"):
            pt_pages = pt.table_pages_by_node()
        else:
            pt_pages = {0: pt.table_pages_allocated}
        metrics = {"peak_lazy_mb": peak["bytes"] / (1024 * 1024)}
        # Fixed per-core state-queue memory (paper 4.1: depth x 68 B per
        # core), summed over the actual queues so the number tracks the
        # live queues, not just the spec.
        coherence = kernel.coherence
        if hasattr(coherence, "queues"):
            state_bytes = sum(q.footprint_bytes() for q in coherence.queues.values())
            metrics["latr_state_kb"] = state_bytes / 1024
        for node in range(kernel.machine.spec.sockets):
            metrics[f"pt_pages_node{node}"] = float(pt_pages.get(node, 0))
        return WorkloadResult(
            workload="microbench-memoverhead",
            mechanism=mechanism,
            metrics=metrics,
            counters=kernel.stats.counters_snapshot(),
        )
