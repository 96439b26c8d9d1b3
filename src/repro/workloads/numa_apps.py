"""AutoNUMA application models (paper Figure 11).

Graph500, PBZIP2, Metis, fluidanimate and ocean_cp share one structural
story: workers own NUMA-local partitions, but a main thread keeps
re-initializing partitions on node 0 (centrally produced data: input
blocks, shuffled intermediate results). AutoNUMA samples pages -- paying a
synchronous shootdown per sampled chunk under Linux, a LATR state under
LATR -- and migrates the twice-remotely-touched ones back. The Figure 11
deltas track the sampling/migration rate: more migrations per second ->
bigger LATR win (the shootdown is 5.8%..21.1% of migration cost, paper
sections 2.1, 6.3).

Profiles differ in working-set size, scan aggressiveness, and how often
workers walk their partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import warm_build_system
from ..kernel.autonuma import AutoNuma
from ..mm.addr import PAGE_SIZE
from ..sim.engine import MSEC, SEC, Timeout
from .base import WorkloadResult


@dataclass(frozen=True)
class NumaProfile:
    """One application's NUMA behaviour fingerprint."""

    name: str
    #: Pages per worker partition (first-touched locally; the refresher
    #: re-initializes partitions on node 0 to create migration demand).
    pages_per_core: int
    #: How often each worker walks its partition (ns).
    touch_period_ns: int
    #: AutoNUMA scan period for this process (task_numa_work cadence).
    scan_period_ns: int
    #: Pages sampled per scan round.
    scan_pages: int
    #: How often the main thread re-initializes one partition on node 0.
    refresh_period_ns: int = 8 * MSEC


#: Calibrated against Figure 11's migrations/sec axis (0..14k) and deltas.
NUMA_PROFILES: Dict[str, NumaProfile] = {
    "fluidanimate": NumaProfile("fluidanimate", 96, 2 * MSEC, 10 * MSEC, 640),
    "ocean_cp": NumaProfile("ocean_cp", 112, 2 * MSEC, 10 * MSEC, 640),
    "graph500": NumaProfile("graph500", 128, 2 * MSEC, 10 * MSEC, 1024),
    "pbzip2": NumaProfile("pbzip2", 64, 4 * MSEC, 20 * MSEC, 96),
    "metis": NumaProfile("metis", 112, 2 * MSEC, 10 * MSEC, 512),
}


@dataclass
class NumaConfig:
    machine: str = "commodity-2s16c"
    cores: int = 16
    work_per_core_ms: int = 100
    seed: int = 1


class NumaWorkload:
    """Figure 11: normalized runtime + migrations/sec under AutoNUMA."""

    name = "numa"

    def __init__(self, profile: NumaProfile, config: Optional[NumaConfig] = None):
        self.profile = profile
        self.config = config or NumaConfig()

    def run(self, mechanism: str, **mechanism_kwargs) -> WorkloadResult:
        cfg = self.config
        prof = self.profile
        system = warm_build_system(
            mechanism, machine=cfg.machine, cores=cfg.cores, seed=cfg.seed, **mechanism_kwargs
        )
        kernel = system.kernel
        autonuma = AutoNuma.install(
            kernel,
            scan_period_ns=prof.scan_period_ns,
            scan_pages_per_round=prof.scan_pages,
            chunk_pages=16,  # change_prot_numa batches PMD-sized chunks
        )
        proc = kernel.create_process(prof.name)
        tasks = [kernel.spawn_thread(proc, f"t{i}", i) for i in range(cfg.cores)]
        partitions = {}
        ready = []
        finished = []
        all_done = system.sim.signal()
        work_ns = cfg.work_per_core_ms * MSEC

        def init_main():
            """Set up the partitions; workers first-touch their own pages
            (local placement), so the run starts in the steady state and
            the refresher is the only source of misplaced pages."""
            t0, c0 = tasks[0], kernel.machine.core(0)
            for task in tasks:
                vrange = yield from kernel.syscalls.mmap(
                    t0, c0, prof.pages_per_core * PAGE_SIZE
                )
                partitions[task.tid] = vrange
            autonuma.register(proc)
            ready.append(True)

        def worker(task, index):
            core = kernel.machine.core(task.home_core_id)
            while not ready:
                yield from core.execute(50_000)
            rng = kernel.rng.stream(f"numa-worker-{index}")
            vrange = partitions[task.tid]
            yield from kernel.syscalls.touch_pages(task, core, vrange, write=True)
            remaining = work_ns
            while remaining > 0:
                # Jittered touch period so workers do not phase-lock with
                # the AutoNUMA scanner.
                period = prof.touch_period_ns * rng.uniform(0.8, 1.2)
                chunk = int(min(period, remaining))
                yield from core.execute(chunk)
                remaining -= chunk
                yield from kernel.syscalls.touch_pages(task, core, vrange, process_data=True)
            finished.append(system.sim.now)
            if len(finished) == cfg.cores:
                all_done.succeed()

        def refresher():
            """The main thread periodically re-initializes one partition on
            node 0 (centrally produced data: pbzip2 reading input blocks,
            Metis distributing map output). Workers on socket 1 then pull
            their partitions back through AutoNUMA -- a steady, controlled
            stream of misplaced pages instead of a bistable ping-pong."""
            t0, c0 = tasks[0], kernel.machine.core(0)
            while not ready:
                yield from c0.execute(50_000)
            idx = 0
            while len(finished) < cfg.cores:
                yield Timeout(prof.refresh_period_ns)
                victim = tasks[idx % cfg.cores]
                idx += 1
                vrange = partitions[victim.tid]
                yield from kernel.syscalls.madvise_dontneed(t0, c0, vrange)
                yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)

        system.sim.spawn(init_main(), name="numa-init")
        system.sim.spawn(refresher(), name="numa-refresher")
        for index, task in enumerate(tasks):
            system.sim.spawn(worker(task, index), name=f"{prof.name}-{task.tid}")
        kernel.stats.start_all_windows()
        system.sim.run(until=system.sim.now + 100 * work_ns, stop=all_done)
        if len(finished) < cfg.cores:
            raise RuntimeError(f"{prof.name} did not finish")
        runtime = max(finished)
        kernel.stats.stop_all_windows()

        migrations = kernel.stats.counter("numa.migrations").value
        return WorkloadResult(
            workload=f"numa-{prof.name}",
            mechanism=mechanism,
            metrics={
                "runtime_ms": runtime / MSEC,
                "migrations_per_sec": migrations * SEC / runtime,
                "migrations": float(migrations),
                "samples_per_sec": kernel.stats.counter("numa.pages_sampled").value
                * SEC
                / runtime,
                "ipis_per_sec": kernel.stats.rate("ipi.sent").per_second(),
            },
            counters=kernel.stats.counters_snapshot(),
        )


def run_numa(profile: str, mechanism: str, mechanism_kwargs=None, **config_kwargs) -> WorkloadResult:
    """Run-one-cell entry point: boot a fresh system and run one AutoNUMA
    application profile (by name, keeping the cell picklable). Module-level
    so run cells can name it across process boundaries."""
    workload = NumaWorkload(NUMA_PROFILES[profile], NumaConfig(**config_kwargs))
    return workload.run(mechanism, **(mechanism_kwargs or {}))
