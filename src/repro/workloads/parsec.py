"""PARSEC/SPLASH-style application profiles (paper Figures 10, 12; Table 4).

The paper runs the PARSEC suite unmodified and reports *normalized runtime*
(LATR vs Linux) against each benchmark's TLB-shootdown rate. What matters
for reproduction is therefore the per-application rate and shape of VM
activity, not the computation itself. Each profile drives one thread per
core through a fixed amount of work, plus:

* ``free_ops_per_sec`` batched ``madvise``/``munmap`` calls over a shared
  mapping (dedup's allocator churn, vips's buffer recycling, ...),
* ``ctx_switches_per_sec`` synthetic context switches (canneal's frequent
  blocking), which trigger LATR sweeps, and
* an LLC profile for the Table 4 comparison; cache-thrashing apps also pay
  a cold-cache penalty on every sweep (their state-queue lines never stay
  resident).

Rates are calibrated against the shootdowns/sec axis of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import warm_build_system
from ..coherence.latr import LatrCoherence
from ..hw.cache import CacheProfile
from ..mm.addr import PAGE_SIZE
from ..sim.engine import MSEC, SEC
from .base import WorkloadResult


@dataclass(frozen=True)
class ParsecProfile:
    """One application's VM-activity fingerprint."""

    name: str
    #: madvise()-style free operations per second, whole application.
    free_ops_per_sec: float
    #: Pages freed per operation (dedup frees large chunk buffers).
    pages_per_op: int
    #: Synthetic context switches per second per core.
    ctx_switches_per_sec: float
    #: Cold-cache sweep penalty (ns) -- nonzero for LLC-thrashing apps.
    sweep_cold_ns: int = 0
    #: Table 4 LLC profile (None for apps the paper doesn't list).
    cache: Optional[CacheProfile] = None


#: Calibrated against Figure 10's shootdowns/sec (right axis) and Table 4.
#: ctx_switches_per_sec is per core; free_ops_per_sec is application-wide.
PARSEC_PROFILES: Dict[str, ParsecProfile] = {
    "blackscholes": ParsecProfile("blackscholes", 100, 2, 20),
    "bodytrack": ParsecProfile("bodytrack", 5_000, 4, 300),
    "canneal": ParsecProfile(
        "canneal", 300, 2, 9_000, sweep_cold_ns=1_500,
        cache=CacheProfile(38e6, 80.51),
    ),
    "dedup": ParsecProfile(
        "dedup", 25_000, 24, 900, cache=CacheProfile(45e6, 18.33)
    ),
    "facesim": ParsecProfile("facesim", 1_500, 4, 180, cache=CacheProfile(42e6, 0.0)),
    "ferret": ParsecProfile("ferret", 3_000, 4, 700, cache=CacheProfile(44e6, 48.02)),
    "fluidanimate": ParsecProfile("fluidanimate", 400, 2, 260),
    "freqmine": ParsecProfile("freqmine", 150, 2, 60),
    "netdedup": ParsecProfile("netdedup", 18_000, 14, 800),
    "raytrace": ParsecProfile("raytrace", 400, 2, 90),
    "streamcluster": ParsecProfile(
        "streamcluster", 1_000, 2, 350, sweep_cold_ns=900,
        cache=CacheProfile(40e6, 95.42),
    ),
    "swaptions": ParsecProfile(
        "swaptions", 200, 2, 120, cache=CacheProfile(46e6, 47.48)
    ),
    "vips": ParsecProfile("vips", 8_000, 6, 500),
}


@dataclass
class ParsecConfig:
    machine: str = "commodity-2s16c"
    cores: int = 16
    #: Simulated CPU work per core for one "run" of the benchmark.
    work_per_core_ms: int = 120
    seed: int = 1


class ParsecWorkload:
    """Runs one profile to completion; the metric is wall-clock runtime."""

    name = "parsec"

    def __init__(self, profile: ParsecProfile, config: Optional[ParsecConfig] = None):
        self.profile = profile
        self.config = config or ParsecConfig()

    def run(self, mechanism: str, **mechanism_kwargs) -> WorkloadResult:
        cfg = self.config
        prof = self.profile
        system = warm_build_system(
            mechanism, machine=cfg.machine, cores=cfg.cores, seed=cfg.seed, **mechanism_kwargs
        )
        kernel = system.kernel
        if isinstance(kernel.coherence, LatrCoherence):
            kernel.coherence.cold_sweep_extra_ns = prof.sweep_cold_ns

        proc = kernel.create_process(prof.name)
        tasks = [kernel.spawn_thread(proc, f"t{i}", i) for i in range(cfg.cores)]
        work_ns = cfg.work_per_core_ms * MSEC
        finished = []
        all_done = system.sim.signal()

        # VM activity interval per core: the app-wide op rate split evenly.
        ops_per_core = prof.free_ops_per_sec / cfg.cores
        op_interval = int(SEC / ops_per_core) if ops_per_core > 0 else None
        ctx_interval = (
            int(SEC / prof.ctx_switches_per_sec) if prof.ctx_switches_per_sec > 0 else None
        )

        def worker(task):
            core = kernel.machine.core(task.home_core_id)
            # Working buffer this thread madvises pieces of.
            buf = yield from kernel.syscalls.mmap(
                task, core, max(prof.pages_per_op, 1) * PAGE_SIZE
            )
            remaining = work_ns
            next_op = op_interval
            next_ctx = ctx_interval
            while remaining > 0:
                slice_ns = min(
                    x for x in (remaining, next_op, next_ctx) if x is not None
                )
                yield from core.execute(slice_ns)
                remaining -= slice_ns
                if next_op is not None:
                    next_op -= slice_ns
                    if next_op <= 0:
                        next_op = op_interval
                        # Touch then free: the canonical shootdown generator.
                        yield from kernel.syscalls.touch_pages(task, core, buf, write=True)
                        # Make the buffer visible to the sibling cores the way
                        # shared heaps are: a neighbour touches it too.
                        sibling = tasks[(task.home_core_id + 1) % cfg.cores]
                        sib_core = kernel.machine.core(sibling.home_core_id)
                        yield from kernel.syscalls.touch_pages(sibling, sib_core, buf)
                        yield from kernel.syscalls.madvise_dontneed(task, core, buf)
                        kernel.stats.rate("parsec.ops").hit()
                if next_ctx is not None:
                    next_ctx -= slice_ns
                    if next_ctx <= 0:
                        next_ctx = ctx_interval
                        kernel.scheduler.synthetic_context_switch(core)
            finished.append(system.sim.now)
            if len(finished) == cfg.cores:
                all_done.succeed()

        kernel.stats.start_all_windows()
        system.machine.llc.start_window()
        for task in tasks:
            system.sim.spawn(worker(task), name=f"{prof.name}-{task.tid}")
        # Run until every worker finished.
        system.sim.run(until=system.sim.now + 60 * work_ns, stop=all_done)
        if len(finished) < cfg.cores:
            raise RuntimeError(f"{prof.name} did not finish")
        runtime = max(finished)
        kernel.stats.stop_all_windows()

        llc = system.machine.llc.summary()
        return WorkloadResult(
            workload=f"parsec-{prof.name}",
            mechanism=mechanism,
            metrics={
                "runtime_ms": runtime / MSEC,
                "shootdowns_per_sec": kernel.stats.rate("shootdowns").per_second(),
                "ipis_per_sec": kernel.stats.rate("ipi.sent").per_second(),
                "llc_pollution_lines": llc["pollution_lines"],
                "llc_state_lines": llc["state_lines"],
                "window_ns": float(runtime),
            },
            counters=kernel.stats.counters_snapshot(),
        )


def run_parsec(profile: str, mechanism: str, mechanism_kwargs=None, **config_kwargs) -> WorkloadResult:
    """Run-one-cell entry point: boot a fresh system and run one PARSEC
    profile (by name, keeping the cell picklable). Module-level so run
    cells can name it across process boundaries."""
    workload = ParsecWorkload(PARSEC_PROFILES[profile], ParsecConfig(**config_kwargs))
    return workload.run(mechanism, **(mechanism_kwargs or {}))
