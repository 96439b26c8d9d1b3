"""The benchmark's three fixed workloads, driven through the public API.

Each workload is a function ``run(seed, marks) -> Outcome``. The outcome
carries the modelled output that the digest covers, the output checks that
failed (empty when the run is correct), and the facts the per-layer table
needs that only the workload can see (the model checker's report).
``marks`` is the child's list of slice ends: the child appends one at every
simulated millisecond, and a workload that does not advance simulated time
by milliseconds (the model check) appends its own.

``repro`` is imported inside the functions, never at module level: the
child process times ``setup_s`` from before the first ``import repro``, and
the tracer must wrap the classes before the first boot.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List

#: The Fig. 9 cell set of ``repro fig9 --fast``, pinned here so the
#: benchmark does not move when the experiment definition does. Its
#: windows are cut from 10 + 40 ms to 5 + 10 ms: a run then takes about
#: 3 s instead of 10 s, so an invocation holds about nine runs instead of
#: three. The req/s ordering is unchanged.
APACHE_CORES = (2, 6, 12)
APACHE_MECHANISMS = ("linux", "abis", "latr")
APACHE_WARMUP_MS = 5
APACHE_DURATION_MS = 10

#: ``bench.FLEET_STRESS_SCOPE``, pinned for the same reason.
FLEET_SCOPE = dict(machine="fleet-16s960c", drivers=96, pages=4, touchers=3, duration_ms=8)

#: The bench's mc-snapshot leg: (cores, pages, ops).
MC_SCOPE = (4, 3, 5)
#: Its 11,159 restores make 12 slices of about 0.2 s.
MC_RESTORES_PER_SLICE = 1000


@dataclass
class Outcome:
    """What one workload run produced."""

    output: object
    problems: List[str] = field(default_factory=list)
    facts: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.output, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_apache_9cell(seed: int, marks: List[float]) -> Outcome:
    """Nine fresh Apache boots (2/6/12 cores x linux/abis/latr) back to
    back, each through ``run_apache``; ``seed`` is the boot seed, which
    also seeds the per-request file choice."""
    from repro.workloads.apache import run_apache

    cells = {}
    for cores in APACHE_CORES:
        for mech in APACHE_MECHANISMS:
            result = run_apache(
                mech,
                cores=cores,
                warmup_ms=APACHE_WARMUP_MS,
                duration_ms=APACHE_DURATION_MS,
                seed=seed,
            )
            cells[f"{cores}c/{mech}"] = {
                "metrics": dict(result.metrics),
                "counters": dict(result.counters),
            }
    problems = [
        f"{cell} served no requests"
        for cell, out in cells.items()
        if not out["metrics"]["requests_per_sec"] > 0
    ]
    top = max(APACHE_CORES)
    latr = cells[f"{top}c/latr"]["metrics"]["requests_per_sec"]
    linux = cells[f"{top}c/linux"]["metrics"]["requests_per_sec"]
    if not latr > linux:
        problems.append(
            f"latr {latr:.0f} req/s does not beat linux {linux:.0f} req/s at {top} cores"
        )
    return Outcome(output=cells, problems=problems)


def run_fleet_latr_960c(seed: int, marks: List[float]) -> Outcome:
    """``bench.run_fleet_stress`` (packed LATR on the 960-core fleet box),
    copied so the seed reaches the boot and the remote-toucher rotation,
    which the bench hardcodes."""
    from repro import build_system
    from repro.mm.addr import PAGE_SIZE
    from repro.sim.engine import MSEC, AllOf, Timeout

    scope = FLEET_SCOPE
    system = build_system("latr", machine=scope["machine"], seed=seed)
    kernel = system.kernel
    n_cores = len(kernel.machine.cores)
    n_pages = scope["pages"]
    n_touchers = scope["touchers"]
    rotation = random.Random(seed)
    offsets = [rotation.randrange(n_cores) for _ in range(scope["drivers"])]
    procs = [kernel.create_process(f"fleet{p}") for p in range(scope["drivers"])]
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

    for p in range(scope["drivers"]):
        system.sim.spawn(driver(p), name=f"fleet-driver{p}")
    system.sim.run(until=scope["duration_ms"] * MSEC)
    summary = kernel.stats.summary()
    problems = []
    sweeps = summary.get("count.latr.sweeps", 0)
    ticks = summary.get("count.sched.ticks", 0)
    if sweeps != ticks:
        problems.append(f"latr.sweeps {sweeps} != sched.ticks {ticks}")
    for name in ("latr.states_posted", "latr.entries_invalidated"):
        if not summary.get(f"count.{name}", 0) > 0:
            problems.append(f"{name} is zero")
    return Outcome(output=summary, problems=problems)


def run_mc_4c3p5o(seed: int, marks: List[float]) -> Outcome:
    """Exhaustive model check of the fixed scope with snapshot
    backtracking and the differential oracle off. Exhaustive, so ``seed``
    changes nothing. A slice ends at every MC_RESTORES_PER_SLICE-th
    snapshot restore."""
    from repro.verify.mc.executor import McExecutor
    from repro.verify.mc.explorer import McConfig, McScope, run_mc

    cores, pages, ops = MC_SCOPE
    restores = [0]
    restore = McExecutor.__dict__["restore"]

    def restore_and_mark(executor, snap):
        restores[0] += 1
        if restores[0] % MC_RESTORES_PER_SLICE == 0:
            marks.append(perf_counter())
        return restore(executor, snap)

    McExecutor.restore = restore_and_mark
    try:
        report = run_mc(
            McConfig(
                scope=McScope(cores=cores, pages=pages, ops=ops),
                differential=False,
                collect_hashes=True,
                stop_on_first=False,
                use_snapshots=True,
            )
        )
    finally:
        McExecutor.restore = restore
    hashes = set()
    for cell in report.cells:
        hashes |= cell.state_hashes
    facts = {
        "mc_nodes": report.nodes,
        "mc_states": len(hashes),
        "hash_pruned": report.hash_pruned,
        "sleep_skipped": report.sleep_skipped,
        "restores": sum(c.restores for c in report.cells),
        "replays": sum(c.replays for c in report.cells),
    }
    problems = []
    if report.verdict != "ok":
        problems.append(f"verdict {report.verdict}, expected ok")
    if not facts["restores"] > 0:
        problems.append("no snapshot restores")
    if facts["replays"] != 0:
        problems.append(f"{facts['replays']} prefix replays, expected 0")
    output = dict(facts, verdict=report.verdict, states=sorted(hashes))
    return Outcome(output=output, problems=problems, facts=facts)


WORKLOADS: Dict[str, Callable[[int, List[float]], Outcome]] = {
    "apache-9cell": run_apache_9cell,
    "fleet-latr-960c": run_fleet_latr_960c,
    "mc-4c3p5o": run_mc_4c3p5o,
}
