"""Fixed stress drivers that tests run as deterministic workloads.

Each driver replays one fixed op sequence and returns what it modelled,
so tests pin its output (golden fingerprints), compare two
implementations of a hot path on it (inbox vs full-scan sweeps), or count
the work it does (exact call budgets). None of
them reads the host clock: host time is measured by ``perfbench/`` alone.

``repro.workloads`` does not import this module, so importing the
package does not pay for it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

#: The short fleet scope of the fleet smoke (about 0.1 s a seed), and the
#: golden fingerprint (:func:`fleet_fingerprint`) of its
#: ``run_fleet_stress`` stats summary at the default rotation seed and a
#: held-out one. The values are the same under any PYTHONHASHSEED; a
#: change that moves one must update it here and name the cause in
#: CHANGES.md.
FLEET_SMOKE_SCOPE = dict(
    machine="fleet-16s960c", drivers=8, pages=4, touchers=3, duration_ms=2
)
FLEET_SMOKE_FINGERPRINTS = {1: "46e1afdeb8c0604b", 7919: "ae0da4f0dca2e0a3"}


def run_sweep_stress(
    duration_ms: int,
    machine: str = "large-numa-8s120c",
    mechanism: str = "latr",
    **build_kwargs,
) -> Dict[str, object]:
    """Tick-dominated load: a task pinned to every core (so every core
    sweeps every tick) while core 0 loops mmap / write touch / a rotating
    scatter of four remote read touches / munmap, one rep per simulated
    millisecond. ``build_kwargs`` go to ``build_system`` (for example
    ``use_sweep_index`` under ``latr``, ``use_pt_replication`` under
    ``numapte``). Returns the final ``StatsRegistry.summary()``."""
    from .. import build_system
    from ..mm.addr import PAGE_SIZE
    from ..sim.engine import MSEC, AllOf, Timeout

    system = build_system(mechanism, machine=machine, seed=7, **build_kwargs)
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
            # with the rep count so sweeps keep pulling fresh remote state.
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


def _xorshift(state: List[int]) -> int:
    """Deterministic 32-bit xorshift; a stress driver must replay the
    exact same schedule on every run."""
    x = state[0]
    x ^= (x << 13) & 0xFFFFFFFF
    x ^= x >> 17
    x ^= (x << 5) & 0xFFFFFFFF
    state[0] = x
    return x


def run_engine_stress(n_events: int, record_order: bool = False):
    """Pure event-loop churn, no kernel model: eight periodic generators
    keep scheduling one-shot timers at near (< 4 us), mid (< 2 ms) and far
    (up to 52 ms) delays and cancel a deterministic subset. Returns
    ``(simulator, order_log)``; the order log (when recorded) is the
    executed ``(time, seq)`` sequence, whose hash the engine tests pin."""
    from ..sim.engine import Simulator

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


def run_fleet_stress(scope: Dict[str, object], seed: int) -> Dict[str, object]:
    """Churn on a fleet box: every driver process pins a task to every
    core, then loops mmap / local write touch / a rotating scatter of
    remote read touches / munmap, so LATR states post from many owner
    cores and stay live while every core sweeps each tick. ``scope`` gives
    the machine, the driver count, the pages per mmap, the remote touchers
    per rep and the simulated milliseconds (see ``FLEET_SMOKE_SCOPE``).
    ``seed`` is the boot seed and draws each driver's offset into the
    remote-toucher rotation. Returns the final ``StatsRegistry.summary()``."""
    import random

    from .. import build_system
    from ..mm.addr import PAGE_SIZE
    from ..sim.engine import MSEC, AllOf, Timeout

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
    """Golden fingerprint of a stats summary: the first 16 hex digits of
    the sha256 of its sorted items' repr."""
    return hashlib.sha256(repr(sorted(summary.items())).encode()).hexdigest()[:16]
