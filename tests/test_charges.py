"""Charges, wake-ups and ready waits of the engine's processes.

``Core.execute`` returns a charge record that the yielding process drives
by the quantum rule, re-arming its one wake handle per event. The
generator ``Core.execute`` it replaced survives here as a shadow
(:func:`generator_execute`): a property runs random programs with either
one and compares what they model, event by event.
"""

import pytest
from helpers import OP_LIST_PHASES, count_calls, run_apache_cold
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_system
from repro.hw.core import Core
from repro.hw.machine import Machine
from repro.hw.spec import COMMODITY_2S16C
from repro.sim.engine import (
    EXEC_QUANTUM_NS,
    EventHandle,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Lock
from repro.snapshot import SnapshotError, check_reusable


def generator_execute(core, work_ns):
    """The generator ``Core.execute`` the charge record replaced: the same
    quantum rule, with one ``Timeout`` (and so one handle) per event."""
    if work_ns < 0:
        raise ValueError(f"negative work: {work_ns}")
    remaining = int(work_ns)
    while True:
        stolen = core._pending_interrupt_ns
        if stolen:
            core._pending_interrupt_ns = 0
            yield Timeout(stolen)
            continue
        if remaining <= 0:
            break
        chunk = min(remaining, EXEC_QUANTUM_NS)
        yield Timeout(chunk)
        core.busy_ns_total += chunk
        remaining -= chunk


# ---- random programs, run on both charge paths ------------------------------

N_PROCS = 6
CHARGE = st.one_of(
    st.just(0),
    st.integers(1, EXEC_QUANTUM_NS - 1),
    st.integers(EXEC_QUANTUM_NS, 5 * EXEC_QUANTUM_NS),
)
OP = st.one_of(
    st.tuples(st.just("charge"), CHARGE),
    st.tuples(st.just("sleep"), st.integers(0, 30_000)),
    # Take lock 0 or 1, charge while holding it, release.
    st.tuples(st.just("lock"), st.integers(0, 1), CHARGE),
)
PROGRAM = st.fixed_dictionaries({
    "cores": st.integers(2, 4),
    # (process, op): each process runs its own ops in list order.
    "ops": st.lists(st.tuples(st.integers(0, N_PROCS - 1), OP), min_size=30, max_size=60),
    # (time, core, IPI or stolen time, cost), from plain callbacks; some
    # costs exceed a quantum, and are still absorbed as one event.
    "async": st.lists(
        st.tuples(st.integers(0, 400_000), st.integers(0, 3), st.booleans(),
                  st.one_of(st.integers(1, 9_000),
                            st.integers(EXEC_QUANTUM_NS, 3 * EXEC_QUANTUM_NS))),
        max_size=20,
    ),
    # (process, time) of one interrupt(), or none.
    "kill": st.one_of(st.none(), st.tuples(st.integers(0, N_PROCS - 1),
                                           st.integers(1, 400_000))),
})


def run_program(program):
    """Run ``program`` on a fresh machine; returns everything it modelled."""
    sim = Simulator()
    sim.order_log = []
    machine = Machine(sim, COMMODITY_2S16C.with_cores(program["cores"]))
    cores = machine.cores
    locks = [Lock(sim, f"l{i}") for i in range(2)]
    ends = {}

    def body(ops, core):
        stamps = []
        for op in ops:
            if op[0] == "charge":
                yield from core.execute(op[1])
            elif op[0] == "sleep":
                yield Timeout(op[1])
            else:
                lock = locks[op[1]]
                granted = yield lock.acquire()
                assert granted is lock
                try:
                    yield from core.execute(op[2])
                finally:
                    lock.release()
            stamps.append(sim.now)
        return stamps

    procs = []
    for k in range(N_PROCS):
        ops = [op for owner, op in program["ops"] if owner == k]
        proc = sim.spawn(body(ops, cores[k % len(cores)]), name=f"p{k}")
        proc.done.add_callback(lambda _sig, k=k: ends.setdefault(k, sim.now))
        procs.append(proc)
    for time, core_id, is_ipi, cost in program["async"]:
        core = cores[core_id % len(cores)]
        sim.at(time, core.deliver_interrupt if is_ipi else core.steal_time, cost)
    if program["kill"] is not None:
        victim, time = program["kill"]
        sim.at(time, procs[victim].interrupt)
    sim.run()
    return (
        sim.order_log,
        [(c.busy_ns_total, c.interrupt_ns_total, c._pending_interrupt_ns) for c in cores],
        [(proc.value, proc.alive) for proc in procs],
        ends,
        [(lock.acquisitions, lock.contended_acquisitions, lock.locked) for lock in locks],
    )


class TestChargeRecordVsGeneratorShadow:
    @settings(max_examples=60, deadline=None, phases=OP_LIST_PHASES,
              suppress_health_check=[HealthCheck.too_slow])
    @given(PROGRAM)
    def test_same_events_and_accounting(self, program):
        charged = run_program(program)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Core, "execute", generator_execute)
            shadow = run_program(program)
        assert charged == shadow


# ---- pending charges block snapshots ----------------------------------------


class TestPendingChargeBlocksSnapshots:
    def test_fork_refuses_while_a_chunk_is_pending(self):
        sim = Simulator()
        core = Machine(sim, COMMODITY_2S16C.with_cores(2)).core(0)

        def body():
            yield from core.execute(3 * EXEC_QUANTUM_NS)

        proc = sim.spawn(body())
        sim.run(until=EXEC_QUANTUM_NS + 10)  # in the second chunk
        assert proc.alive and core.busy_ns_total == EXEC_QUANTUM_NS
        with pytest.raises(SimulationError, match="generator continuation"):
            sim.fork()
        sim.run()
        assert not proc.alive and core.busy_ns_total == 3 * EXEC_QUANTUM_NS
        sim.fork()  # quiescent again: the finished process left nothing

    def test_check_reusable_refuses_while_a_chunk_is_pending(self):
        system = build_system("linux", cores=2)
        core = system.machine.core(1)

        def body():
            yield from core.execute(5_000)

        system.sim.spawn(body())
        system.sim.run(until=system.sim.now + 100)
        with pytest.raises(SnapshotError, match="live continuation"):
            check_reusable(system.kernel)
        system.sim.run(until=system.sim.now + 10_000)
        check_reusable(system.kernel)


# ---- ready waits resume in the same frame ------------------------------------


class TestReadyWaits:
    """Thousands of back-to-back waits that are already satisfied must not
    nest one frame each."""

    N = 5_000

    def test_free_lock_pairs(self):
        sim = Simulator()
        lock = Lock(sim)

        def body():
            for _ in range(self.N):
                granted = yield lock.acquire()
                assert granted is lock
                lock.release()
            return "done"

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == "done" and sim.now == 0
        assert (lock.acquisitions, lock.contended_acquisitions) == (self.N, 0)

    def test_fired_signal(self):
        sim = Simulator()
        sig = sim.signal()
        sig.succeed(3)

        def body():
            total = 0
            for _ in range(self.N):
                total += yield sig
            return total

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == 3 * self.N

    def test_finished_child(self):
        sim = Simulator()

        def child():
            yield Timeout(1)
            return 2

        kid = sim.spawn(child())

        def body():
            yield Timeout(5)
            total = 0
            for _ in range(self.N):
                total += yield kid
            return total

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == 2 * self.N


# ---- work budget -------------------------------------------------------------


class TestChargeWorkBudget:
    def test_linux_apache_cell(self, monkeypatch):
        # A 6-core linux cell, 2 + 3 ms, cold boot. Each chunk and each
        # stolen-time absorb re-arms its process's wake handle, so no
        # Timeout is built. The handles left are the boot's, the IPIs',
        # the signals' and one per process.
        timeouts = count_calls(monkeypatch, (Timeout, "__init__"))
        handles = count_calls(monkeypatch, (EventHandle, "__init__"))
        result, sim = run_apache_cold("linux", cores=6, warmup_ms=2, duration_ms=3)
        assert result.counters["apache.requests"] == 368
        assert sim.events_executed == 12_538
        assert (timeouts["__init__"], handles["__init__"]) == (0, 3_894)
