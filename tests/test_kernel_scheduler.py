"""Scheduler behaviour: ticks, idle cores, cooperative multiplexing."""

import pytest

from repro import build_system
from repro.sim.engine import MSEC

from helpers import make_proc, run_to_completion, drain


class TestTicks:
    def test_ticks_fire_per_running_core(self):
        system = build_system("latr", cores=4)
        make_proc(system)
        drain(system, ms=5)
        # 4 cores x ~5 ticks each (first tick at the stagger offset).
        assert 16 <= system.stats.counter("sched.ticks").value <= 24

    def test_tick_stagger_spreads_phases(self):
        """No two cores tick at the same instant (unsynchronized ticks are
        why the reclamation delay is two intervals)."""
        system = build_system("latr", cores=4)
        kernel = system.kernel
        make_proc(system)
        tick_times = {i: [] for i in range(4)}
        original = kernel.coherence.on_tick

        def spy(core):
            tick_times[core.id].append(system.sim.now)
            original(core)

        kernel.coherence.on_tick = spy
        drain(system, ms=4)
        firsts = sorted(times[0] % MSEC for times in tick_times.values() if times)
        assert len(set(firsts)) == 4

    def test_idle_cores_are_tickless(self):
        system = build_system("latr", cores=2)
        for core in system.kernel.machine.cores:
            core.enter_idle()
        drain(system, ms=3)
        assert system.stats.counter("sched.ticks_idle_skipped").value >= 4


class TestRunOn:
    def test_serializes_tasks_on_one_core(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc_a, tasks_a = make_proc(system, n_threads=1, name="a")
        proc_b = kernel.create_process("b")
        task_b = proc_b.add_thread("t0", 0)
        core = kernel.machine.core(0)
        trace = []

        def work(tag):
            def gen():
                trace.append((tag, "start", system.sim.now))
                yield from core.execute(10_000)
                trace.append((tag, "end", system.sim.now))

            return gen()

        def driver_a():
            yield from kernel.scheduler.run_on(core, tasks_a[0], work("a"))

        def driver_b():
            yield from kernel.scheduler.run_on(core, task_b, work("b"))

        system.sim.spawn(driver_a())
        system.sim.spawn(driver_b())
        drain(system, ms=1)
        # b starts only after a ended.
        order = [t for t in trace]
        assert order[0][0] == "a" and order[1] == ("a", "end", order[1][2])
        assert order[2][0] == "b"
        assert order[2][2] >= order[1][2]

    def test_context_switch_cost_and_counter(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc_a, tasks_a = make_proc(system, n_threads=1, name="a")
        proc_b = kernel.create_process("b")
        task_b = proc_b.add_thread("t0", 0)
        core = kernel.machine.core(0)

        def noop():
            yield from core.execute(100)

        def driver():
            yield from kernel.scheduler.run_on(core, tasks_a[0], noop())
            yield from kernel.scheduler.run_on(core, task_b, noop())
            yield from kernel.scheduler.run_on(core, tasks_a[0], noop())

        run_to_completion(system, driver())
        assert system.stats.counter("sched.context_switches").value == 2

    def test_mm_cpumask_updated_on_switch(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc_a, tasks_a = make_proc(system, n_threads=1, name="a")
        proc_b = kernel.create_process("b")
        task_b = proc_b.add_thread("t0", 0)
        core = kernel.machine.core(0)

        def noop():
            yield from core.execute(100)

        def driver():
            yield from kernel.scheduler.run_on(core, task_b, noop())

        run_to_completion(system, driver())
        # Without PCIDs, switching away flushes and drops the old mm's bit.
        assert proc_a.mm.cpumask == 0
        assert proc_b.mm.cpumask == 0b1

    def test_same_task_no_switch(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system, n_threads=1)
        core = kernel.machine.core(0)

        def noop():
            yield from core.execute(100)

        def driver():
            yield from kernel.scheduler.run_on(core, tasks[0], noop())
            yield from kernel.scheduler.run_on(core, tasks[0], noop())

        run_to_completion(system, driver())
        assert system.stats.counter("sched.context_switches").value == 0


class TestPlacement:
    def test_place_and_exit(self):
        system = build_system("latr", cores=2)
        kernel = system.kernel
        proc, tasks = make_proc(system, n_threads=2)
        core = kernel.machine.core(1)
        assert core.current_task is tasks[1]
        kernel.scheduler.task_exit(tasks[1])
        assert core.idle and core.lazy_tlb_mode
