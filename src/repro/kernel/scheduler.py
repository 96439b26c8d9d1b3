"""Scheduler: per-core ticks, context switches, idle (lazy-TLB) state.

LATR's staleness bound comes from here: every *running* core receives a
scheduler tick each ``tick_interval`` (1 ms), and the coherence mechanism's
``on_tick`` hook fires then. Tick phases are deterministically staggered
across cores -- the paper's reclamation rule (wait *two* intervals) exists
precisely because ticks are not synchronized.

Idle cores are tickless (paper section 7): they neither sweep nor receive
shootdown IPIs; a full TLB flush on wake restores safety.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

from ..sim.resources import Lock
from .task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class Scheduler:
    """Owns core occupancy and drives periodic coherence work."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        machine = kernel.machine
        self.tick_interval = machine.spec.tick_interval_ns
        #: Serializes task execution per core (cooperative multiplexing at
        #: request/operation granularity).
        self._cpu_locks: Dict[int, Lock] = {
            core.id: Lock(kernel.sim, name=f"cpu{core.id}") for core in machine.cores
        }
        #: Optional per-core tick-phase override (core id -> offset ns within
        #: the tick interval). The coherence fuzzer randomizes these; when
        #: unset, phases are deterministically staggered.
        self.tick_offsets: Optional[Dict[int, int]] = None
        self._started = False

    # ---- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Register one periodic tick per core, with staggered phases."""
        if self._started:
            return
        self._started = True
        self._ticks = self.kernel.stats.counter("sched.ticks")
        self._ticks_idle_skipped = self.kernel.stats.counter("sched.ticks_idle_skipped")
        # Cache the object, not the bound method: tests (and tracing
        # wrappers) monkeypatch ``coherence.on_tick`` after start().
        self._coherence = self.kernel.coherence
        n = self.kernel.machine.n_cores
        for core in self.kernel.machine.cores:
            offset = (core.id * self.tick_interval) // max(1, n)
            if self.tick_offsets is not None:
                offset = self.tick_offsets.get(core.id, offset) % self.tick_interval
            # First tick at the stagger offset, then every interval: every
            # core ticks within one interval of any instant, which is the
            # staleness bound LATR's reclamation delay is derived from.
            self.kernel.sim.every(self.tick_interval, self._tick, core, start=offset)

    def _tick(self, core) -> None:
        self._ticks.value += 1
        if core.idle and core.lazy_tlb_mode:
            # Tickless idle: no sweep, no tick work.
            self._ticks_idle_skipped.value += 1
        else:
            self._coherence.on_tick(core)

    # ---- placement --------------------------------------------------------------

    def place(self, task: Task, core=None) -> None:
        """Initial (or migration) placement of a task onto its home core."""
        core = core if core is not None else self.kernel.machine.core(task.home_core_id)
        task.state = TaskState.RUNNING
        if core.idle:
            core.exit_idle(task)
        else:
            core.current_task = task
        task.mm.mark_running_on(core.id)

    def task_exit(self, task: Task) -> None:
        task.state = TaskState.DONE
        core = self.kernel.machine.core(task.home_core_id)
        if core.current_task is task:
            core.enter_idle()

    # ---- cooperative multiplexing -------------------------------------------------

    def run_on(self, core, task: Task, body: Generator) -> Generator:
        """Run ``body`` on ``core`` as ``task``, serializing against other
        tasks of that core and charging a context switch when the core's
        resident task changes.

        Usage: ``result = yield from scheduler.run_on(core, task, gen)``.
        """
        lock = self._cpu_locks[core.id]
        yield lock.acquire()
        try:
            if core.current_task is not task:
                yield from self._switch(core, task)
            result = yield from body
            return result
        finally:
            lock.release()

    def _switch(self, core, task: Task) -> Generator:
        """Make ``task`` resident on ``core``: a charged context switch
        when it displaces another task, a wake from idle otherwise."""
        previous = core.current_task
        old_mm = previous.mm if previous is not None else None
        if core.idle:
            core.exit_idle(task)
        core.current_task = task
        task.mm.mark_running_on(core.id)
        if previous is not None:
            self.kernel.stats.counter("sched.context_switches").add()
            if old_mm is not task.mm:
                if not self.kernel.machine.pcid_enabled:
                    # Without PCIDs the switch flushes everything; the old
                    # mm can drop this core from its cpumask.
                    core.tlb.flush()
                    if old_mm is not None:
                        old_mm.clear_cpu(core.id)
            self.kernel.coherence.on_context_switch(core, old_mm, task.mm)
            yield from core.execute(self.kernel.machine.latency.context_switch_ns)
        else:
            yield from core.execute(0)

    def synthetic_context_switch(self, core) -> None:
        """Account a context switch that isn't modelled as a task change
        (workload profiles with known switch rates, e.g. canneal)."""
        self.kernel.stats.counter("sched.context_switches").add()
        core.steal_time(self.kernel.machine.latency.context_switch_ns)
        current_mm = core.current_task.mm if core.current_task else None
        self.kernel.coherence.on_context_switch(core, current_mm, current_mm)

    def cpu_lock(self, core_id: int) -> Lock:
        return self._cpu_locks[core_id]
