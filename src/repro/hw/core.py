"""Core model: execution time accounting, interrupts, idle state.

A core runs (at most) one task at a time; workload tasks burn CPU through
:meth:`Core.execute`, which transparently absorbs the time stolen by
interrupt handlers (the third shootdown overhead the paper attacks: remote
handler time). IPI delivery is immediate -- the handler preempts the task --
but the preempted task is slowed by exactly the handler's cost, which is how
the throughput loss from IPI storms materializes in the Apache and PARSEC
experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..sim.engine import Simulator
from .tlb import Tlb

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine


class Core:
    """One CPU core: a TLB, an interrupt sink, and execution accounting."""

    def __init__(
        self,
        core_id: int,
        socket: int,
        sim: Simulator,
        tlb: Tlb,
        machine: Optional["Machine"] = None,
    ):
        self.id = core_id
        self.socket = socket
        self.sim = sim
        self.tlb = tlb
        #: Task currently scheduled here (set by the scheduler); None == idle.
        self.current_task = None
        #: The machine whose lazy-core mask (``Machine.lazy_cores``) this
        #: core's lazy-TLB flag is kept in: shootdown target selection
        #: masks it out of an mm's cpumask instead of asking every core.
        self._machine = machine
        self.lazy_tlb_mode = False
        #: Deferred-flush flag: a shootdown was skipped while idle; flush on wake.
        self.needs_flush_on_wake = False

        # Interrupt accounting.
        self._pending_interrupt_ns = 0
        self._handler_busy_until = 0
        self.interrupts_received = 0
        self.interrupt_ns_total = 0

        # Execution accounting (for utilization reports).
        self.busy_ns_total = 0

    @property
    def idle(self) -> bool:
        return self.current_task is None

    @property
    def lazy_tlb_mode(self) -> bool:
        """Lazy-TLB idle mode (Linux's idle-core optimization, paper 2.3):
        while set, the core asks not to receive shootdown IPIs and will
        full-flush when it wakes. Setting it keeps the machine-wide
        lazy-core mask exact."""
        return self._lazy_tlb_mode

    @lazy_tlb_mode.setter
    def lazy_tlb_mode(self, value: bool) -> None:
        self._lazy_tlb_mode = value = bool(value)
        machine = self._machine
        if machine is not None:
            if value:
                machine.lazy_cores |= 1 << self.id
            else:
                machine.lazy_cores &= ~(1 << self.id)

    def deliver_interrupt(self, handler_cost_ns: int) -> int:
        """An interrupt arrives now; returns the absolute completion time.

        Handlers on one core serialize (interrupts re-disabled while one
        runs), so a burst of IPIs drains back-to-back -- this produces the
        handler-queueing delays the paper mentions for remote cores with
        interrupts temporarily disabled.
        """
        start = max(self.sim.now, self._handler_busy_until)
        done = start + handler_cost_ns
        self._handler_busy_until = done
        self.interrupts_received += 1
        self.interrupt_ns_total += handler_cost_ns
        # The running task loses this much forward progress.
        self._pending_interrupt_ns += handler_cost_ns
        return done

    def steal_time(self, cost_ns: int) -> None:
        """Charge non-interrupt asynchronous work (e.g. LATR sweeps) to the
        task running here, without modelling an interrupt."""
        self._pending_interrupt_ns += cost_ns

    def execute(self, work_ns: int) -> Tuple[Tuple["Core", int]]:
        """Burn ``work_ns`` of CPU; total elapsed time additionally includes
        any interrupt/sweep time that lands on this core meanwhile.

        Usage inside a process: ``yield from core.execute(ns)``. Returns a
        one-element tuple holding the charge ``(core, ns)``; the process
        yields it and drives it by the quantum rule of
        :meth:`repro.sim.engine.Process._step` (absorb the stolen time,
        else burn at most ``EXEC_QUANTUM_NS``, repeat), resuming the
        generator only when the charge is done. Negative work raises
        ``ValueError`` here, at the call.
        """
        if work_ns < 0:
            raise ValueError(f"negative work: {work_ns}")
        return ((self, int(work_ns)),)

    def enter_idle(self) -> None:
        """Scheduler hook: the core went idle (enters lazy-TLB mode)."""
        self.current_task = None
        self.lazy_tlb_mode = True

    def exit_idle(self, task) -> int:
        """Scheduler hook: a task lands on an idle core.

        Returns the TLB-flush cost owed if a shootdown was deferred while
        idle (Linux lazy-TLB semantics: flush everything on wake).
        """
        self.current_task = task
        self.lazy_tlb_mode = False
        if self.needs_flush_on_wake:
            self.needs_flush_on_wake = False
            self.tlb.flush()
            return 1
        return 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Core {self.id} socket={self.socket} idle={self.idle}>"
