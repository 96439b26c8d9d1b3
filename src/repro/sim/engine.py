"""Discrete-event simulation engine.

The engine is the substrate for the whole reproduction: hardware timing
(IPIs, TLB invalidations, cacheline transfers), kernel activity (scheduler
ticks, context switches, background daemons) and workloads all run as events
or generator-based processes on a single :class:`Simulator`.

Time is modelled as integer nanoseconds, which keeps event ordering exact and
reproducible (no floating-point drift over long runs).

Pending events live in one binary heap of ``(time, seq, handle)`` entries and
execute strictly by ``(time, seq)``, with ``seq`` allocated in schedule order.
``seq`` is unique, so two entries never compare past their second field: heap
sifts compare int pairs in C and never call into Python.
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

#: One microsecond / millisecond / second in simulation time units (ns).
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000

#: Granularity at which a charge absorbs time stolen from its core: the
#: longest stretch of work burnt as one event (see :meth:`Process._step`).
EXEC_QUANTUM_NS = 20_000


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (negative delays, re-triggering)."""


class _Halt(Exception):
    """Ends a :meth:`Simulator.run` at its stop signal (see ``_halt_on``)."""


def _halt() -> None:
    raise _Halt


class EventHandle:
    """A cancellable handle for a scheduled callback.

    Periodic handles (created by :meth:`Simulator.every`) carry a non-None
    ``interval`` and are re-armed in place after each firing instead of being
    re-allocated; ``cancel()`` stops the series. A :class:`Process` re-arms
    its one wake handle in place the same way.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "interval", "_sim",
                 "_scheduled")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable,
        args: tuple,
        sim: "Optional[Simulator]" = None,
        interval: Optional[int] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.interval = interval
        self._sim = sim
        #: True while resident in the event heap (awaiting execution).
        self._scheduled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if it already fired).

        For periodic handles this ends the series. The entry stays in the
        heap until it reaches the head and is dropped there; ``pending()``
        stops counting it at once.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._scheduled and self._sim is not None:
            self._sim._pending_live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        kind = "periodic " if self.interval is not None else ""
        return f"<{kind}EventHandle t={self.time} fn={getattr(self.fn, '__name__', self.fn)} {state}>"


class Signal:
    """A one-shot waitable event.

    Processes wait on a Signal by yielding it; plain callbacks can subscribe
    via :meth:`add_callback`. A Signal fires exactly once with a value.
    """

    __slots__ = ("sim", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Signal"], None]] = []

    def succeed(self, value: Any = None) -> "Signal":
        """Fire the signal, delivering ``value`` to all waiters."""
        if self.triggered:
            raise SimulationError("Signal already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)
        return self

    def add_callback(self, cb: Callable[["Signal"], None]) -> None:
        """Invoke ``cb(self)`` when the signal fires (immediately if fired)."""
        if self.triggered:
            cb(self)
        else:
            self._callbacks.append(cb)


class Timeout:
    """Yielded by a process to sleep for ``delay`` nanoseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = int(delay)


class AllOf:
    """Yielded by a process to wait for several waitables at once.

    The process resumes once every child has fired; the sent value is the
    list of child values in the order given.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]):
        self.children = list(children)


class Process:
    """A generator-based coroutine running on the simulator.

    The generator may yield:

    * a charge ``(core, ns)`` -- burn ``ns`` of CPU on ``core``
      (``yield from core.execute(ns)`` yields one),
    * :class:`Timeout` -- resume after a delay,
    * :class:`Signal` -- resume when it fires (resumed with its value),
    * :class:`Process` -- resume when the child process finishes,
    * :class:`AllOf` -- resume when all children fire.

    The process drives a charge itself and resumes the generator only once
    the charge is done (see :meth:`_step` for the quantum rule). A wait
    that is already satisfied -- a fired signal, a finished child, a charge
    with nothing left to burn -- resumes the generator in the same frame. A
    suspended process has at most one timed wake-up pending (a timeout or
    one event of a charge), so it re-arms one :class:`EventHandle` in place.

    The generator's return value becomes :attr:`value` and the ``done``
    signal fires with it.
    """

    __slots__ = ("sim", "gen", "done", "value", "name", "_alive", "_wake",
                 "_core", "_left", "_chunk")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.done = Signal(sim)
        self.value: Any = None
        self.name = name or getattr(gen, "__name__", "process")
        self._alive = True
        #: The wake handle, re-armed for every timed wait (and a spawned
        #: process's first step). Dropped when the process ends: its bound
        #: method would otherwise keep the process alive in a cycle.
        self._wake: Optional[EventHandle] = EventHandle(0, 0, self._step, (), sim)
        #: The charge in progress: its core (None when there is none), the
        #: work left and the chunk now burning (0 while absorbing stolen time).
        self._core: Any = None
        self._left = 0
        self._chunk = 0

    @property
    def alive(self) -> bool:
        return self._alive

    def add_callback(self, cb: Callable[[Signal], None]) -> None:
        """Waitable protocol: completion is signalled through ``done``."""
        self.done.add_callback(cb)

    def _step(self, value: Any = None) -> None:
        """Run the process until it has to wait; the wake handle calls this
        when a timed wait ends.

        While a charge is in progress, the quantum rule picks its next
        event: time stolen from the core (``core._pending_interrupt_ns``,
        left by interrupt handlers and sweeps) is absorbed whole as one
        event; otherwise the next ``min(left, EXEC_QUANTUM_NS)`` ns of work
        is one event, added to ``core.busy_ns_total`` when it fires. With
        no work left and nothing stolen, the generator resumes."""
        send = self.gen.send
        while self._alive:
            core = self._core
            if core is not None:
                chunk = self._chunk
                if chunk:  # the wake handle fired at the end of this chunk
                    self._chunk = 0
                    core.busy_ns_total += chunk
                    self._left -= chunk
                stolen = core._pending_interrupt_ns
                if stolen:
                    core._pending_interrupt_ns = 0
                    delay = int(stolen)
                    break
                left = self._left
                if left > 0:
                    self._chunk = delay = left if left < EXEC_QUANTUM_NS else EXEC_QUANTUM_NS
                    break
                self._core = None
            try:
                yielded = send(value)
            except StopIteration as stop:
                self._alive = False
                self._wake = None
                self.value = stop.value
                self.done.succeed(stop.value)
                return
            value = None
            if type(yielded) is tuple:
                self._core, self._left = yielded
                continue
            if isinstance(yielded, Timeout):
                delay = yielded.delay
                break
            if isinstance(yielded, Signal):
                sig = yielded
            elif isinstance(yielded, Process):
                sig = yielded.done
            elif isinstance(yielded, AllOf):
                sig = _gather(self.sim, yielded.children, self.name)
            else:
                raise SimulationError(f"process {self.name!r} yielded unsupported {yielded!r}")
            if not sig.triggered:
                sig.add_callback(self._fire)
                return
            value = sig.value
        else:  # not alive: interrupted, or woken after an interrupt
            return
        self.sim._arm(self._wake, delay)

    def _fire(self, sig: Signal) -> None:
        """The signal this process waits on fired."""
        self._step(sig.value)

    def interrupt(self) -> None:
        """Kill the process; its ``done`` signal fires with ``None``. A
        wake-up still pending fires as a no-op."""
        if self._alive:
            self._alive = False
            self._wake = None
            self.gen.close()
            if not self.done.triggered:
                self.done.succeed(None)


def _gather(sim: "Simulator", children: Iterable[Any], owner: str = "") -> Signal:
    """A signal firing once every child has; its value is the list of child
    values in the order given. Nested :class:`AllOf` children gather
    recursively, so their value is itself a (possibly nested) list."""
    children = list(children)
    out = Signal(sim)
    if not children:
        sim.after(0, out.succeed, [])
        return out
    remaining = [len(children)]
    values: List[Any] = [None] * len(children)

    def make_cb(i: int) -> Callable[[Signal], None]:
        def cb(sig: Signal) -> None:
            values[i] = sig.value
            remaining[0] -= 1
            if remaining[0] == 0:
                out.succeed(values)

        return cb

    for i, child in enumerate(children):
        if isinstance(child, Timeout):
            done = Signal(sim)
            sim.after(child.delay, done.succeed, None)
            child = done
        elif isinstance(child, AllOf):
            child = _gather(sim, child.children, owner)
        elif not isinstance(child, (Signal, Process)):
            raise SimulationError(
                f"process {owner!r}: AllOf child {child!r} is not waitable"
            )
        child.add_callback(make_cb(i))
    return out


class Simulator:
    """The event loop: one ``(time, seq)``-ordered heap of callbacks, plus
    process support."""

    #: Events executed across all Simulator instances in this process;
    #: ``perfbench`` and the experiment runner snapshot it around a run to
    #: count its events even when the run builds several machines.
    total_events_executed = 0

    def __init__(
        self,
        choice_hook: Optional[Callable[[List[EventHandle]], Optional[int]]] = None,
    ):
        #: Controllable dispatch: when set, every dispatch first gathers the
        #: *ready set* -- all pending events due at the earliest timestamp --
        #: and calls ``choice_hook(ready)``; the hook returns the index of the
        #: event to run (or None for the default, lowest-seq, choice). The
        #: model checker uses this to observe and pin same-instant races.
        self.choice_hook = choice_hook
        self._seq = 0
        self._now = 0
        self._running = False
        #: Scheduled, non-cancelled events (kept exact so pending() is O(1)).
        self._pending_live = 0
        #: The event heap of ``(time, seq, handle)`` entries. A cancelled
        #: handle's entry stays until it reaches the head.
        self._queue: List[Tuple[int, int, EventHandle]] = []
        #: Events executed by this instance (monotonic, never reset).
        self.events_executed = 0
        #: Set to a list to record (time, seq) of every executed event: the
        #: seq its entry was popped with, or for a periodic event the seq of
        #: its next firing. The golden order fingerprints hash it.
        self.order_log: Optional[List] = None

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling

    def at(self, time: int, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        time = int(time)
        seq = self._seq
        handle = EventHandle(time, seq, fn, args, self)
        self._seq = seq + 1
        handle._scheduled = True
        self._pending_live += 1
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def after(self, delay: int, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self._now + int(delay), fn, *args)

    def every(
        self,
        interval: int,
        fn: Callable,
        *args: Any,
        start: Optional[int] = None,
    ) -> EventHandle:
        """Register a periodic event: ``fn(*args)`` fires every ``interval``
        ns, reusing one handle instead of allocating a Timeout + EventHandle
        per firing. The first firing is ``start`` ns from now (default:
        ``interval``).

        If ``fn`` returns a generator, it is run as a process starting
        synchronously at the firing time, and the next firing is scheduled
        ``interval`` ns after the *body completes* -- exactly the cadence of
        the classic ``while True: yield Timeout(p); <body>`` daemon loop.
        Plain callbacks re-fire every ``interval`` ns with no drift.

        Returns the reusable handle; :meth:`EventHandle.cancel` stops the
        series (including between firings).
        """
        if interval <= 0:
            raise SimulationError(f"non-positive period: {interval}")
        delay = interval if start is None else start
        if delay < 0:
            raise SimulationError(f"negative start: {start}")
        time = self._now + int(delay)
        seq = self._seq
        handle = EventHandle(time, seq, fn, args, self, int(interval))
        self._seq = seq + 1
        handle._scheduled = True
        self._pending_live += 1
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def _rearm(self, handle: EventHandle) -> None:
        """Re-queue a periodic handle for its next firing (fresh seq, so
        ordering against freshly-scheduled events matches the old
        Timeout-per-tick daemons exactly)."""
        if not handle.cancelled:
            self._arm(handle, handle.interval)

    def _arm(self, handle: EventHandle, delay: int) -> None:
        """Queue ``handle`` again, ``delay`` ns from now with a fresh seq:
        the next firing of a periodic handle or a process's next wake-up."""
        time = handle.time = self._now + delay
        seq = handle.seq = self._seq
        self._seq = seq + 1
        handle._scheduled = True
        self._pending_live += 1
        heapq.heappush(self._queue, (time, seq, handle))

    # ------------------------------------------------------------------
    # event loop

    def _peek_next(self) -> Optional[EventHandle]:
        """The earliest pending non-cancelled event (cancelled heads are
        dropped on the way), or None if the simulator is drained."""
        queue = self._queue
        while queue:
            head = queue[0][2]
            if head.cancelled:
                heapq.heappop(queue)
                head._scheduled = False
                continue
            return head
        return None

    def _pop_ready_set(self, until: Optional[int] = None) -> Optional[List[EventHandle]]:
        """Pop every pending event due at the earliest timestamp, in
        ``(time, seq)`` order. Returns None when drained or when the head
        is past ``until``. The popped handles stay marked scheduled;
        :meth:`_dispatch_choice` re-queues the ones that are not chosen."""
        head = self._peek_next()
        if head is None or (until is not None and head.time > until):
            return None
        time = head.time
        ready: List[EventHandle] = []
        queue = self._queue
        while queue and queue[0][0] == time:
            handle = heapq.heappop(queue)[2]
            if handle.cancelled:
                handle._scheduled = False
                continue
            ready.append(handle)
        return ready

    def _dispatch_choice(self, until: Optional[int] = None) -> Optional[EventHandle]:
        """Gather the ready set, let :attr:`choice_hook` pick, re-queue the
        rest, and return the chosen handle ready for execution."""
        ready = self._pop_ready_set(until)
        if not ready:
            return None
        choice = self.choice_hook(ready)
        idx = 0 if choice is None else int(choice)
        if not 0 <= idx < len(ready):
            raise SimulationError(
                f"choice_hook returned {choice!r} for a ready set of {len(ready)}"
            )
        chosen = ready[idx]
        for handle in ready:
            if handle is not chosen:
                heapq.heappush(self._queue, (handle.time, handle.seq, handle))
        chosen._scheduled = False
        self._pending_live -= 1
        return chosen

    def _run_with_choice_hook(
        self, until: Optional[int], max_events: Optional[int], stop: Optional[Signal]
    ) -> int:
        """The run() loop under a choice hook: one ready-set dispatch per
        event."""
        executed = 0
        self._running = True
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                if stop is not None and stop.triggered:
                    return executed
                head = self._dispatch_choice(until)
                if head is None:
                    break
                self._execute(head)
                executed += 1
        finally:
            self._running = False
        self._advance_to(until)
        return executed

    def _execute(self, handle: EventHandle) -> None:
        time = self._now = handle.time
        seq = handle.seq
        if handle.interval is None:
            handle.fn(*handle.args)
        else:
            result = handle.fn(*handle.args)
            if type(result) is GeneratorType:
                # Generator-flavoured periodic: run the body as a process
                # starting *now* (synchronously, like the old daemon loops'
                # inline `yield from body`), then re-arm once it completes.
                proc = Process(self, result)
                proc._step(None)
                proc.done.add_callback(lambda _sig, h=handle: self._rearm(h))
            else:
                self._rearm(handle)
            seq = handle.seq
        self.events_executed += 1
        Simulator.total_events_executed += 1
        if self.order_log is not None:
            self.order_log.append((time, seq))

    def signal(self) -> Signal:
        """Create a fresh one-shot signal bound to this simulator."""
        return Signal(self)

    def timeout_signal(self, delay: int, value: Any = None) -> Signal:
        """A signal that fires automatically after ``delay`` ns."""
        sig = Signal(self)
        self.after(delay, sig.succeed, value)
        return sig

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a process from a generator; it takes its first step at t+0."""
        proc = Process(self, gen, name)
        self._arm(proc._wake, 0)
        return proc

    def step(self) -> bool:
        """Run the next pending event. Returns False if the engine drained."""
        if self.choice_hook is not None:
            head = self._dispatch_choice()
        else:
            head = self._peek_next()
            if head is not None:
                heapq.heappop(self._queue)
                head._scheduled = False
                self._pending_live -= 1
        if head is None:
            return False
        self._execute(head)
        return True

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop: Optional[Signal] = None,
    ) -> int:
        """Run events until the engine drains, ``until`` (absolute ns)
        passes, or the event that fires ``stop`` has run.

        Returns the number of events executed. When ``until`` is given the
        clock is advanced to exactly ``until`` if the engine drained of
        events at or before ``until``, so rate computations over a fixed
        window stay well-defined. A run ended by ``stop`` leaves the clock
        at the event that fired it (a signal fired before the call ends
        the run at once). If a ``max_events`` break leaves such events
        pending, the clock stays at the last executed event --
        force-advancing would make the next :meth:`step` move time
        backwards.
        """
        if self.choice_hook is not None:
            return self._run_with_choice_hook(until, max_events, stop)
        sentinel = self._halt_on(stop) if stop is not None else None
        executed = 0
        self._running = True
        # The body below is step() + _execute() inlined: one event is
        # dispatched per iteration and this loop is the single hottest frame
        # in every benchmark, so the per-event method-call overhead is worth
        # trading away. step() keeps the readable composed form.
        queue = self._queue
        pop = heapq.heappop
        arm = self._arm
        rearm = self._rearm
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                time, seq, head = queue[0]
                if head.cancelled:
                    pop(queue)
                    head._scheduled = False
                    continue
                if until is not None and time > until:
                    break
                pop(queue)
                head._scheduled = False
                self._pending_live -= 1
                self._now = time
                if head.interval is None:
                    head.fn(*head.args)
                else:
                    result = head.fn(*head.args)
                    if type(result) is GeneratorType:
                        proc = Process(self, result)
                        proc._step(None)
                        proc.done.add_callback(
                            lambda _sig, h=head: rearm(h)
                        )
                    elif not head.cancelled:
                        arm(head, head.interval)
                executed += 1
                order_log = self.order_log
                if order_log is not None:
                    # A periodic event logs the seq of its next firing.
                    order_log.append((time, seq if head.interval is None else head.seq))
        except _Halt:
            return executed
        finally:
            self._running = False
            self.events_executed += executed
            Simulator.total_events_executed += executed
            if sentinel is not None:
                sentinel.cancel()
        self._advance_to(until)
        return executed

    def _advance_to(self, until: Optional[int]) -> None:
        """End of a run that was not stopped: move the clock to ``until``
        if no event is pending at or before it."""
        if until is not None and self._now < until:
            next_time = self._next_event_time()
            if next_time is None or next_time > until:
                self._now = until

    def _halt_on(self, stop: Signal) -> EventHandle:
        """Make ``stop`` end the running loop right after the event that
        fires it, at no cost per event: its callback queues a sentinel at
        ``(now, -1)``, ahead of every entry, which raises :class:`_Halt`
        when the loop pops it. Cancelling the returned sentinel disarms it
        (and drops it, if a ``max_events`` break left it queued)."""
        sentinel = EventHandle(0, -1, _halt, (), self)

        def queue_sentinel(_sig: Signal) -> None:
            if not sentinel.cancelled:
                sentinel.time = now = self._now
                sentinel._scheduled = True
                self._pending_live += 1
                heapq.heappush(self._queue, (now, -1, sentinel))

        stop.add_callback(queue_sentinel)
        return sentinel

    def _next_event_time(self) -> Optional[int]:
        """Time of the earliest pending (non-cancelled) event, or None."""
        head = self._peek_next()
        return head.time if head is not None else None

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events (O(1))."""
        return self._pending_live

    # ------------------------------------------------------------------
    # snapshot / restore

    def _resident_handles(self) -> List[EventHandle]:
        """Every handle currently in the event heap (cancelled ones
        included until they reach the head)."""
        return [entry[2] for entry in self._queue]

    def fork(self) -> "EngineSnapshot":
        """Capture a restorable snapshot of the event heap.

        Handles are *shared* with the snapshot, not copied: their mutable
        fields (time/seq/cancelled/scheduled) are recorded so ``restore()``
        can rewrite them in place, preserving identity -- callbacks, daemon
        re-arm chains and cached references all keep pointing at the same
        objects. ``fn``/``args``/``interval`` never mutate after creation
        and are not recorded.

        Refuses mid-run and refuses when any pending event is a live
        generator continuation (a bound method of a :class:`Process` or
        :class:`Signal`): a suspended generator frame cannot be copied, so
        snapshots are only legal at quiescent points where every pending
        event is a plain callback (periodic daemon ticks, timers).
        """
        if self._running:
            raise SimulationError("cannot fork a running simulator")
        handles = self._resident_handles()
        for handle in handles:
            if live_continuation(handle):
                raise SimulationError(
                    f"cannot fork with live generator continuation pending: "
                    f"{handle!r}"
                )
        return EngineSnapshot(
            seq=self._seq,
            now=self._now,
            pending_live=self._pending_live,
            events_executed=self.events_executed,
            order_len=len(self.order_log) if self.order_log is not None else None,
            queue=list(self._queue),
            handle_fields=[
                (h, h.time, h.seq, h.cancelled, h._scheduled) for h in handles
            ],
        )

    def restore(self, snap: "EngineSnapshot") -> None:
        """Rewind the event heap to a snapshot taken by :meth:`fork`.

        Restore order matters: (1) orphan every currently-resident handle so
        post-fork events cannot corrupt the accounting via a later
        ``cancel()``; (2) rewrite the recorded fields of every snapshotted
        handle (healing post-fork execution, re-arms and cancellation);
        (3) reinstall the heap copy; (4) scalars; (5) truncate the order
        log.
        """
        if self._running:
            raise SimulationError("cannot restore a running simulator")
        for handle in self._resident_handles():
            handle._scheduled = False
        for handle, time, seq, cancelled, scheduled in snap.handle_fields:
            handle.time = time
            handle.seq = seq
            handle.cancelled = cancelled
            handle._scheduled = scheduled
        # The list copy preserved heap order, so no re-heapify is needed.
        self._queue[:] = snap.queue
        self._seq = snap.seq
        self._now = snap.now
        self._pending_live = snap.pending_live
        self.events_executed = snap.events_executed
        if self.order_log is not None and snap.order_len is not None:
            del self.order_log[snap.order_len:]


def live_continuation(handle: EventHandle) -> bool:
    """True if executing (or dropping) ``handle`` would touch a suspended
    generator: its callback belongs to a live :class:`Process` or to a
    :class:`Signal`, or such an object rides in its args. A *dead*
    process's ``_step`` handle is a harmless no-op and does not count."""
    if handle.cancelled:
        return False
    owner = getattr(handle.fn, "__self__", None)
    if isinstance(owner, Signal) or (isinstance(owner, Process) and owner.alive):
        return True
    return any(
        isinstance(arg, Signal) or (isinstance(arg, Process) and arg.alive)
        for arg in handle.args
    )


class EngineSnapshot:
    """Opaque engine state captured by :meth:`Simulator.fork`."""

    __slots__ = (
        "seq", "now", "pending_live", "events_executed", "order_len", "queue",
        "handle_fields",
    )

    def __init__(self, **fields: Any):
        for name in self.__slots__:
            setattr(self, name, fields[name])
