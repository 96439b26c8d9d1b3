"""Synchronization primitives for simulation processes.

These model the kernel-side synchronization the paper leans on:

* :class:`Lock` models sleeping mutexes/semaphores such as ``mmap_sem``,
  which LATR holds across an AutoNUMA migration until every core has swept
  its state (paper section 4.4).
* :class:`Semaphore` generalizes to counted resources.
* :class:`Channel` models message-passing between cores, used by the
  Barrelfish-style comparator mechanism.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Signal, SimulationError, Simulator


class Lock:
    """A FIFO mutex. ``yield lock.acquire()`` inside a process; then release()."""

    def __init__(self, sim: Simulator, name: str = "lock"):
        self.sim = sim
        self.name = name
        self._held = False
        self._waiters: Deque[Signal] = deque()
        #: What a free acquire returns: one signal, fired once with this
        #: lock, so a waiting process resumes in the same frame.
        self._granted = Signal(sim).succeed(self)
        #: total acquisitions, for contention accounting in experiments
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def locked(self) -> bool:
        return self._held

    def acquire(self) -> Signal:
        """Return a signal that fires when the lock is granted to the caller
        (already fired when the lock is free)."""
        if not self._held:
            self._held = True
            self.acquisitions += 1
            return self._granted
        sig = Signal(self.sim)
        self.contended_acquisitions += 1
        self._waiters.append(sig)
        return sig

    def release(self) -> None:
        if not self._held:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        if self._waiters:
            nxt = self._waiters.popleft()
            self.acquisitions += 1
            # Hand-off stays held; wake the next waiter at t+0 to preserve
            # deterministic event ordering.
            self.sim.after(0, nxt.succeed, self)
        else:
            self._held = False


class Semaphore:
    """A counted semaphore with FIFO wakeup."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "sem"):
        if capacity < 1:
            raise SimulationError("semaphore capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Signal] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Signal:
        sig = Signal(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            sig.succeed(self)
        else:
            self._waiters.append(sig)
        return sig

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle semaphore {self.name!r}")
        if self._waiters:
            nxt = self._waiters.popleft()
            self.sim.after(0, nxt.succeed, self)
        else:
            self._in_use -= 1


class Channel:
    """An unbounded FIFO message channel between processes.

    ``put`` never blocks; ``get`` returns a signal that fires with the next
    message (immediately if one is queued). Used to model the per-core
    message queues of message-passing shootdown designs (Barrelfish).
    """

    def __init__(self, sim: Simulator, name: str = "chan"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        self.put_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.put_count += 1
        if self._getters:
            getter = self._getters.popleft()
            self.sim.after(0, getter.succeed, item)
        else:
            self._items.append(item)

    def get(self) -> Signal:
        sig = Signal(self.sim)
        if self._items:
            sig.succeed(self._items.popleft())
        else:
            self._getters.append(sig)
        return sig

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; None when empty."""
        if self._items:
            return self._items.popleft()
        return None
