"""Shared helpers for the test suite (importable as `helpers`)."""

from __future__ import annotations

import pytest
from hypothesis import Phase

from repro import build_system
from repro.kernel.kernel import Kernel
from repro.sim.engine import MSEC, SEC


#: Hypothesis phases of the op-list properties (lists of at least 30 ops):
#: every phase but shrinking. Minimising a failing list that long ran for
#: minutes, until hypothesis' 300 s shrink cap, while its memory grew;
#: without it a failure reports in seconds, with the falsifying example as
#: generated. Every example is still generated and checked, and the example
#: database replays a failing one first on the next run.
OP_LIST_PHASES = tuple(phase for phase in Phase if phase is not Phase.shrink)


def make_proc(system, n_threads=None, name="proc"):
    """Create a process with one thread pinned per core (or n_threads)."""
    kernel = system.kernel
    n = n_threads if n_threads is not None else kernel.machine.n_cores
    proc = kernel.create_process(name)
    tasks = [kernel.spawn_thread(proc, f"t{i}", i) for i in range(n)]
    return proc, tasks


def run_to_completion(system, gen, timeout_ms=2_000):
    """Spawn ``gen`` and run the sim until it completes; returns its value."""
    proc = system.sim.spawn(gen)
    system.sim.run(until=system.sim.now + timeout_ms * MSEC, stop=proc.done)
    assert not proc.alive, "process did not finish in time"
    return proc.value


def run_apache_cold(mechanism, order_log=None, **config):
    """Run one Apache cell on a cold boot, past the warm-boot pool, so what
    it builds does not depend on the cells run before it. Returns
    ``(result, simulator)``; a given ``order_log`` list receives the
    executed ``(time, seq)`` order from the end of the boot on."""
    from repro.workloads import apache

    sims = []

    def cold(mech, **kwargs):
        system = build_system(mech, **kwargs)
        system.sim.order_log = order_log
        sims.append(system.sim)
        return system

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(apache, "warm_build_system", cold)
        result = apache.run_apache(mechanism, **config)
    return result, sims[0]


def drain(system, ms=5):
    """Advance the simulation by ``ms`` simulated milliseconds."""
    system.sim.run(until=system.sim.now + ms * MSEC)


@pytest.fixture
def set_batched_faults(monkeypatch):
    """A setter for ``Kernel.use_batched_faults`` that lasts to the end of
    the test: True runs plain touches through the batched fault loop,
    False through the per-page generic path. Import it into a test module
    to use it there."""

    def set_(batched: bool) -> None:
        monkeypatch.setattr(Kernel, "use_batched_faults", batched)

    return set_


def count_calls(monkeypatch, *methods):
    """Wrap each ``(cls, name)`` method so every call adds one to
    ``calls[name]``, and return ``calls``. The simulation is deterministic,
    so on a fixed run the counts are exact, host-independent work budgets."""
    calls = {}
    for cls, name in methods:
        calls[name] = 0
        monkeypatch.setattr(cls, name, _counting(getattr(cls, name), name, calls))
    return calls


def _counting(method, name, calls):
    def counted(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)

    return counted


#: Mutated by :func:`marker_cell`; proves where a cell executed (inline
#: cells change it in this process, sharded ones only in their worker).
MARKER_CALLS = []


def marker_cell(tag: str) -> str:
    MARKER_CALLS.append(tag)
    return tag


def list_cell(tag: str) -> list:
    """:func:`marker_cell` with a mutable value."""
    MARKER_CALLS.append(tag)
    return [tag]


def crash_cell(message: str = "boom"):
    """A run-cell entry point that always raises (crash-surfacing tests)."""
    raise ValueError(message)


def exit_cell(code: int = 3):
    """A run-cell entry point whose process dies at once, as under a signal
    or the OOM killer: no exception, no traceback."""
    import os

    os._exit(code)
