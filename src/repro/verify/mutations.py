"""Mutation injection: deliberately-broken system variants.

The verification suite's own correctness claim ("zero findings means the
mechanism is safe under these schedules") is only credible if a *broken*
system fails the same harnesses. Each :class:`Mutation` spec re-introduces
one bug class the design rules exist to prevent, at whichever layer the
bug lives (coherence algorithm, TLB hardware model, or kernel mm facade):

* ``reclaim_delay_zero`` -- the reclamation daemon trusts the age-based
  delay alone (the paper's two-tick rule) instead of also requiring an
  empty CPU bitmask, and the delay is forced to zero: frames return to the
  allocator while remote TLBs still cache them.
* ``skip_sweep_invalidate`` -- the sweep clears its bitmask bit (so
  reclamation proceeds on schedule) but "forgets" the TLB invalidation,
  modelling a lost INVLPG: every reclaim then races a live stale entry.
* ``tlb_index_desync`` -- the per-pcid TLB victim index misses every
  second fill, so indexed range invalidations skip a resident entry:
  a stale translation survives the shootdown and races the frame free.
* ``active_cache_stale`` -- a post's inbox fan-out skips one target core,
  so that core's sweeps never see the state while their cursor advances
  past it: the state keeps waiting for a sweep that never comes, never
  deactivates, and lazy work never drains (a liveness bug the progress
  guards and differential oracles must flag, not the instant-level
  invariants).
* ``broken_replica`` -- under the numaPTE replicated-page-table facade,
  the write-coordinating fan-out silently drops PTE clears for node 1:
  that node's replica keeps mappings the canonical table tore down, so
  hardware walks from node-1 cores translate through stale entries (the
  exact bug class the replica-coherence policy layer exists to prevent).
* ``broken_ept_shootdown`` -- under two-level translation
  (``use_virtualization``), the host-level (EPT) invalidation is skipped
  on guest-visible frees: gPA->hPA entries outlive their frames, so a
  guest 2D walk composes through a host entry into a frame already freed
  (and possibly handed to another VM) -- the virtualized twin of the
  stale-TLB bug class LATR's design rules exist to prevent.

The first two, ``tlb_index_desync``, ``broken_replica``, and
``broken_ept_shootdown`` must be caught by the
:class:`~repro.verify.monitor.InvariantMonitor`; ``active_cache_stale`` is
a liveness/equivalence bug caught by the drain guards and the
differential oracles. The mutation tests and the model checker's
mutation-audit experiment gate on exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Type

from ..coherence.latr import LatrCoherence
from ..coherence.numapte import NumaPteCoherence
from ..coherence.states import LatrFlag, SoaLatrState
from ..hw.machine import Machine

MUTATIONS = (
    "reclaim_delay_zero",
    "skip_sweep_invalidate",
    "tlb_index_desync",
    "active_cache_stale",
    "broken_replica",
    "broken_ept_shootdown",
)


@dataclass(frozen=True)
class Mutation:
    """One injectable bug: which layer it patches and how it must be caught.

    A spec may swap the coherence class and/or patch the built machine or
    kernel in place -- whichever layer hosts the bug.
    ``detected_by`` documents the oracle expected to flag it:

    * ``"monitor"`` -- instant-level invariant violations,
    * ``"progress"`` -- stall/drain guards (lazy work never completes),
    * ``"equivalence"`` -- differential replay against the reference
      configuration (escape hatch off / other mechanism) diverges.
    """

    name: str
    description: str
    coherence_cls: Optional[Type] = None
    machine_patch: Optional[Callable[[Machine], None]] = None
    #: Applied to the freshly-built Kernel (before any process exists);
    #: hosts bugs that live below the coherence layer (e.g. the mm facade).
    kernel_patch: Optional[Callable] = None
    detected_by: str = "monitor"


# ---------------------------------------------------------------------------
# Coherence-layer mutations (PR 1)
# ---------------------------------------------------------------------------


class EagerReclaimLatr(LatrCoherence):
    """Mutation: age-only reclamation with zero delay (no bitmask guard)."""

    mutation = "reclaim_delay_zero"

    def __init__(self, **kwargs):
        kwargs["reclaim_delay_ticks"] = 0
        super().__init__(**kwargs)

    def _reclaim_period_ns(self) -> int:
        # Poll far more often than the healthy daemon so the zero-delay free
        # lands inside the stale window instead of after the next sweep.
        return max(1, self.kernel.machine.spec.tick_interval_ns // 10)

    def _reclaim_round(self) -> None:
        tick = self.kernel.machine.spec.tick_interval_ns
        delay = self.reclaim_delay_ticks * tick
        now = self.kernel.sim.now
        still_pending: List[SoaLatrState] = []
        owner_costs: Dict[int, int] = {}
        for state in self._pending_reclaim:
            if now - state.posted_at < delay:  # BUG: no state.active guard
                still_pending.append(state)
                continue
            state.cpu_bitmask.clear()
            if state.active:
                state.active = False
                state.completed_at = now
                state.done.succeed(state)
            self._reclaim_state(state, owner_costs)
        self._pending_reclaim = still_pending
        self._migration_states = [s for s in self._migration_states if s.active]
        for core_id, cost in owner_costs.items():
            self.kernel.machine.core(core_id).steal_time(cost)


class SkipSweepInvalidateLatr(LatrCoherence):
    """Mutation: sweeps acknowledge states without invalidating the TLB."""

    mutation = "skip_sweep_invalidate"

    def sweep(self, core) -> int:
        lat = self._lat
        now = self.kernel.sim.now
        cost = lat.latr_sweep_base_ns
        for queue in self.queues.values():
            for state in queue.active_states():
                cost += lat.latr_sweep_per_entry_ns
                if core.id not in state.cpu_bitmask:
                    continue
                if state.flag is LatrFlag.MIGRATION and not state.pte_applied:
                    state.pte_applied = True
                    state.apply_pte_change()
                # BUG: the bitmask bit clears (so reclamation proceeds) but
                # core.tlb is never invalidated.
                state.clear_cpu(core.id, now)
        self._stats.counter("latr.sweeps").add()
        if self.kernel.invariant_monitor is not None:
            self.kernel.invariant_monitor.notify("latr.sweep", core=core.id)
        return cost


# ---------------------------------------------------------------------------
# Fast-path mutations (TLB index / sweep cache)
# ---------------------------------------------------------------------------


def desync_tlb_index(machine: Machine) -> None:
    """Mutation: every second TLB fill never lands in the per-pcid victim
    index, so indexed range invalidations miss a resident entry."""
    for core in machine.cores:
        tlb = core.tlb
        if not tlb.use_index:
            continue
        fills = [0]
        original_fill_new = tlb.fill_new

        def fill_new(pcid, vpn, pfn, writable=True, generation=0, mm_id=0,
                     _tlb=tlb, _orig=original_fill_new, _fills=fills):
            _orig(pcid, vpn, pfn, writable, generation, mm_id)
            _fills[0] += 1
            if _fills[0] % 2 == 0:
                # BUG: drop the index entry the fill just added; the
                # translation stays resident but invisible to shootdowns.
                _tlb._index_drop(_tlb._index, _tlb._key(pcid, vpn))

        # ``fill`` routes through the instance's patched ``fill_new``.
        tlb.fill_new = fill_new


class StaleActiveCacheLatr(LatrCoherence):
    """Mutation: a post's inbox fan-out skips its lowest target core.

    The state still waits for one sweep per target, but the skipped core's
    sweeps never drain it while advancing their cursor past its seq, so
    its remaining count never reaches zero and reclamation never happens:
    lazy work accumulates forever (drain failure / equivalence divergence).
    """

    mutation = "active_cache_stale"

    def _fan_out(self, gid: int, seq: int, mask: int) -> None:
        # BUG: the lowest target core never hears of the state.
        super()._fan_out(gid, seq, mask & (mask - 1))


# ---------------------------------------------------------------------------
# numaPTE replica-coherence mutation (PR 8)
# ---------------------------------------------------------------------------


class BrokenReplicaNumaPte(NumaPteCoherence):
    """Mutation carrier: the mechanism itself is healthy numaPTE (which
    turns page-table replication on); the bug lives in the paired
    ``kernel_patch``. The subclass only swallows the LATR schedule knobs
    the harnesses pass uniformly to mutated coherence classes."""

    mutation = "broken_replica"

    def __init__(self, **kwargs):
        super().__init__()


def skip_node1_replica(kernel) -> None:
    """Mutation: every mm created from now on drops PTE *clears* from node
    1's replica fan-out -- the missed-unmap flavour of replica incoherence:
    node-1 hardware walks keep translating through mappings the canonical
    table already tore down. (Installs still fan out, so the bug first
    bites inside the checked op space, not during harness setup.)"""
    from ..mm.pagetable import ReplicatedPageTable

    original = kernel.create_process

    def create_process(*args, **kwargs):
        process = original(*args, **kwargs)
        pt = process.mm.page_table
        if isinstance(pt, ReplicatedPageTable):
            orig_mirror = pt._mirror

            def mirror(method, *args, _pt=pt, _orig=orig_mirror):
                if method in ("clear_pte", "clear_huge_pte"):
                    # BUG: node 1's replica never sees the teardown.
                    _pt._skip_replica_nodes = frozenset({1})
                    try:
                        _orig(method, *args)
                    finally:
                        _pt._skip_replica_nodes = frozenset()
                else:
                    _orig(method, *args)

            pt._mirror = mirror
        return process

    kernel.create_process = create_process


def break_ept_detach(kernel) -> None:
    """Mutation: turn two-level translation on, then make the hypervisor
    "forget" the host-level (EPT) invalidation that must accompany every
    frame free. Guest-side coherence stays healthy (TLBs are shot down /
    lazily reclaimed as usual), but gPA->hPA entries outlive their frames,
    so a guest 2D walk composes through a host entry into a freed -- and
    possibly recycled -- frame. Caught by ``check_ept_coherence`` at the
    ``frame.free`` instant.

    Runs on the freshly-built kernel before any process exists, so every
    mm the harness creates gets a host table (``create_process`` defaults
    ``virtualized`` to ``kernel.use_virtualization``)."""
    kernel.use_virtualization = True
    # BUG: host (EPT) entries are never detached when their frame frees.
    # (The page-cache on_free hook was never installed -- the kernel
    # booted with virtualization off -- which is the same skipped
    # invalidation on the eviction path.)
    kernel._ept_detach = lambda pfn: 0


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


MUTATION_SPECS: Dict[str, Mutation] = {
    spec.name: spec
    for spec in (
        Mutation(
            name="reclaim_delay_zero",
            description="reclaim daemon frees on age alone (no bitmask guard)",
            coherence_cls=EagerReclaimLatr,
            detected_by="monitor",
        ),
        Mutation(
            name="skip_sweep_invalidate",
            description="sweep clears bitmask bits without TLB invalidation",
            coherence_cls=SkipSweepInvalidateLatr,
            detected_by="monitor",
        ),
        Mutation(
            name="tlb_index_desync",
            description="per-pcid TLB victim index misses every 2nd fill",
            machine_patch=desync_tlb_index,
            detected_by="monitor",
        ),
        Mutation(
            name="active_cache_stale",
            description="a post's inbox fan-out skips one target core",
            coherence_cls=StaleActiveCacheLatr,
            detected_by="progress",
        ),
        Mutation(
            name="broken_replica",
            description="numaPTE replica fan-out drops PTE clears for node 1",
            coherence_cls=BrokenReplicaNumaPte,
            kernel_patch=skip_node1_replica,
            detected_by="monitor",
        ),
        Mutation(
            name="broken_ept_shootdown",
            description="host (EPT) invalidation skipped on guest-visible free",
            kernel_patch=break_ept_detach,
            detected_by="monitor",
        ),
    )
}

assert tuple(MUTATION_SPECS) == MUTATIONS


def mutation_spec(mutation: str) -> Mutation:
    """The :class:`Mutation` spec for ``mutation`` (see :data:`MUTATIONS`)."""
    try:
        return MUTATION_SPECS[mutation]
    except KeyError:
        raise KeyError(
            f"unknown mutation {mutation!r}; have {sorted(MUTATION_SPECS)}"
        ) from None


def mutated_latr_class(mutation: str) -> Type[LatrCoherence]:
    """The (possibly unmutated) LATR class for ``mutation``.

    Machine- and kernel-level mutations keep the healthy coherence class;
    use :func:`mutation_spec` to apply every layer of a mutation.
    """
    return mutation_spec(mutation).coherence_cls or LatrCoherence
