"""TLB-coherence mechanism interface and shared IPI machinery.

Every mechanism the paper discusses (Linux 4.10 baseline, LATR, ABIS,
Barrelfish-style message passing) plugs in behind :class:`TLBCoherence`.
The kernel's VM paths call:

* :meth:`shootdown_free` from munmap()/madvise() after PTEs are cleared,
* :meth:`shootdown_sync` from mprotect()/mremap()/CoW, which Table 1 says
  must stay synchronous under every mechanism,
* :meth:`migration_unmap` from AutoNUMA sampling (and swap/KSM/compaction),
* the scheduler hooks ``on_tick`` / ``on_context_switch`` / idle hooks.

This module also encodes the paper's Tables 1 and 2 as data so the
``tab1``/``tab2`` experiments can print them and tests can cross-check the
implementations against their claimed properties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Callable, Generator, List, Optional

from ..mm.addr import VirtRange
from ..mm.mmstruct import MmStruct, mask_selectors
from ..sim.engine import Signal

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.core import Core
    from ..kernel.kernel import Kernel


class OpClass(enum.Enum):
    """Paper Table 1: virtual-address operation classes."""

    FREE = "free"
    MIGRATION = "migration"
    PERMISSION = "permission"
    OWNERSHIP = "ownership"
    REMAP = "remap"


#: Table 1: which operation classes admit a lazy shootdown.
LAZY_POSSIBLE = {
    OpClass.FREE: True,
    OpClass.MIGRATION: True,
    OpClass.PERMISSION: False,
    OpClass.OWNERSHIP: False,
    OpClass.REMAP: False,
}

#: Table 1 rows: (operation, class, lazy possible).
OPERATION_CLASSES = [
    ("munmap(): unmap address range", OpClass.FREE, True),
    ("madvise(): free memory range", OpClass.FREE, True),
    ("AutoNUMA: NUMA page migration", OpClass.MIGRATION, True),
    ("Page swap: swap page to disk", OpClass.MIGRATION, True),
    ("Deduplication: share similar pages", OpClass.MIGRATION, True),
    ("Compaction: physical pages defrag.", OpClass.MIGRATION, True),
    ("mprotect(): change page permission", OpClass.PERMISSION, False),
    ("CoW: Copy on Write", OpClass.OWNERSHIP, False),
    ("mremap(): change physical address", OpClass.REMAP, False),
]


@dataclass(frozen=True)
class MechanismProperties:
    """Paper Table 2 columns."""

    asynchronous: bool
    non_ipi: bool
    no_remote_core_involvement: bool
    no_hardware_changes: bool


#: Table 2 rows (hardware-only proposals included for the table printout;
#: the software rows are cross-checked against our implementations).
MECHANISM_PROPERTIES = {
    "DiDi": MechanismProperties(False, True, True, False),
    "Oskin et al.": MechanismProperties(False, False, True, False),
    "ARM TLBI": MechanismProperties(False, True, True, False),
    "UNITD": MechanismProperties(False, True, True, False),
    "HATRIC": MechanismProperties(False, True, True, False),
    "ABIS": MechanismProperties(False, False, False, True),
    "Barrelfish": MechanismProperties(False, True, False, True),
    "Linux": MechanismProperties(False, False, False, True),
    "LATR": MechanismProperties(True, True, True, True),
}


class ShootdownReason(enum.Enum):
    """Why a synchronous shootdown was requested (stats breakdown)."""

    MPROTECT = "mprotect"
    MREMAP = "mremap"
    COW = "cow"
    FALLBACK = "latr-fallback"
    FREE = "free"
    MIGRATION = "migration"


class TLBCoherence:
    """Base class: owns target selection and the shared IPI round."""

    #: Mechanism name as used in experiment tables.
    name = "base"
    properties = MechanismProperties(False, False, False, True)
    #: Whether this policy replicates page tables per NUMA node (numaPTE).
    #: The kernel consults this when ``use_pt_replication`` is unset; only
    #: the replica-coherence policy in ``coherence/numapte.py`` opts in.
    wants_pt_replicas = False
    #: How host-level (EPT) invalidations are performed when this mechanism
    #: runs under ``use_virtualization``: ``"sync"`` kicks every vCPU with
    #: INVEPT (virtualized Linux's cost explosion), ``"snoop"`` rides the
    #: cache-coherence fabric (HATRIC), ``"lazy"`` defers like LATR's guest
    #: path. Consulted only by ``Kernel.host_invalidation_work``; with
    #: virtualization off it is never read.
    host_invalidation = "sync"

    def __init__(self):
        self.kernel: Optional["Kernel"] = None

    # ---- wiring -------------------------------------------------------------

    def attach(self, kernel: "Kernel") -> None:
        """Bind to a kernel; called once during Kernel construction."""
        self.kernel = kernel

    def start(self) -> None:
        """Spawn any background machinery (kernel.start() calls this)."""

    # ---- helpers shared by all mechanisms ------------------------------------

    @property
    def _lat(self):
        return self.kernel.machine.latency

    @property
    def _stats(self):
        return self.kernel.stats

    def select_targets(self, initiator: "Core", mm: MmStruct) -> List["Core"]:
        """Remote cores that may cache this mm's translations, in ascending
        id order.

        Implements Linux's lazy-TLB idle optimization (paper section 2.3):
        idle cores are skipped and instead flagged to full-flush on wake, so
        no mechanism ever interrupts an idle core.
        """
        return self._cores_in(self._target_set(initiator, mm))

    def _target_set(self, initiator: "Core", mm: MmStruct) -> int:
        """:meth:`select_targets` as a core bitmap: the mm's cpumask minus
        the initiator's bit and the machine's lazy-TLB cores, in int
        arithmetic rather than a per-core loop (an mm on the fleet box is
        live on hundreds of cores). Only the idle cores' bits are visited,
        to flag them and count them in ``shootdown.idle_skipped``."""
        machine = self.kernel.machine
        others = mm.cpumask & ~(1 << initiator.id)
        idle = others & machine.lazy_cores
        if idle:
            for core in compress(machine.cores, mask_selectors(idle)):
                core.needs_flush_on_wake = True
            self._stats.counter("shootdown.idle_skipped").add(idle.bit_count())
            others ^= idle
        return others

    def _cores_in(self, mask: int) -> List["Core"]:
        """The machine's cores whose bits are set in ``mask``, ascending."""
        return list(compress(self.kernel.machine.cores, mask_selectors(mask)))

    def local_invalidate(self, core: "Core", mm: MmStruct, vrange: VirtRange) -> int:
        """Invalidate the initiator's own TLB; returns the cost in ns."""
        threshold = self.kernel.machine.spec.full_flush_threshold
        if vrange.n_pages > threshold:
            core.tlb.flush(mm.pcid)
        else:
            core.tlb.invalidate_range(mm.pcid, vrange.vpn_start, vrange.vpn_end)
        return self._lat.local_invalidation(vrange.n_pages, threshold)

    def ipi_round(
        self,
        core: "Core",
        mm: MmStruct,
        vrange: VirtRange,
        targets: List["Core"],
        reason: ShootdownReason,
    ) -> Generator:
        """The classic synchronous shootdown: send IPIs, remote handlers
        invalidate, initiator spins until the last ACK (paper Figure 2a).

        Used directly by the Linux baseline, by LATR's queue-full fallback,
        and by every mechanism for the always-synchronous classes.
        """
        lat = self._lat
        spec = self.kernel.machine.spec
        stats = self._stats
        start = self.kernel.sim.now

        stats.counter(f"shootdown.sync.{reason.value}").add()
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.emit(
                "ipi", "round.start", core=core.id,
                detail=f"reason={reason.value} targets={len(targets)} pages={vrange.n_pages}",
            )
        if not targets:
            yield from core.execute(0)
            return

        handler_cost = lat.ipi_handler(vrange.n_pages, spec.full_flush_threshold)
        # Remote TLB invalidation happens in the handler; do the functional
        # part eagerly at delivery time via a per-target callback baked into
        # deliver: the interconnect only models timing, so invalidate here
        # and let timing catch up. Invalidation-before-ACK ordering is
        # preserved because nothing observes the TLB between those instants
        # except the owning core, which is busy in the handler.
        threshold = spec.full_flush_threshold
        # Handler pollution grows with the invalidation batch it processes.
        pollution = lat.interrupt_pollution_lines + 2 * min(vrange.n_pages, threshold)
        for target in targets:
            if vrange.n_pages > threshold:
                target.tlb.flush(mm.pcid)
            else:
                target.tlb.invalidate_range(mm.pcid, vrange.vpn_start, vrange.vpn_end)
            self.kernel.machine.llc.record_interrupt_pollution(pollution)

        send_occupancy, all_acked = self.kernel.machine.interconnect.multicast_ipi(
            core, targets, handler_cost
        )
        yield from core.execute(send_occupancy)
        yield all_acked  # ACK wait: the initiator spins (paper 2.1)
        stats.latency("shootdown.sync_wait").record(self.kernel.sim.now - start)
        if tracer is not None:
            tracer.emit("ipi", "round.end", core=core.id)
        if self.kernel.invariant_monitor is not None:
            self.kernel.invariant_monitor.notify("ipi.round", core=core.id)

    # ---- mechanism API (overridden) ------------------------------------------

    def shootdown_free(
        self,
        core: "Core",
        mm: MmStruct,
        vrange: VirtRange,
        pfns: List[int],
        vrange_to_free: Optional[VirtRange],
    ) -> Generator:
        """Free-class shootdown (munmap/madvise). PTEs are already cleared
        and the local TLB is about to be handled by the mechanism. The
        mechanism decides when ``pfns`` and ``vrange_to_free`` become
        reusable."""
        raise NotImplementedError

    def shootdown_sync(
        self,
        core: "Core",
        mm: MmStruct,
        vrange: VirtRange,
        reason: ShootdownReason,
    ) -> Generator:
        """Permission/ownership/remap-class shootdown: must be complete on
        return (Table 1 'lazy not possible' rows)."""
        yield from core.execute(self.local_invalidate(core, mm, vrange))
        targets = self.select_targets(core, mm)
        yield from self.ipi_round(core, mm, vrange, targets, reason)

    def migration_unmap(
        self,
        core: "Core",
        mm: MmStruct,
        vrange: VirtRange,
        apply_pte_change: Callable[[], None],
    ) -> Generator:
        """Migration-class unmap (AutoNUMA sampling, swap-out, KSM,
        compaction). ``apply_pte_change`` performs the PTE modification;
        synchronous mechanisms run it immediately, LATR defers it to the
        first sweeping core (paper section 4.3)."""
        raise NotImplementedError

    def migration_gate(self, mm: MmStruct, vpn: int) -> Optional[Signal]:
        """If a lazy migration unmap covering ``vpn`` is still in flight,
        return a signal that fires when every core has invalidated (the
        mmap_sem gating of paper section 4.4); else None."""
        return None

    # ---- scheduler hooks ------------------------------------------------------

    def on_tick(self, core: "Core") -> None:
        """Scheduler tick on ``core``."""

    def on_context_switch(self, core: "Core", old_mm: Optional[MmStruct], new_mm: Optional[MmStruct]) -> None:
        """Context switch on ``core`` between address spaces."""

    def on_tlb_fill(self, core: "Core", mm: MmStruct, vpn: int) -> int:
        """A translation was cached on ``core``; returns extra cost in ns
        (ABIS charges its access-bit tracking here)."""
        return 0

    def pending_lazy_operations(self) -> int:
        """Outstanding lazy work (0 for synchronous mechanisms); experiments
        drain this before ending a measurement window."""
        return 0
