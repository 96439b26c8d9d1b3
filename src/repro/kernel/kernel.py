"""Kernel facade: wires machine, memory, scheduler, and coherence together.

A :class:`Kernel` is one bootable simulated system. Experiments construct
one per (machine, mechanism) pair, create processes/threads through it, and
read results from ``kernel.stats``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..coherence.base import TLBCoherence
from ..hw.machine import Machine
from ..hw.tlb import TlbEntry
from ..mm.addr import huge_base_vpn
from ..mm.frames import FrameAllocator
from ..mm.mmstruct import MmStruct
from ..mm.pagecache import PageCache
from ..mm.pagetable import LEVELS, ReplicatedPageTable
from ..mm.pte import Pte, PteFlags
from ..sim.engine import Simulator
from ..sim.rng import RngStreams
from .scheduler import Scheduler
from .task import KProcess, Task

#: Default physical memory per NUMA node, in frames (256 MiB); workloads
#: are sized well below this so allocation never becomes the bottleneck
#: unless an experiment wants it to (the swap tests shrink it).
DEFAULT_FRAMES_PER_NODE = 65_536


class Kernel:
    """The simulated operating system."""

    #: Plain ``touch_pages`` calls take the batched fault loop. Tests set
    #: it to False to run the per-page generic path against the loop.
    use_batched_faults = True

    def __init__(
        self,
        machine: Machine,
        coherence: TLBCoherence,
        frames_per_node: int = DEFAULT_FRAMES_PER_NODE,
        seed: int = 1,
        use_pt_replication: Optional[bool] = None,
        use_virtualization: Optional[bool] = None,
    ):
        self.machine = machine
        self.sim: Simulator = machine.sim
        self.stats = machine.stats
        self.coherence = coherence
        #: NUMA-aware page-table placement modelling (numaPTE). ``None``
        #: asks the mechanism (only numaPTE wants it); off preserves
        #: today's flat single-table behavior bit-identically. When on,
        #: hardware walks charge hop-aware latency for remote tables and,
        #: if the mechanism replicates (``wants_pt_replicas``), every mm
        #: gets one page-table replica per node behind the facade.
        self.use_pt_replication = (
            coherence.wants_pt_replicas if use_pt_replication is None else use_pt_replication
        )
        self.pt_replicas_enabled = self.use_pt_replication and coherence.wants_pt_replicas
        #: Node the single shared table (or the canonical replica) lives on.
        self.pt_home_node = 0
        #: (writer_node, replica_node) -> per-entry update cost ns memo.
        self._pt_update_costs: Dict[tuple, int] = {}
        #: Two-level (EPT/NPT) translation: processes become VM tasks whose
        #: guest tables sit over a gPA->hPA host table, hardware walks pay
        #: 2D step costs, and guest-visible frees additionally invalidate
        #: the host level. Off (the default) is byte-identical to the flat
        #: model: no host tables exist, every added charge is 0, and no
        #: virt counter is ever touched.
        self.use_virtualization = bool(use_virtualization)
        #: pfn -> {mm_id: MmStruct} reverse map of host-table (EPT) entries,
        #: so a frame free can find every host translation to invalidate.
        #: Insertion-ordered for determinism.
        self._ept_rmap: Dict[int, Dict[int, MmStruct]] = {}
        #: Extra ns a 2D walk adds over the native walk (4-level over
        #: 4-level unless a hugepage short-circuits a level).
        self._twod_extra = machine.latency.twod_walk_extra(LEVELS, LEVELS)
        self._twod_extra_huge = machine.latency.twod_walk_extra(LEVELS - 1, LEVELS)
        self.frames = FrameAllocator(machine.spec.sockets, frames_per_node)
        self.page_cache = PageCache(self.frames)
        if self.use_virtualization:
            # An eviction that actually frees a cached frame must drop its
            # host (EPT) translations too; flat runs leave the hook unset.
            self.page_cache.on_free = self._ept_detach
        self.scheduler = Scheduler(self)
        self.rng = RngStreams(seed)
        #: pcid -> MmStruct, for invariant checkers and PCID handling.
        self.mm_registry: Dict[int, MmStruct] = {}
        self.processes: List[KProcess] = []
        #: pfn -> content tag, maintained by workloads that want KSM/dedup
        #: to find identical pages.
        self.page_contents: Dict[int, str] = {}
        #: Optional services, installed via their .install(kernel) hooks.
        self.autonuma = None
        self.swap = None
        self.ksm = None
        self.compactor = None
        self.khugepaged = None
        #: Optional structured event tracer (repro.sim.trace.Tracer).
        self.tracer = None
        #: Optional continuous invariant monitor (repro.verify.InvariantMonitor):
        #: when attached, the coherence/mm paths call ``notify`` after every
        #: sweep, reclaim, IPI round, PTE change, and frame free.
        self.invariant_monitor = None

        coherence.attach(self)

        # Import here to avoid a cycle (these modules need Kernel for typing).
        from .pagefault import PageFaultHandler
        from .syscalls import Syscalls

        self.fault_handler = PageFaultHandler(self)
        self.syscalls = Syscalls(self)

        self._started = False

    # ---- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Boot: start scheduler ticks and mechanism background threads."""
        if self._started:
            return
        self._started = True
        self.scheduler.start()
        self.coherence.start()

    # ---- processes -------------------------------------------------------------

    def create_process(self, name: str, virtualized: Optional[bool] = None) -> KProcess:
        if virtualized is None:
            virtualized = self.use_virtualization
        mm = MmStruct(
            self.sim,
            name=name,
            pt_nodes=self.machine.spec.sockets if self.pt_replicas_enabled else None,
            pt_home_node=self.pt_home_node,
            virtualized=virtualized,
        )
        self.mm_registry[mm.pcid] = mm
        proc = KProcess(name, mm)
        self.processes.append(proc)
        if self.invariant_monitor is not None:
            self.invariant_monitor.watch_mm(mm)
        return proc

    def spawn_thread(self, process: KProcess, name: str, core_id: int) -> Task:
        """Create a thread pinned to ``core_id`` and place it."""
        task = process.add_thread(name, core_id)
        self.scheduler.place(task)
        return task

    def mm_of_pcid(self, pcid: int) -> Optional[MmStruct]:
        return self.mm_registry.get(pcid)

    # ---- memory services ----------------------------------------------------------

    def release_frames(self, pfns: Iterable[int]) -> None:
        """Drop the mapping reference of each frame (frees at refcount 0)."""
        freed_pfns = self.frames.free_batch(pfns)
        page_contents = self.page_contents
        for pfn in freed_pfns:
            page_contents.pop(pfn, None)
        if freed_pfns and self._ept_rmap:
            # Only once a frame actually frees (refcount 0) do its host
            # translations go stale: a CoW/shared drop keeps them valid.
            for pfn in freed_pfns:
                self._ept_detach(pfn)
        if freed_pfns and self.invariant_monitor is not None:
            # The instant a frame returns to the allocator is exactly when a
            # still-cached translation becomes a use-after-free window.
            self.invariant_monitor.notify("frame.free")

    def set_page_content(self, pfn: int, tag: str) -> None:
        """Workload hook: tag a frame's contents (drives KSM dedup)."""
        self.page_contents[pfn] = tag

    # ---- NUMA-aware page-table placement (numaPTE) ----------------------------------

    def pt_walk_table(self, core, mm: MmStruct):
        """Table a hardware walk from ``core`` descends, plus the extra ns
        per walk its placement costs: ``(table, extra_ns)``.

        With ``use_pt_replication`` off this is the shared table at zero
        extra -- the flat model, exactly as before. On: a replicated mm
        returns the core's *local* replica (materialized on first use) at
        zero extra; a single-table mm charges the hop distance to the
        table's home node. Batched fault paths hoist this per batch.
        """
        pt = mm.page_table
        if not self.use_pt_replication:
            return pt, 0
        node = core.socket
        if isinstance(pt, ReplicatedPageTable):
            return pt.local_table(node), 0
        table_node = self.pt_home_node
        if table_node == node:
            return pt, 0
        return pt, self.machine.interconnect.pt_walk_cost(node, table_node)

    def note_pt_walks(self, n: int, extra_ns: int) -> None:
        """Count ``n`` hardware walks that each paid ``extra_ns`` for
        table placement (no-op with replication off -- the flat model
        keeps its counter set unchanged). Feeds the numapte experiment."""
        if not self.use_pt_replication or n <= 0:
            return
        if extra_ns:
            self.stats.counter("pt.walk.remote").add(n)
            self.stats.counter("pt.walk.remote_ns").add(n * extra_ns)
        else:
            self.stats.counter("pt.walk.local").add(n)

    def pt_hw_walk(self, core, mm: MmStruct, vpn: int):
        """One counted hardware walk: ``(pte, extra_ns)``.

        For a VM task the walk is two-dimensional: every guest level pays
        a host walk, so ``extra`` additionally carries the 2D step cost
        (a guest hugepage short-circuits one guest level)."""
        table, extra = self.pt_walk_table(core, mm)
        self.note_pt_walks(1, extra)
        pte = table.walk(vpn)
        if self.use_virtualization and mm.host_table is not None:
            twod = (
                self._twod_extra_huge
                if pte is not None and pte.flags & PteFlags.HUGE
                else self._twod_extra
            )
            self.note_2d_walks(1, twod)
            extra += twod
        return pte, extra

    def fill_tlb(self, core, mm: MmStruct, vpn: int, pte: Pte, drain: bool) -> int:
        """Cache the present ``pte`` of ``vpn`` in ``core``'s TLB; returns
        the ns the fill adds to its hardware walk's charge.

        In this order: the fill (one 2 MiB entry for a huge PTE), the
        mechanism's fill hook, with ``drain`` the replica fan-out of the
        fault's PTE writes (a refill writes no PTE and drains nothing),
        and the EPT fill of a VM task's first access to the frame. The
        fault install, the refill in ``access`` and the batched touch
        loop all fill through here and keep only their walk and their
        ``core.execute``."""
        pfn = pte.pfn
        generation = self.frames.generation(pfn)
        if pte.huge:
            core.tlb.fill_huge(
                mm.pcid,
                huge_base_vpn(vpn),
                TlbEntry(
                    pfn=pfn,
                    writable=pte.writable,
                    generation=generation,
                    debug_mm_id=mm.mm_id,
                ),
            )
        else:
            core.tlb.fill_new(mm.pcid, vpn, pfn, pte.writable, generation, mm.mm_id)
        extra = self.coherence.on_tlb_fill(core, mm, vpn)
        if drain:
            extra += self.drain_replica_work(core, mm)
        return extra + self.ept_fill(mm, pfn)

    def drain_replica_work(self, core, mm: MmStruct) -> int:
        """Hop-aware ns of pending replica fan-out work for ``mm``.

        The facade counts entry updates per replica node at mutation
        time; this converts the counts into nanoseconds against the
        charging core and resets them. Always 0 (with no side effects)
        when replication is off, so call sites can add it into existing
        ``core.execute`` sums without changing event schedules.
        """
        if not self.pt_replicas_enabled:
            return 0
        pt = mm.page_table
        if not isinstance(pt, ReplicatedPageTable):
            return 0
        pending = pt.take_pending_updates()
        if not pending:
            return 0
        node = core.socket
        # Node pairs recur on every drain; memoize the (deterministic)
        # per-entry hop cost instead of re-deriving it each time.
        costs = self._pt_update_costs
        total = 0
        entries = 0
        for replica_node, n_updates in pending:
            cost = costs.get((node, replica_node))
            if cost is None:
                cost = costs[(node, replica_node)] = (
                    self.machine.interconnect.pt_replica_update_cost(node, replica_node)
                )
            total += n_updates * cost
            entries += n_updates
        self.stats.counter("pt.replica.updates").add(entries)
        self.stats.counter("pt.replica.update_ns").add(total)
        return total

    # ---- two-level translation (EPT/NPT virtualization) ------------------------------

    def ept_fill(self, mm: MmStruct, pfn: int) -> int:
        """Demand-populate the host (EPT) entry backing ``pfn`` for a VM
        task's mm; returns the EPT-violation exit cost (0 when the entry
        already exists, or with virtualization off -- flat model exact).

        Called wherever a guest translation is installed: the first guest
        access to a frame takes an EPT violation, the hypervisor fills the
        gPA->hPA entry, and later guest walks hit it (paying only the 2D
        step cost).
        """
        if not self.use_virtualization:
            return 0
        host = mm.host_table
        if host is None:
            return 0
        if not host.populate(pfn, self.frames.generation(pfn)):
            return 0
        self._ept_rmap.setdefault(pfn, {})[mm.mm_id] = mm
        self.stats.counter("virt.ept.populations").add()
        return self.machine.latency.ept_violation_fill_ns

    def _ept_detach(self, pfn: int) -> int:
        """Drop every host-table (EPT) entry translating to ``pfn``; called
        the instant the frame actually frees. Returns entries dropped."""
        mms = self._ept_rmap.pop(pfn, None)
        if not mms:
            return 0
        dropped = 0
        for mm in mms.values():
            if mm.host_table is not None and mm.host_table.invalidate_pfn(pfn) is not None:
                dropped += 1
        return dropped

    def twod_walk_extra_ns(self, mm: MmStruct) -> int:
        """Extra ns a hardware walk of ``mm`` pays for two-dimensional
        (guest-over-host) translation; 0 for native mms or with the
        escape hatch off. Batched fault paths hoist this per batch."""
        if not self.use_virtualization or mm.host_table is None:
            return 0
        return self._twod_extra

    def note_2d_walks(self, n: int, extra_ns: int) -> None:
        """Count ``n`` two-dimensional hardware walks charged ``extra_ns``
        each (no-op when that extra is 0, so the flat model's counter set
        is untouched)."""
        if n <= 0 or extra_ns <= 0:
            return
        self.stats.counter("virt.walk.2d").add(n)
        self.stats.counter("virt.walk.2d_ns").add(n * extra_ns)

    def host_invalidation_work(self, core, mm: MmStruct, n_entries: int) -> int:
        """Synchronous ns of host-level (EPT) invalidation for a guest
        munmap/madvise clearing ``n_entries`` translations; 0 for native
        mms and with virtualization off, so call sites can fold it into
        existing ``core.execute`` sums without changing event schedules.

        Dispatch on the mechanism's ``host_invalidation`` policy:

        * ``"sync"`` (default, virtualized Linux): per-entry EPT upkeep
          plus an INVEPT kick to *every* vCPU the VM has run on -- the
          shootdown-cost explosion of Yan et al.
        * ``"snoop"`` (HATRIC): translation-coherence hardware snoops the
          host-table updates through the cache fabric; per-entry cost
          only, no vCPU kicks, no VM exits.
        * ``"lazy"`` (LATR): the host invalidation rides the lazy reclaim
          like the guest one -- a state write on the critical path, the
          per-entry upkeep stolen off it.
        """
        if not self.use_virtualization or n_entries <= 0:
            return 0
        if mm.host_table is None:
            return 0
        lat = self.machine.latency
        policy = self.coherence.host_invalidation
        if policy == "snoop":
            cost = n_entries * lat.hatric_snoop_entry_ns
        elif policy == "lazy":
            deferred = n_entries * lat.ept_inval_entry_ns
            core.steal_time(deferred)
            self.stats.counter("virt.host_inval.deferred_ns").add(deferred)
            cost = lat.latr_state_write_ns
        else:  # "sync"
            cost = n_entries * lat.ept_inval_entry_ns + lat.ept_invept_vcpu(0)
            topo = self.machine.topology
            for hops, count in topo.sharer_hop_counts(core.id, mm.cpumask).items():
                cost += count * lat.ept_invept_vcpu(hops)
        self.stats.counter("virt.host_inval.entries").add(n_entries)
        self.stats.counter("virt.host_inval.ns").add(cost)
        return cost

    # ---- convenience ----------------------------------------------------------------

    def core_of(self, task: Task):
        return self.machine.core(task.home_core_id)

    def run(self, until: int) -> None:
        """Advance the simulation to absolute time ``until`` (ns)."""
        self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Kernel {self.machine.spec.name} mechanism={self.coherence.name} "
            f"procs={len(self.processes)}>"
        )
