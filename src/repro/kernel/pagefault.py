"""Page-fault handling: demand paging, page cache, CoW, NUMA hints, swap.

The handler charges realistic costs and keeps the TLB model honest: every
resolved fault installs a translation tagged with the frame's *generation*,
which the invariant checker uses to prove LATR never lets a core translate
through a recycled frame.

Simplification (documented in DESIGN.md): faults take ``mmap_sem``
exclusively rather than shared. This preserves the orderings the paper's
correctness argument needs (fault vs. unmap, fault vs. AutoNUMA unmap,
section 4.4) at the cost of some parallelism that both compared mechanisms
lose equally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Tuple

from ..mm.addr import addr_of, vpn_of
from ..mm.fault import FaultKind, FaultResult
from ..mm.mmstruct import MmStruct
from ..mm.pte import Pte, PteFlags, make_present_pte
from ..mm.vma import Vma, VmaKind
from .task import Task

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

#: Page-cache miss "I/O" cost: reading a 4 KB block from a warm NVMe/buffer
#: layer. The paper's Apache experiment serves a fully cached file, so this
#: only shows up for first touches.
PAGE_IO_NS = 9_000


class PageFaultHandler:
    """do_page_fault() analogue."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel

    def handle(
        self,
        task: Task,
        core,
        vaddr: int,
        write: bool,
        sem_held: bool = False,
    ) -> Generator:
        """Resolve a fault; returns a :class:`FaultResult`.

        ``sem_held`` lets callers already under ``mmap_sem`` (the AutoNUMA
        migration path) reuse the handler without self-deadlock.
        """
        kernel = self.kernel
        lat = kernel.machine.latency
        mm = task.mm
        vpn = vpn_of(vaddr)
        stats = kernel.stats

        stats.counter("faults.total").add()
        yield from core.execute(lat.page_fault_base_ns)

        if not sem_held:
            yield mm.mmap_sem.acquire()
        try:
            result = yield from self.resolve_locked(task, core, vaddr, write)
        finally:
            if not sem_held:
                mm.mmap_sem.release()

        if result.kind is FaultKind.SEGFAULT:
            return result
        if result.pfn is not None:
            yield from self._install_translation(task, core, vpn, result.pfn, write)
        stats.counter(f"faults.{result.kind.value}").add()
        return result

    def resolve_locked(self, task, core, vaddr: int, write: bool) -> Generator:
        """The under-``mmap_sem`` half of :meth:`handle`: find the VMA and
        dispatch to the right fault flavour. Exposed so the batched
        ``touch_pages`` path can delegate pages that turn out not to be
        plain 4 KiB demand faults without re-charging the fault entry
        cost (the caller owns ``mmap_sem``, the entry accounting, the TLB
        install, and the per-kind counter)."""
        mm = task.mm
        vpn = vpn_of(vaddr)
        stats = self.kernel.stats
        vma = mm.vmas.find(vaddr)
        if vma is None or (write and not vma.writable):
            stats.counter("faults.segfault").add()
            return FaultResult(FaultKind.SEGFAULT, vpn)

        pte = mm.page_table.walk(vpn)
        if pte is None:
            result = yield from self._demand_fault(task, core, vma, vpn, write)
        elif pte.swapped:
            result = yield from self._swap_in(task, core, vpn, pte)
        elif pte.numa_hint:
            result = yield from self._numa_hint_fault(task, core, vpn, pte)
        elif pte.cow and write:
            result = yield from self._cow_break(task, core, vpn, pte)
        elif pte.present:
            stats.counter("faults.spurious").add()
            result = FaultResult(FaultKind.SPURIOUS, vpn, pfn=pte.pfn)
        else:
            stats.counter("faults.segfault").add()
            result = FaultResult(FaultKind.SEGFAULT, vpn)
        return result

    # ---- fault flavours ----------------------------------------------------------

    def _demand_fault(self, task, core, vma: Vma, vpn: int, write: bool) -> Generator:
        if vma.huge:
            result = yield from self._huge_fault(task, core, vma, vpn, write)
            if result is not None:
                return result
            # Fragmented memory: fall through to a 4 KiB mapping (THP
            # fallback) via the normal anonymous path below.
        pfn, pte, cost, kind = self.fresh_page(vma, vpn, core.socket)
        yield from core.execute(cost)
        task.mm.page_table.set_pte(vpn, pte)
        if pte.cow and write:
            return (yield from self._cow_break(task, core, vpn, pte))
        return FaultResult(kind, vpn, pfn=pfn)

    def fresh_page(self, vma: Vma, vpn: int, node: int) -> Tuple[int, Pte, int, FaultKind]:
        """Back ``vpn`` of ``vma`` with a frame for a 4 KiB demand fault:
        ``(pfn, pte, cost_ns, kind)``, with nothing charged or installed.

        A FILE page comes from the page cache (a major fault fills it
        first) and takes a mapping reference; it maps read-only, CoW when
        the VMA is writable (private file mapping semantics). An anonymous
        page is a fresh zeroed frame on ``node``. The caller charges
        ``cost_ns`` and then sets the PTE, under ``mmap_sem``: this is the
        one copy of that bookkeeping, shared by :meth:`_demand_fault` and
        the batched touch loop."""
        kernel = self.kernel
        lat = kernel.machine.latency
        if vma.kind is VmaKind.FILE:
            page_index = vma.file_offset // 4096 + (vpn - vma.range.vpn_start)
            pfn, cached = kernel.page_cache.get_or_fill(vma.file_key, page_index, node)
            kernel.frames.get(pfn)  # the mapping's reference
            pte = make_present_pte(pfn, writable=False, cow=vma.writable)
            if cached:
                return pfn, pte, lat.pte_set_ns, FaultKind.MINOR_FILE
            cost = lat.page_alloc_ns + PAGE_IO_NS + lat.pte_set_ns
            return pfn, pte, cost, FaultKind.MAJOR_FILE
        pfn = kernel.frames.alloc(node)
        pte = make_present_pte(pfn, writable=vma.writable)
        cost = lat.page_alloc_ns + lat.page_zero_ns + lat.pte_set_ns
        return pfn, pte, cost, FaultKind.MINOR_ANON

    def _huge_fault(self, task, core, vma: Vma, vpn: int, write: bool) -> Generator:
        """Try to satisfy the fault with one 2 MiB mapping; None on
        fragmentation (caller falls back to 4 KiB)."""
        from ..mm.addr import HUGE_PAGE_PAGES, VirtRange, huge_base_vpn
        from ..mm.frames import FrameAllocatorError
        from ..mm.pte import make_huge_pte

        kernel = self.kernel
        lat = kernel.machine.latency
        mm = task.mm
        base_vpn = huge_base_vpn(vpn)
        # Some of the 512 pages may already have 4 KiB mappings (earlier
        # fallback faults); those block a PD-level entry.
        huge_range = VirtRange.from_pages(base_vpn, HUGE_PAGE_PAGES)
        if any(True for _ in mm.page_table.entries_in_range(huge_range)):
            return None
        try:
            base_pfn = kernel.frames.alloc_contiguous(HUGE_PAGE_PAGES, node=core.socket)
        except FrameAllocatorError:
            kernel.stats.counter("thp.alloc_fallbacks").add()
            return None
        yield from core.execute(lat.huge_page_zero_ns + lat.pte_set_ns)
        mm.page_table.set_huge_pte(
            base_vpn, make_huge_pte(base_pfn, writable=vma.writable)
        )
        kernel.stats.counter("faults.huge").add()
        return FaultResult(FaultKind.MINOR_ANON, base_vpn, pfn=base_pfn)

    def _swap_in(self, task, core, vpn: int, pte: Pte) -> Generator:
        kernel = self.kernel
        lat = kernel.machine.latency
        swap = getattr(kernel, "swap", None)
        if swap is None:
            raise RuntimeError("swap PTE found but no swap device attached")
        pfn = yield from swap.swap_in(core, pte.swap_slot)
        task.mm.page_table.set_pte(vpn, make_present_pte(pfn, writable=True))
        yield from core.execute(lat.pte_set_ns)
        return FaultResult(FaultKind.SWAP_IN, vpn, pfn=pfn)

    def _numa_hint_fault(self, task, core, vpn: int, pte: Pte) -> Generator:
        """AutoNUMA sampling fault (paper sections 2.1, 4.3)."""
        kernel = self.kernel
        autonuma = getattr(kernel, "autonuma", None)
        if autonuma is not None:
            return (yield from autonuma.handle_hint_fault(task, core, vpn, pte))
        # No AutoNUMA service: just clear the hint.
        task.mm.page_table.update_pte(vpn, pte.clear_numa_hint())
        yield from core.execute(kernel.machine.latency.pte_set_ns)
        return FaultResult(FaultKind.NUMA_HINT, vpn, pfn=pte.pfn)

    def _cow_break(self, task, core, vpn: int, pte: Pte) -> Generator:
        """Copy-on-write: ownership change, synchronous shootdown (Table 1)."""
        from ..coherence.base import ShootdownReason
        from ..mm.addr import VirtRange

        kernel = self.kernel
        lat = kernel.machine.latency
        mm = task.mm
        old_pfn = pte.pfn
        if kernel.frames.refcount(old_pfn) == 1:
            # Sole owner: just restore write permission, still flush other
            # cores' read-only entries for this page.
            new_pte = pte.with_flags(add=PteFlags.WRITE, drop=PteFlags.COW)
            mm.page_table.update_pte(vpn, new_pte)
            yield from core.execute(lat.pte_set_ns)
            new_pfn = old_pfn
        else:
            new_pfn = kernel.frames.alloc(core.socket)
            yield from core.execute(
                lat.page_alloc_ns + lat.page_copy_ns + lat.pte_set_ns
            )
            tag = kernel.page_contents.get(old_pfn)
            if tag is not None:
                kernel.page_contents[new_pfn] = tag
            mm.page_table.set_pte(vpn, make_present_pte(new_pfn, writable=True))
            old_freed = kernel.frames.put(old_pfn)
            if old_freed and kernel.use_virtualization:
                # The shared original actually freed: its host (EPT)
                # translations are stale now (flat runs: dead branch).
                kernel._ept_detach(old_pfn)
        vrange = VirtRange.from_pages(vpn, 1)
        yield from kernel.coherence.shootdown_sync(core, mm, vrange, ShootdownReason.COW)
        return FaultResult(FaultKind.COW_BREAK, vpn, pfn=new_pfn)

    # ---- TLB install ----------------------------------------------------------------

    def _install_translation(self, task, core, vpn: int, pfn: int, write: bool) -> Generator:
        kernel = self.kernel
        mm = task.mm
        # The hardware re-walk descends the walking core's local replica
        # (numaPTE) or pays the hop distance to the shared table's node;
        # with replication modelling off both are the flat walk as before.
        pte, walk_extra = kernel.pt_hw_walk(core, mm, vpn)
        if pte is None or not pte.present:
            # The mapping changed under us (lazy unmap landed); nothing to cache.
            yield from core.execute(0)
            return
        # Any replica fan-out the fault's PTE writes accumulated is charged
        # here, on the faulting core (0 when replication is off), as is the
        # EPT-violation fill for a VM task's first access to this frame
        # (0 when flat).
        extra = kernel.fill_tlb(core, mm, vpn, pte, drain=True)
        yield from core.execute(kernel.machine.latency.tlb_miss_walk_ns + walk_extra + extra)
