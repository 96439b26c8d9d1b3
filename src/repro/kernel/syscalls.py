"""Virtual-memory syscalls: mmap, munmap, madvise, mprotect, mremap, fork.

The munmap()/madvise() paths are the paper's Figure 2: clear PTEs, collect
the freed frames, invalidate locally, then hand the remote problem to the
coherence mechanism -- synchronous IPI round (Linux) or a 132 ns state
write (LATR). ``mmap_sem`` is held across the whole thing, which is what
couples shootdown latency to address-space operation *throughput* in the
Apache experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from ..coherence.base import ShootdownReason
from ..hw.tlb import entry_pfn, entry_writable
from ..mm.addr import PAGE_SIZE, VirtRange, page_align_up, vpn_of
from ..mm.fault import FaultResult, SegmentationFault
from ..mm.pte import Pte, PteFlags
from ..mm.vma import Prot, Vma, VmaKind
from .task import KProcess, Task

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class Syscalls:
    """The VM syscall surface workloads program against."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel

    @property
    def _lat(self):
        return self.kernel.machine.latency

    # ---- mmap ---------------------------------------------------------------------

    def mmap(
        self,
        task: Task,
        core,
        n_bytes: int,
        prot: Prot = Prot.READ | Prot.WRITE,
        kind: VmaKind = VmaKind.ANON,
        file_key: Optional[str] = None,
        file_offset: int = 0,
        populate: bool = False,
        huge: bool = False,
    ) -> Generator:
        """Map a fresh range; returns its :class:`VirtRange`.

        ``huge`` requests 2 MiB mappings (MAP_HUGETLB-style): the range is
        2 MiB-aligned/sized and faults install PD-level entries backed by
        contiguous frames (falling back to 4 KiB when memory is
        fragmented, like THP)."""
        from ..mm.addr import HUGE_PAGE_SIZE

        lat = self._lat
        mm = task.mm
        if kind is VmaKind.FILE and file_key is None:
            raise ValueError("FILE mapping needs a file_key")
        if huge and kind is not VmaKind.ANON:
            raise ValueError("huge mappings are anonymous only")
        yield from core.execute(lat.syscall_overhead_ns)
        yield mm.mmap_sem.acquire()
        try:
            yield from core.execute(lat.vma_op_ns)
            if huge:
                size = -(-page_align_up(n_bytes) // HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE
                vrange = mm.find_free_range(size, alignment=HUGE_PAGE_SIZE)
            else:
                vrange = mm.find_free_range(page_align_up(n_bytes))
            mm.vmas.insert(
                Vma(
                    range=vrange,
                    prot=prot,
                    kind=kind,
                    file_key=file_key,
                    file_offset=file_offset,
                    huge=huge,
                )
            )
            mm.bump_generation()
        finally:
            mm.mmap_sem.release()
        self.kernel.stats.counter("sys.mmap").add()
        if populate:
            yield from self.touch_pages(task, core, vrange, write=bool(prot & Prot.WRITE))
        return vrange

    # ---- free operations (Table 1, lazy possible) -----------------------------------

    def munmap(self, task: Task, core, vrange: VirtRange) -> Generator:
        """Unmap a range; Figure 2's critical path."""
        yield from self._free_operation(task, core, vrange, remove_vma=True)
        self.kernel.stats.counter("sys.munmap").add()

    def madvise_dontneed(self, task: Task, core, vrange: VirtRange) -> Generator:
        """MADV_DONTNEED/MADV_FREE: drop pages, keep the VMA."""
        yield from self._free_operation(task, core, vrange, remove_vma=False)
        self.kernel.stats.counter("sys.madvise").add()

    def _free_operation(self, task: Task, core, vrange: VirtRange, remove_vma: bool) -> Generator:
        kernel = self.kernel
        lat = self._lat
        mm = task.mm
        start = kernel.sim.now

        yield from core.execute(lat.syscall_overhead_ns)
        yield mm.mmap_sem.acquire()
        try:
            yield from core.execute(lat.vma_op_ns)
            if remove_vma:
                removed = mm.vmas.remove_range(vrange)
                if not removed:
                    kernel.stats.counter("sys.munmap_empty").add()

            from ..mm.addr import HUGE_PAGE_PAGES, huge_base_vpn
            from ..mm.frames import FrameBatch

            pfns = FrameBatch()
            pfns.free_units = 0
            pte_work = 0
            cleared_entries = 0
            # Huge mappings first: one PD-level clear releases 512 frames
            # (partially-covered huge mappings would need a THP split,
            # which we don't model -- unmap them whole). A compound page
            # frees as a few buddy operations, not 512.
            for base_vpn, hpte in list(mm.page_table.huge_in_range(vrange)):
                mm.page_table.clear_huge_pte(base_vpn)
                pte_work += lat.pte_clear_ns
                cleared_entries += 1
                pfns.extend(range(hpte.pfn, hpte.pfn + HUGE_PAGE_PAGES))
                pfns.free_units += 8
            for vpn in vrange.vpns():
                pte = mm.page_table.walk(vpn)
                if pte is None:
                    continue
                if pte.huge:
                    raise ValueError(
                        f"munmap splits huge mapping at vpn {huge_base_vpn(vpn):#x}; "
                        "unmap the whole 2MiB range"
                    )
                mm.page_table.clear_pte(vpn)
                pte_work += lat.pte_clear_ns
                cleared_entries += 1
                if pte.swapped:
                    swap = getattr(kernel, "swap", None)
                    if swap is not None:
                        swap.free_slot(pte.swap_slot)
                    continue
                pfns.append(pte.pfn)
                pfns.free_units += 1
            mm.bump_generation()

            # Reverse-map / mm-wide bookkeeping scales with the cores the
            # address space is live on; remote sharers bounce cachelines
            # across QPI (this is what keeps LATR's 120-core munmap at
            # ~40 us in Figure 7 while Linux pays IPIs on top).
            topo = kernel.machine.topology
            sharer_work = sum(
                lat.rmap_per_sharer(hops) * count
                for hops, count in topo.sharer_hop_counts(
                    core.id, mm.cpumask
                ).items()
            )
            # A VM task's free is nested: after the guest-side PTE clears,
            # the hypervisor must invalidate the host (EPT) level too --
            # synchronously (virtualized Linux's INVEPT-per-vCPU explosion),
            # by hardware snoop (HATRIC), or lazily (LATR). Exactly 0 with
            # virtualization off.
            yield from core.execute(
                pte_work + sharer_work + kernel.drain_replica_work(core, mm)
                + kernel.host_invalidation_work(core, mm, cleared_entries)
            )

            vrange_to_free = vrange if remove_vma else None
            yield from kernel.coherence.shootdown_free(
                core, mm, vrange, pfns, vrange_to_free
            )
        finally:
            mm.mmap_sem.release()
        op = "munmap" if remove_vma else "madvise"
        kernel.stats.latency(op).record(kernel.sim.now - start)

    # ---- synchronous classes (Table 1, lazy NOT possible) -----------------------------

    def mprotect(self, task: Task, core, vrange: VirtRange, new_prot: Prot) -> Generator:
        """Permission change: PTE updates visible system-wide at return."""
        kernel = self.kernel
        lat = self._lat
        mm = task.mm
        start = kernel.sim.now
        yield from core.execute(lat.syscall_overhead_ns)
        yield mm.mmap_sem.acquire()
        try:
            yield from core.execute(lat.vma_op_ns)
            for vma in mm.vmas.overlapping(vrange):
                self._split_to_fit(mm, vma, vrange)
            for vma in mm.vmas.overlapping(vrange):
                vma.prot = new_prot
            pte_work = 0
            for vpn, pte in list(mm.page_table.entries_in_range(vrange)):
                if not pte.present:
                    continue
                if new_prot & Prot.WRITE:
                    updated = pte.with_flags(add=PteFlags.WRITE)
                else:
                    updated = pte.with_flags(drop=PteFlags.WRITE)
                mm.page_table.update_pte(vpn, updated)
                pte_work += lat.pte_set_ns
            mm.bump_generation()
            yield from core.execute(pte_work + kernel.drain_replica_work(core, mm))
            yield from kernel.coherence.shootdown_sync(
                core, mm, vrange, ShootdownReason.MPROTECT
            )
        finally:
            mm.mmap_sem.release()
        kernel.stats.counter("sys.mprotect").add()
        kernel.stats.latency("mprotect").record(kernel.sim.now - start)

    def mremap(self, task: Task, core, old: VirtRange, new_n_bytes: int) -> Generator:
        """Move a mapping; returns the new range. Synchronous shootdown of
        the old range -- stale entries would alias the *moved* physical
        pages, so laziness is impossible (Table 1)."""
        kernel = self.kernel
        lat = self._lat
        mm = task.mm
        yield from core.execute(lat.syscall_overhead_ns)
        yield mm.mmap_sem.acquire()
        try:
            yield from core.execute(lat.vma_op_ns)
            pieces = mm.vmas.remove_range(old)
            if not pieces:
                raise SegmentationFault(old.start)
            template = pieces[0]
            new_range = mm.find_free_range(page_align_up(new_n_bytes))
            mm.vmas.insert(
                Vma(
                    range=new_range,
                    prot=template.prot,
                    kind=template.kind,
                    file_key=template.file_key,
                    file_offset=template.file_offset,
                )
            )
            pte_work = 0
            for offset, vpn in enumerate(old.vpns()):
                pte = mm.page_table.walk(vpn)
                if pte is None:
                    continue
                mm.page_table.clear_pte(vpn)
                new_vpn = new_range.vpn_start + offset
                if new_vpn < new_range.vpn_end:
                    mm.page_table.set_pte(new_vpn, pte)
                elif not pte.swapped:
                    kernel.release_frames([pte.pfn])
                pte_work += lat.pte_clear_ns + lat.pte_set_ns
            mm.bump_generation()
            yield from core.execute(pte_work + kernel.drain_replica_work(core, mm))
            yield from kernel.coherence.shootdown_sync(
                core, mm, old, ShootdownReason.MREMAP
            )
            mm.release_vrange(old)
        finally:
            mm.mmap_sem.release()
        kernel.stats.counter("sys.mremap").add()
        return new_range

    @staticmethod
    def _split_to_fit(mm, vma: Vma, vrange: VirtRange) -> None:
        """Split ``vma`` so no piece straddles ``vrange``'s boundaries."""
        if vma.start < vrange.start < vma.end:
            mm.vmas._remove_vma(vma)
            tail = vma.split_at(vrange.start)
            mm.vmas.insert(vma)
            mm.vmas.insert(tail)
            vma = tail
        if vma.start < vrange.end < vma.end:
            mm.vmas._remove_vma(vma)
            tail = vma.split_at(vrange.end)
            mm.vmas.insert(vma)
            mm.vmas.insert(tail)

    # ---- fork (CoW setup) ---------------------------------------------------------

    def fork(self, task: Task, core, child_name: str) -> Generator:
        """Clone the address space copy-on-write; returns the child KProcess.

        Write-protecting the parent's pages is an ownership change, so every
        VMA gets a synchronous shootdown (Table 1's CoW row).
        """
        kernel = self.kernel
        lat = self._lat
        mm = task.mm
        yield from core.execute(lat.syscall_overhead_ns)
        yield mm.mmap_sem.acquire()
        try:
            child = kernel.create_process(child_name)
            for vma in mm.vmas:
                child.mm.vmas.insert(
                    Vma(
                        range=vma.range,
                        prot=vma.prot,
                        kind=vma.kind,
                        file_key=vma.file_key,
                        file_offset=vma.file_offset,
                    )
                )
                pte_work = 0
                for vpn, pte in list(mm.page_table.entries_in_range(vma.range)):
                    if not pte.present:
                        continue
                    shared = pte.with_flags(add=PteFlags.COW, drop=PteFlags.WRITE)
                    mm.page_table.update_pte(vpn, shared)
                    child.mm.page_table.set_pte(vpn, shared)
                    kernel.frames.get(pte.pfn)
                    pte_work += 2 * lat.pte_set_ns
                yield from core.execute(pte_work + kernel.drain_replica_work(core, mm))
                yield from kernel.coherence.shootdown_sync(
                    core, mm, vma.range, ShootdownReason.COW
                )
            child.mm.bump_generation()
            mm.bump_generation()
        finally:
            mm.mmap_sem.release()
        kernel.stats.counter("sys.fork").add()
        return child

    # ---- memory access -------------------------------------------------------------

    def access(self, task: Task, core, vaddr: int, write: bool = False) -> Generator:
        """One memory access; returns a FaultResult if a fault was taken,
        None on a TLB hit or walk-hit. Raises SegmentationFault on SIGSEGV."""
        entry = core.tlb.lookup(task.mm.pcid, vpn_of(vaddr))
        if entry is not None and (entry_writable(entry) or not write):
            return None
        return (yield from self._after_tlb_miss(task, core, vaddr, write))

    def _after_tlb_miss(self, task: Task, core, vaddr: int, write: bool) -> Generator:
        """The half of :meth:`access` after its TLB lookup missed (or hit
        an entry that does not permit the write): the hardware walk, then
        a refill or a fault. The batched touch loop, which has done the
        lookup already, hands it every mapped page."""
        kernel = self.kernel
        mm = task.mm
        vpn = vpn_of(vaddr)
        # TLB refill: the hardware walk descends the core's local replica
        # (or pays the hop distance to the shared table's home node).
        pte, walk_extra = kernel.pt_hw_walk(core, mm, vpn)
        if pte is not None and pte.present and (pte.writable or not write):
            extra = kernel.fill_tlb(core, mm, vpn, pte, drain=False)
            yield from core.execute(self._lat.tlb_miss_walk_ns + walk_extra + extra)
            return None
        result = yield from kernel.fault_handler.handle(task, core, vaddr, write)
        if result.fatal:
            raise SegmentationFault(vaddr)
        return result

    def touch_pages(
        self,
        task: Task,
        core,
        vrange: VirtRange,
        write: bool = False,
        process_data: bool = False,
    ) -> Generator:
        """Touch every page of ``vrange`` once (first byte of each page).

        With ``process_data`` the caller is modelled as actually *working
        through* each page (one pass over its 64 cachelines), so pages
        resident on a remote NUMA node cost more -- the locality effect
        AutoNUMA migrations exist to buy back.

        Plain touches (no ``process_data``) take a flat batched fault path
        by default (see :meth:`_touch_pages_batched`); the
        ``use_batched_faults`` kernel flag is the escape hatch back to the
        generic per-page handler.
        """
        if self.kernel.use_batched_faults and not process_data:
            yield from self._touch_pages_batched(task, core, vrange, write)
            return
        lat = self.kernel.machine.latency
        topo = self.kernel.machine.topology
        for vpn in vrange.vpns():
            yield from self.access(task, core, vpn * PAGE_SIZE, write=write)
            if not process_data:
                continue
            pte = task.mm.page_table.walk(vpn)
            if pte is None or pte.swapped:
                continue
            page_node = self.kernel.frames.node_of(pte.pfn)
            hops = topo.socket_hops(core.socket, page_node)
            yield from core.execute(64 * lat.cacheline(hops))

    def _touch_pages_batched(self, task: Task, core, vrange: VirtRange, write: bool) -> Generator:
        """Flat-loop twin of the ``access``-per-page touch loop.

        Every page is looked up in the TLB once. A demand fault on an
        unmapped 4 KiB page -- anonymous, or a read of a ``FILE`` VMA (a
        page-cache minor or major fault) -- is served in this frame,
        without a nested generator or a ``FaultResult``. Its bookkeeping
        is :meth:`PageFaultHandler.fresh_page` and its fill
        :meth:`Kernel.fill_tlb`, both shared with the generic path, and
        the fill skips the generic re-walk: no yield separates
        ``set_pte`` from it.

        It keeps the model of the generic path bit-identical: the same
        ``core.execute`` amounts at the same points relative to
        ``mmap_sem``, the same page-cache, frame, PTE and TLB-fill calls in
        the same order, and the same counters, the walk counters bumped
        at each fill (a batch cut off by the end of a run has counted
        what it did). Apache maps, faults in and unmaps a file on every
        request; the tests diff batched against unbatched runs.

        Everything else is delegated: a mapped page (a refill, a CoW
        write, a NUMA hint, a swapped or huge page) goes to the
        post-lookup half of :meth:`access`; an unmapped page that is not
        a plain demand fault (file write, huge VMA, segfault) goes to
        ``resolve_locked`` under the ``mmap_sem`` the loop holds. One
        count differs by design: the generic path also counts the failed
        hardware walk in front of each demand fault (``pt.walk.*``,
        ``virt.walk.2d*``), and this loop does not.
        """
        kernel = self.kernel
        lat = self._lat
        mm = task.mm
        stats = kernel.stats
        fault_handler = kernel.fault_handler
        fresh_page = fault_handler.fresh_page
        fill_tlb = kernel.fill_tlb
        tlb = core.tlb
        pcid = mm.pcid
        page_table = mm.page_table
        mmap_sem = mm.mmap_sem
        node = core.socket
        # Counters are created at their first increment, as on the generic
        # path: a batch that takes no fault of a kind must not report it
        # as 0.
        faults_total = None
        fault_kinds = {}
        base_ns = lat.page_fault_base_ns
        # Hardware walks in this batch descend the core's local replica
        # (numaPTE) or pay the shared table's hop distance; both hoisted
        # once per batch. Off-mode: walk_table is page_table, extra is 0.
        walk_table, walk_extra = kernel.pt_walk_table(core, mm)
        # VM tasks pay the 2D (guest-over-host) step cost per walk and an
        # EPT fill per fresh frame; both are identically 0 when flat.
        twod_extra = kernel.twod_walk_extra_ns(mm)
        walk_ns = lat.tlb_miss_walk_ns + walk_extra + twod_extra
        for vpn in vrange.vpns():
            entry = tlb.lookup(pcid, vpn)
            if entry is not None and (entry_writable(entry) or not write):
                continue
            vaddr = vpn * PAGE_SIZE
            if walk_table.walk(vpn) is not None:
                yield from self._after_tlb_miss(task, core, vaddr, write)
                continue
            # Unmapped page: the fault entry sequence of
            # PageFaultHandler.handle, flattened.
            if faults_total is None:
                faults_total = stats.counter("faults.total")
            faults_total.add()
            yield from core.execute(base_ns)
            yield mmap_sem.acquire()
            try:
                # Re-validate under the lock -- a contended acquire may have
                # slept across a concurrent munmap/fault on this very page.
                vma = mm.vmas.find(vaddr)
                inline = (
                    vma is not None
                    and not vma.huge
                    and (not write or (vma.kind is not VmaKind.FILE and vma.writable))
                    and page_table.walk(vpn) is None
                )
                if inline:
                    pfn, pte, cost, kind = fresh_page(vma, vpn, node)
                    yield from core.execute(cost)
                    page_table.set_pte(vpn, pte)
                else:
                    result = yield from fault_handler.resolve_locked(
                        task, core, vaddr, write
                    )
            finally:
                mmap_sem.release()
            if inline:
                # _install_translation without its re-walk: no yield
                # separates set_pte from here, so the PTE is exactly ours.
                kernel.note_pt_walks(1, walk_extra)
                kernel.note_2d_walks(1, twod_extra)
                extra = fill_tlb(core, mm, vpn, pte, drain=True)
                yield from core.execute(walk_ns + extra)
                counter = fault_kinds.get(kind)
                if counter is None:
                    counter = fault_kinds[kind] = stats.counter(f"faults.{kind.value}")
                counter.add()
                continue
            if result.fatal:
                raise SegmentationFault(vaddr)
            if result.pfn is not None:
                yield from fault_handler._install_translation(
                    task, core, vpn, result.pfn, write
                )
            stats.counter(f"faults.{result.kind.value}").add()

    def write_with_content(self, task: Task, core, vaddr: int, tag: str) -> Generator:
        """Write to a page and tag the backing frame's content (KSM hook).

        The tag lands on the frame the access actually wrote through: a
        still-valid TLB entry may point at a frame whose page-table PTE is
        already a pending NUMA hint (LATR defers the PROT_NONE apply to
        the first sweep), and the write architecturally reaches that frame
        all the same."""
        yield from self.access(task, core, vaddr, write=True)
        vpn = vpn_of(vaddr)
        entry = core.tlb.lookup(task.mm.pcid, vpn)
        if entry is not None and entry_writable(entry):
            self.kernel.set_page_content(entry_pfn(entry), tag)
            return
        pte = task.mm.page_table.walk(vpn)
        if pte is not None and pte.present:
            self.kernel.set_page_content(pte.pfn, tag)
