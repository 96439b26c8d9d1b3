"""The invariant checkers must *detect* violations, not just stay silent.

These negative tests corrupt the machine state by hand and assert that
each checker reports it -- otherwise a green property-based suite proves
nothing.
"""

from types import SimpleNamespace

from repro import build_system
from repro.hw.tlb import Tlb, TlbEntry
from repro.kernel.invariants import (
    check_frame_refcounts,
    check_lazy_vrange_isolation,
    check_no_stale_entries_for,
    check_tlb_frame_safety,
)
from repro.mm.addr import PAGE_SIZE, VirtRange
from repro.mm.frames import FrameAllocator
from repro.mm.vma import Prot, Vma

from helpers import make_proc, run_to_completion


def mapped_system():
    system = build_system("latr", cores=2)
    kernel = system.kernel
    proc, tasks = make_proc(system)
    box = {}

    def body():
        t0, c0 = tasks[0], kernel.machine.core(0)
        vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
        yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
        box["vrange"] = vrange

    run_to_completion(system, body())
    return system, proc, box["vrange"]


class TestTlbFrameSafetyChecker:
    def test_clean_state_passes(self):
        system, proc, vrange = mapped_system()
        assert check_tlb_frame_safety(system.kernel) == []

    def test_detects_freed_frame_translation(self):
        system, proc, vrange = mapped_system()
        kernel = system.kernel
        pfn = proc.mm.page_table.walk(vrange.vpn_start).pfn
        # Corrupt: free the frame while the TLB entry remains.
        proc.mm.page_table.clear_pte(vrange.vpn_start)
        kernel.frames.put(pfn)
        violations = check_tlb_frame_safety(kernel)
        assert violations and "FREED" in violations[0]

    def test_detects_recycled_frame(self):
        system, proc, vrange = mapped_system()
        kernel = system.kernel
        pfn = proc.mm.page_table.walk(vrange.vpn_start).pfn
        proc.mm.page_table.clear_pte(vrange.vpn_start)
        kernel.frames.put(pfn)
        # Reallocate until the same pfn comes back.
        for _ in range(kernel.frames.total_frames):
            got = kernel.frames.alloc(0)
            if got == pfn:
                break
        violations = check_tlb_frame_safety(kernel)
        assert violations and "RECYCLED" in violations[0]


class TestTlbFrameSafetyWording:
    """Healthy runs never reach the checker's wording branch, so its exact
    messages and their order are pinned here, for freed and recycled
    frames behind 4 KiB and huge entries."""

    def test_messages_and_order(self):
        frames = FrameAllocator(nodes=1, frames_per_node=4)
        ok, freed, recycled, _spare = (frames.alloc() for _ in range(4))
        frames.put(recycled)
        frames.put(freed)
        assert frames.alloc() == recycled  # back in use, one generation on
        cores = [
            SimpleNamespace(id=core_id, tlb=Tlb(capacity=8, pcid_enabled=True))
            for core_id in range(3)
        ]
        cores[0].tlb.fill(1, 0x10, TlbEntry(pfn=ok))
        cores[0].tlb.fill_huge(1, 0x400, TlbEntry(pfn=ok))
        tlb = cores[1].tlb
        tlb.fill(1, 0x20, TlbEntry(pfn=recycled))
        tlb.fill(2, 0x21, TlbEntry(pfn=ok))
        tlb.fill(1, 0x22, TlbEntry(pfn=freed))
        tlb.fill_huge(3, 0x200, TlbEntry(pfn=freed))
        tlb.fill_huge(1, 0x600, TlbEntry(pfn=recycled))
        tlb = cores[2].tlb
        tlb.fill_huge(2, 0x800, TlbEntry(pfn=recycled))
        tlb.fill(2, 0x30, TlbEntry(pfn=ok))
        tlb.fill(2, 0x31, TlbEntry(pfn=freed))
        kernel = SimpleNamespace(frames=frames, machine=SimpleNamespace(cores=cores))
        assert check_tlb_frame_safety(kernel) == [
            "core 1: TLB entry vpn=0x20 pcid=1 maps RECYCLED frame 2 (gen 0 -> 1)",
            "core 1: TLB entry vpn=0x22 pcid=1 maps FREED frame 1",
            "core 1: TLB entry vpn=0x200 pcid=3 maps FREED frame 1",
            "core 1: TLB entry vpn=0x600 pcid=1 maps RECYCLED frame 2 (gen 0 -> 1)",
            "core 2: TLB entry vpn=0x31 pcid=2 maps FREED frame 1",
            "core 2: TLB entry vpn=0x800 pcid=2 maps RECYCLED frame 2 (gen 0 -> 1)",
        ]


class TestRefcountChecker:
    def test_detects_leaked_reference(self):
        system, proc, vrange = mapped_system()
        kernel = system.kernel
        pfn = proc.mm.page_table.walk(vrange.vpn_start).pfn
        kernel.frames.get(pfn)  # reference nobody can enumerate
        violations = check_frame_refcounts(kernel)
        assert violations and f"frame {pfn}" in violations[0]

    def test_detects_missing_reference(self):
        system, proc, vrange = mapped_system()
        kernel = system.kernel
        proc.mm.defer_frames([proc.mm.page_table.walk(vrange.vpn_start).pfn])
        # Now the frame is enumerated twice (PTE + lazy list) but only has
        # one refcount.
        assert check_frame_refcounts(kernel)


class TestLazyVrangeChecker:
    def test_detects_remap_of_lazy_range(self):
        system, proc, vrange = mapped_system()
        mm = proc.mm
        other = VirtRange(vrange.end, vrange.end + PAGE_SIZE)
        mm.defer_vrange(other)
        # Corrupt: map a VMA right on top of the lazily-freed range.
        mm.vmas.insert(Vma(range=other, prot=Prot.rw()))
        violations = check_lazy_vrange_isolation(system.kernel)
        assert violations and "overlaps lazy range" in violations[0]


class TestStaleEntryChecker:
    def test_reports_then_clears(self):
        system, proc, vrange = mapped_system()
        kernel = system.kernel
        # Manually plant a stale entry on the remote core.
        remote = kernel.machine.core(1)
        remote.tlb.fill(
            proc.mm.pcid,
            vrange.vpn_start,
            TlbEntry(pfn=0, debug_mm_id=proc.mm.mm_id),
        )
        assert check_no_stale_entries_for(kernel, proc.mm, vrange)
        # The checker lists *every* entry in the range (it is meant to be
        # called after an unmap); flush both cores to clear it fully.
        remote.tlb.flush()
        kernel.machine.core(0).tlb.flush()
        assert check_no_stale_entries_for(kernel, proc.mm, vrange) == []
