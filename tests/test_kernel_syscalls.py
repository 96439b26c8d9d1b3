"""Kernel syscall and page-fault behaviour."""

import pytest

from repro import build_system
from repro.kernel.invariants import check_all
from repro.mm.addr import PAGE_SIZE, vpn_of
from repro.mm.fault import FaultKind, SegmentationFault
from repro.mm.vma import Prot, VmaKind

from helpers import make_proc, run_to_completion, drain


class TestMmapMunmap:
    def test_mmap_creates_vma_without_pages(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 3 * PAGE_SIZE)
            assert len(proc.mm.vmas) == 1
            assert len(proc.mm.page_table) == 0  # demand paging
            return vrange

        run_to_completion(system, body())

    def test_populate_faults_everything_in(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            yield from kernel.syscalls.mmap(t0, c0, 4 * PAGE_SIZE, populate=True)

        run_to_completion(system, body())
        assert len(proc.mm.page_table) == 4
        assert system.stats.counter("faults.minor-anon").value == 4

    def test_munmap_of_partially_populated_range(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 4 * PAGE_SIZE)
            yield from kernel.syscalls.access(t0, c0, vrange.start)
            yield from kernel.syscalls.munmap(t0, c0, vrange)

        run_to_completion(system, body())
        assert len(proc.mm.page_table) == 0
        assert len(proc.mm.vmas) == 0
        assert check_all(kernel) == []

    def test_access_unmapped_segfaults(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            yield from kernel.syscalls.access(t0, c0, 0xDEAD000)

        system.sim.spawn(body())
        with pytest.raises(SegmentationFault):
            drain(system, ms=10)

    def test_write_to_readonly_vma_segfaults(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE, prot=Prot.ro())
            yield from kernel.syscalls.access(t0, c0, vrange.start, write=True)

        system.sim.spawn(body())
        with pytest.raises(SegmentationFault):
            drain(system, ms=10)

    def test_madvise_keeps_vma_refault_gets_fresh_page(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
            yield from kernel.syscalls.access(t0, c0, vrange.start, write=True)
            out["pfn1"] = proc.mm.page_table.walk(vrange.vpn_start).pfn
            yield from kernel.syscalls.madvise_dontneed(t0, c0, vrange)
            assert len(proc.mm.vmas) == 1  # VMA survives
            assert proc.mm.page_table.walk(vrange.vpn_start) is None
            # Re-touch: demand-zero again.
            yield from kernel.syscalls.access(t0, c0, vrange.start, write=True)
            out["pfn2"] = proc.mm.page_table.walk(vrange.vpn_start).pfn

        run_to_completion(system, body())
        assert system.stats.counter("sys.madvise").value == 1
        assert system.stats.counter("faults.minor-anon").value == 2


class TestFileMappings:
    def test_file_pages_shared_via_page_cache(self):
        system = build_system("latr", cores=2)
        kernel = system.kernel
        proc_a, tasks_a = make_proc(system, n_threads=1, name="a")
        proc_b = kernel.create_process("b")
        task_b = kernel.spawn_thread(proc_b, "t0", 1)
        pfns = {}

        def body():
            t0, c0 = tasks_a[0], kernel.machine.core(0)
            ra = yield from kernel.syscalls.mmap(
                t0, c0, PAGE_SIZE, kind=VmaKind.FILE, file_key="index.html"
            )
            yield from kernel.syscalls.access(t0, c0, ra.start)
            pfns["a"] = proc_a.mm.page_table.walk(ra.vpn_start).pfn

            c1 = kernel.machine.core(1)
            rb = yield from kernel.syscalls.mmap(
                task_b, c1, PAGE_SIZE, kind=VmaKind.FILE, file_key="index.html"
            )
            yield from kernel.syscalls.access(task_b, c1, rb.start)
            pfns["b"] = proc_b.mm.page_table.walk(rb.vpn_start).pfn

        run_to_completion(system, body())
        assert pfns["a"] == pfns["b"]
        assert kernel.page_cache.fills == 1
        assert kernel.page_cache.hits >= 1
        # Cache + two mappings hold references.
        assert kernel.frames.refcount(pfns["a"]) == 3

    def test_first_touch_is_major_fault(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(
                t0, c0, 2 * PAGE_SIZE, kind=VmaKind.FILE, file_key="f"
            )
            yield from kernel.syscalls.touch_pages(t0, c0, vrange)

        run_to_completion(system, body())
        assert system.stats.counter("faults.major-file").value == 2

    def test_munmap_file_pages_stay_cached(self):
        system = build_system("linux", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(
                t0, c0, PAGE_SIZE, kind=VmaKind.FILE, file_key="f"
            )
            yield from kernel.syscalls.access(t0, c0, vrange.start)
            yield from kernel.syscalls.munmap(t0, c0, vrange)

        run_to_completion(system, body())
        assert kernel.page_cache.cached_pages() == 1
        assert check_all(kernel) == []

    def test_file_mapping_requires_key(self):
        system = build_system("latr", cores=1)
        proc, tasks = make_proc(system)
        gen = system.kernel.syscalls.mmap(
            tasks[0], system.kernel.machine.core(0), PAGE_SIZE, kind=VmaKind.FILE
        )
        with pytest.raises(ValueError):
            next(gen)


class TestCowAndFork:
    def test_fork_shares_then_cow_breaks(self):
        system = build_system("latr", cores=2)
        kernel = system.kernel
        proc, tasks = make_proc(system, n_threads=1)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 2 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            shared_pfn = proc.mm.page_table.walk(vrange.vpn_start).pfn

            child = yield from kernel.syscalls.fork(t0, c0, "child")
            child_task = kernel.spawn_thread(child, "t0", 1)
            c1 = kernel.machine.core(1)
            # Both sides read-share the same frame.
            assert child.mm.page_table.walk(vrange.vpn_start).pfn == shared_pfn
            assert kernel.frames.refcount(shared_pfn) == 2

            # Child write -> CoW break gives it a private copy.
            result = yield from kernel.syscalls.access(
                child_task, c1, vrange.start, write=True
            )
            out["kind"] = result.kind
            out["child_pfn"] = child.mm.page_table.walk(vrange.vpn_start).pfn
            out["parent_pfn"] = proc.mm.page_table.walk(vrange.vpn_start).pfn
            out["shared_pfn"] = shared_pfn

        run_to_completion(system, body())
        assert out["kind"] is FaultKind.COW_BREAK
        assert out["child_pfn"] != out["shared_pfn"]
        assert out["parent_pfn"] == out["shared_pfn"]
        assert system.stats.counter("shootdown.sync.cow").value >= 1
        assert check_all(system.kernel) == []

    def test_cow_sole_owner_upgrades_in_place(self):
        system = build_system("latr", cores=2)
        kernel = system.kernel
        proc, tasks = make_proc(system, n_threads=1)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            pfn = proc.mm.page_table.walk(vrange.vpn_start).pfn

            child = yield from kernel.syscalls.fork(t0, c0, "child")
            # Unmap the child's copy: parent becomes sole owner again.
            child_task = kernel.spawn_thread(child, "t0", 1)
            c1 = kernel.machine.core(1)
            yield from kernel.syscalls.munmap(child_task, c1, vrange)
            yield from kernel.syscalls.access(t0, c0, vrange.start, write=True)
            out["pfn_after"] = proc.mm.page_table.walk(vrange.vpn_start).pfn
            out["pfn_before"] = pfn

        run_to_completion(system, body())
        drain(system, ms=5)
        assert out["pfn_after"] == out["pfn_before"]  # no copy needed
        assert check_all(system.kernel) == []


class TestMprotect:
    def test_mprotect_splits_vma(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 6 * PAGE_SIZE)
            from repro.mm.addr import VirtRange

            middle = VirtRange(vrange.start + 2 * PAGE_SIZE, vrange.start + 4 * PAGE_SIZE)
            yield from kernel.syscalls.mprotect(t0, c0, middle, Prot.ro())
            assert len(proc.mm.vmas) == 3
            assert proc.mm.vmas.find(middle.start).prot == Prot.ro()
            assert proc.mm.vmas.find(vrange.start).prot == Prot.rw()

        run_to_completion(system, body())

    def test_mprotect_downgrades_ptes(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE, populate=True)
            assert proc.mm.page_table.walk(vrange.vpn_start).writable
            yield from kernel.syscalls.mprotect(t0, c0, vrange, Prot.ro())
            assert not proc.mm.page_table.walk(vrange.vpn_start).writable

        run_to_completion(system, body())


class TestTlbInteraction:
    def test_touch_fills_tlb_second_touch_hits(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
            yield from kernel.syscalls.access(t0, c0, vrange.start)
            misses = c0.tlb.misses
            yield from kernel.syscalls.access(t0, c0, vrange.start)
            assert c0.tlb.misses == misses
            assert c0.tlb.hits >= 1

        run_to_completion(system, body())

    def test_tagged_write_looks_up_once(self):
        # The tag goes on the frame the write's own lookup found; finding
        # it again must not count a second TLB hit.
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)
        c0 = kernel.machine.core(0)

        def body():
            t0 = tasks[0]
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
            yield from kernel.syscalls.access(t0, c0, vrange.start, write=True)
            before = c0.tlb.stats()
            yield from kernel.syscalls.write_with_content(t0, c0, vrange.start, tag="x")
            return vrange, before

        vrange, before = run_to_completion(system, body())
        after = c0.tlb.stats()
        assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (1, 0)
        pfn = proc.mm.page_table.walk(vrange.vpn_start).pfn
        assert kernel.page_contents[pfn] == "x"

    def test_tlb_capacity_pressure_evicts(self):
        system = build_system("latr", cores=1)
        kernel = system.kernel
        proc, tasks = make_proc(system)
        capacity = kernel.machine.spec.l1_dtlb_entries

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, (capacity + 16) * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange)
            assert len(c0.tlb) == capacity
            assert c0.tlb.evictions == 16

        run_to_completion(system, body())
