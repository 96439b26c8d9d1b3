"""Multi-process isolation: cpumasks, PCIDs, and cross-process safety."""

import pytest

from repro import build_system
from repro.kernel.invariants import check_all, check_tlb_frame_safety
from repro.mm.addr import PAGE_SIZE

from helpers import run_to_completion, drain


def two_processes(system, cores_a=(0, 1), cores_b=(2, 3)):
    kernel = system.kernel
    proc_a = kernel.create_process("a")
    tasks_a = [kernel.spawn_thread(proc_a, f"t{c}", c) for c in cores_a]
    proc_b = kernel.create_process("b")
    tasks_b = [kernel.spawn_thread(proc_b, f"t{c}", c) for c in cores_b]
    return proc_a, tasks_a, proc_b, tasks_b


class TestShootdownScoping:
    def test_shootdown_targets_only_own_cpumask(self):
        """Process A's munmap must not interrupt process B's cores."""
        system = build_system("linux", cores=4)
        kernel = system.kernel
        proc_a, tasks_a, proc_b, tasks_b = two_processes(system)

        def body():
            t0, c0 = tasks_a[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
            for t in tasks_a:
                core = kernel.machine.core(t.home_core_id)
                yield from kernel.syscalls.touch_pages(t, core, vrange, write=True)
            yield from kernel.syscalls.munmap(t0, c0, vrange)

        run_to_completion(system, body())
        # Each mm's cpumask holds the bits of its own threads' cores.
        assert proc_a.mm.cpumask == 0b0011
        assert proc_b.mm.cpumask == 0b1100
        assert kernel.machine.core(1).interrupts_received == 1
        assert kernel.machine.core(2).interrupts_received == 0
        assert kernel.machine.core(3).interrupts_received == 0

    def test_latr_bitmask_scoped_to_process(self):
        system = build_system("latr", cores=4)
        kernel = system.kernel
        proc_a, tasks_a, proc_b, tasks_b = two_processes(system)
        box = {}

        def body():
            t0, c0 = tasks_a[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
            for t in tasks_a:
                core = kernel.machine.core(t.home_core_id)
                yield from kernel.syscalls.touch_pages(t, core, vrange, write=True)
            yield from kernel.syscalls.munmap(t0, c0, vrange)
            box["state"] = kernel.coherence._pending_reclaim[-1]

        run_to_completion(system, body())
        assert box["state"].cpu_bitmask == {1}

    def test_identical_va_in_two_processes_no_confusion(self):
        """Both processes map the same virtual address; freeing A's must
        not disturb B's translation or frame."""
        system = build_system("latr", cores=4)
        kernel = system.kernel
        proc_a, tasks_a, proc_b, tasks_b = two_processes(system)
        box = {}

        def body():
            ta, ca = tasks_a[0], kernel.machine.core(0)
            tb, cb = tasks_b[0], kernel.machine.core(2)
            ra = yield from kernel.syscalls.mmap(ta, ca, PAGE_SIZE, populate=True)
            rb = yield from kernel.syscalls.mmap(tb, cb, PAGE_SIZE, populate=True)
            assert ra == rb  # same VA space layout in both processes
            box["pfn_b"] = proc_b.mm.page_table.walk(rb.vpn_start).pfn
            yield from kernel.syscalls.munmap(ta, ca, ra)
            # B's mapping is untouched and still accessible.
            yield from kernel.syscalls.access(tb, cb, rb.start, write=True)

        run_to_completion(system, body())
        drain(system, ms=4)
        assert kernel.frames.is_allocated(box["pfn_b"])
        assert check_all(kernel) == []


class TestPcidMultiprocess:
    def test_entries_survive_switches_and_stay_safe(self):
        system = build_system("latr", cores=2, pcid=True)
        kernel = system.kernel
        proc_a, tasks_a, proc_b, tasks_b = two_processes(
            system, cores_a=(0,), cores_b=(1,)
        )
        core0 = kernel.machine.core(0)

        def body():
            ta = tasks_a[0]
            tb = tasks_b[0]
            ra = yield from kernel.syscalls.mmap(ta, core0, PAGE_SIZE, populate=True)

            def touch_b():
                yield from kernel.syscalls.mmap(tb, core0, PAGE_SIZE, populate=True)

            # Run B's work on core 0: with PCIDs the switch does NOT flush,
            # so A's entry survives.
            yield from kernel.scheduler.run_on(core0, tb, touch_b())
            assert core0.tlb.peek(proc_a.mm.pcid, ra.vpn_start) is not None
            # And A's unmap (back on core 0) still invalidates correctly.
            yield from kernel.scheduler.run_on(
                core0, ta, kernel.syscalls.munmap(ta, core0, ra)
            )

        run_to_completion(system, body())
        drain(system, ms=4)
        assert check_tlb_frame_safety(kernel) == []
        assert check_all(kernel) == []

    def test_without_pcid_switch_flushes_other_process(self):
        system = build_system("latr", cores=2, pcid=False)
        kernel = system.kernel
        proc_a, tasks_a, proc_b, tasks_b = two_processes(
            system, cores_a=(0,), cores_b=(1,)
        )
        core0 = kernel.machine.core(0)

        def body():
            ta, tb = tasks_a[0], tasks_b[0]
            ra = yield from kernel.syscalls.mmap(ta, core0, PAGE_SIZE, populate=True)
            assert len(core0.tlb) == 1

            def noop():
                yield from core0.execute(10)

            yield from kernel.scheduler.run_on(core0, tb, noop())
            assert len(core0.tlb) == 0

        run_to_completion(system, body())


class TestAbisSharersAcrossProcesses:
    def test_sharer_sets_keyed_by_mm(self):
        system = build_system("abis", cores=4)
        kernel = system.kernel
        proc_a, tasks_a, proc_b, tasks_b = two_processes(system)

        def body():
            ta, ca = tasks_a[0], kernel.machine.core(0)
            tb, cb = tasks_b[0], kernel.machine.core(2)
            ra = yield from kernel.syscalls.mmap(ta, ca, PAGE_SIZE, populate=True)
            rb = yield from kernel.syscalls.mmap(tb, cb, PAGE_SIZE, populate=True)
            # Same vpn, different mms: the tracked sharers must not merge.
            coherence = kernel.coherence
            assert coherence._sharers.get((proc_a.mm.mm_id, ra.vpn_start)) == {0}
            assert coherence._sharers.get((proc_b.mm.mm_id, rb.vpn_start)) == {2}
            yield from kernel.syscalls.munmap(ta, ca, ra)
            # A's shootdown consumed only A's tracking entry.
            assert (proc_a.mm.mm_id, ra.vpn_start) not in coherence._sharers
            assert (proc_b.mm.mm_id, rb.vpn_start) in coherence._sharers

        run_to_completion(system, body())
