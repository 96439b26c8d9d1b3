"""The batched touch loop (``Syscalls._touch_pages_batched``) against the
per-page generic path (``Kernel.use_batched_faults`` set to False).

The loop serves 4 KiB demand faults (anonymous, and reads of file pages)
in its own frame and delegates every other case. These tests pin that it
looks each page up in the TLB once, counts walks as each fill happens,
models exactly what the generic path models, and does a fixed amount of
page-table and TLB work per touched page.
"""

import pickle

import pytest

from repro import build_system
from repro.coherence.latr import LatrCoherence
from repro.hw.tlb import Tlb
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Syscalls
from repro.mm.addr import PAGE_SIZE
from repro.mm.pagetable import PageTable
from repro.mm.pte import PteFlags, make_present_pte
from repro.sim.engine import USEC
from repro.verify.fuzzer import run_one
from repro.verify.plan import generate_plan
from repro.workloads.apache import run_apache
from repro.workloads.openloop import run_openloop
from repro.workloads.stress import FLEET_SMOKE_SCOPE, run_fleet_stress

from helpers import count_calls, make_proc, run_to_completion, set_batched_faults  # noqa: F401


class TestOneLookupPerPage:
    """A page the loop does not serve itself is handed to the post-lookup
    half of ``access``, so no page is looked up twice."""

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "generic"])
    def test_remote_read_refills_miss_once_per_page(self, batched, set_batched_faults):
        set_batched_faults(batched)
        system = build_system("linux", cores=2)
        kernel = system.kernel
        _proc, tasks = make_proc(system)
        c0, c1 = kernel.machine.core(0), kernel.machine.core(1)

        def body():
            vrange = yield from kernel.syscalls.mmap(tasks[0], c0, 4 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(tasks[0], c0, vrange, write=True)
            before = c1.tlb.stats()
            yield from kernel.syscalls.touch_pages(tasks[1], c1, vrange)
            return before

        before = run_to_completion(system, body())
        after = c1.tlb.stats()
        assert after["misses"] - before["misses"] == 4
        assert after["hits"] == before["hits"]
        assert after["resident"] - before["resident"] == 4

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "generic"])
    def test_cow_writes_look_up_once_per_page(self, batched, set_batched_faults):
        # CoW breaks are delegated; they must not be looked up twice either.
        set_batched_faults(batched)
        system = build_system("linux", cores=2)
        kernel = system.kernel
        _proc, tasks = make_proc(system)
        c0 = kernel.machine.core(0)

        def body():
            vrange = yield from kernel.syscalls.mmap(tasks[0], c0, 4 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(tasks[0], c0, vrange, write=True)
            yield from kernel.syscalls.fork(tasks[0], c0, "child")
            before = c0.tlb.stats()
            yield from kernel.syscalls.touch_pages(tasks[0], c0, vrange, write=True)
            return before

        before = run_to_completion(system, body())
        after = c0.tlb.stats()
        assert kernel.stats.counter("faults.cow-break").value == 4
        assert (after["hits"] + after["misses"]) - (before["hits"] + before["misses"]) == 4


class TestWalkCountersAtFill:
    """Walk counters move when each fill happens, so a batch cut off by
    the end of a run has counted the walks it did."""

    @pytest.mark.parametrize(
        "mechanism, kwargs, counter, faults",
        [
            ("numapte", {}, "pt.walk.local", 8),
            ("linux", {"use_virtualization": True}, "virt.walk.2d", 4),
        ],
        ids=["numapte", "virt"],
    )
    def test_cut_off_batch_counts_its_walks(self, mechanism, kwargs, counter, faults):
        # One 64-page write touch, stopped at 20 us: a few faults in.
        system = build_system(mechanism, cores=4, **kwargs)
        kernel = system.kernel
        _proc, tasks = make_proc(system)
        c0 = kernel.machine.core(0)

        def body():
            vrange = yield from kernel.syscalls.mmap(tasks[0], c0, 64 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(tasks[0], c0, vrange, write=True)

        system.sim.spawn(body())
        system.sim.run(until=20 * USEC)
        counters = kernel.stats.counters_snapshot()
        assert counters["faults.minor-anon"] == faults
        assert counters.get(counter) == faults


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_fuzz_plans_agree_on_both_paths(monkeypatch, set_batched_faults, seed):
    # The plans mix CoW after fork, NUMA hints, swap and madvise, so every
    # delegated case meets the loop. run_one builds its own Kernel, which
    # a wrapped Kernel.__init__ records so its TLBs can be read.
    plan = generate_plan(seed, 40, n_cores=4, n_procs=2)
    init = Kernel.__init__
    outcomes = []
    for batched in (True, False):
        set_batched_faults(batched)
        kernels = []

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            kernels.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(Kernel, "__init__", recording)
            r = run_one("latr", plan)
        assert r.clean, (r.violations, r.errors)
        (kernel,) = kernels
        assert kernel.use_batched_faults is batched
        tlbs = [core.tlb.stats() for core in kernel.machine.cores]
        outcomes.append((r.sim_time_ns, r.stats_summary, r.snapshot, tlbs))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "mechanism, cores, kwargs",
    [("numapte", 10, {}), ("linux", 4, {"use_virtualization": True})],
    ids=["numapte", "virt"],
)
def test_apache_agrees_except_walk_counters(set_batched_faults, mechanism, cores, kwargs):
    # The generic path also counts the failed walk in front of each demand
    # fault (ROADMAP item 5), so the walk counters are left out; every
    # metric and every other counter must agree.
    legs = []
    for batched in (True, False):
        set_batched_faults(batched)
        legs.append(run_apache(mechanism, kwargs, cores=cores, warmup_ms=2, duration_ms=5))
    counters = [
        {
            name: value
            for name, value in leg.counters.items()
            if not name.startswith(("pt.walk.", "virt.walk.2d"))
        }
        for leg in legs
    ]
    assert legs[0].metrics == legs[1].metrics
    assert counters[0] == counters[1]
    assert counters[0]["faults.minor-file"] > 0


class TestPresentPteFlags:
    """``make_present_pte`` takes prebuilt flag sets; they must equal the
    IntFlag arithmetic they replaced, down to the pickled bytes the model
    checker hashes."""

    @staticmethod
    def _reference_flags(writable, cow):
        flags = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED
        if writable:
            flags |= PteFlags.WRITE
        if cow:
            flags |= PteFlags.COW
            flags &= ~PteFlags.WRITE
        return flags

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("cow", [True, False])
    def test_flags_match_intflag_arithmetic(self, writable, cow):
        pte = make_present_pte(7, writable=writable, cow=cow)
        expected = self._reference_flags(writable, cow)
        assert isinstance(pte.flags, PteFlags)
        assert pte.flags == expected
        assert pte.writable == (writable and not cow)
        assert pickle.dumps(pte.flags) == pickle.dumps(expected)
        assert pickle.dumps(pte) == pickle.dumps(type(pte)(pfn=7, flags=expected))


class TestTouchWorkBudget:
    """Exact counts of page-table walks, TLB lookups and sweeps on fixed
    runs.

    The simulation is deterministic, so these are host-independent work
    measures: a redundant walk or lookup on the touch path, or a sweep
    that leaves its inbox, moves them. When a change
    removes work on purpose, re-pin them and say why.
    """

    def test_apache_cell(self, monkeypatch):
        calls = count_calls(monkeypatch, (PageTable, "walk"), (Tlb, "lookup"))
        result = run_apache("latr", cores=2, warmup_ms=2, duration_ms=5)
        counters = result.counters
        # 196 requests each touch their 3 file pages once and munmap them.
        # Per page: one lookup (a miss); a page-cache fault served inline
        # with two walks (the loop's check, then the re-check under
        # mmap_sem; the fill does not re-walk); one walk when munmap
        # clears it. 588 lookups; 2 x 588 + 588 = 1,764 walks.
        assert (counters["sys.munmap"], counters["faults.total"]) == (196, 588)
        assert (calls["lookup"], calls["walk"]) == (588, 1_764)

    def test_openloop_small_scope(self, monkeypatch, set_batched_faults):
        calls = count_calls(
            monkeypatch, (PageTable, "walk"), (Tlb, "lookup"), (Syscalls, "access")
        )
        scope = dict(
            machine="commodity-2s16c",
            mechanism="linux",
            offered_kreq_s=20.0,
            request_work_ns=200_000,
            request_pages=1,
            conn_churn_per_sec=0.0,
            warmup_ms=2,
            duration_ms=10,
        )
        batched = run_openloop(**scope)
        # 2,070 one-page touches: 1,182 demand faults, each one lookup and
        # two walks, and 888 TLB hits. munmap walks the page of each of
        # its 222 calls. 2 x 1,182 + 222 = 2,586 walks, and no touch goes
        # through access(). The generic path walks 3,768 times and calls
        # access() 2,070 times for the same modelled result.
        assert batched.counters["faults.minor-anon"] == 1_182
        assert calls == {"walk": 2_586, "lookup": 2_070, "access": 0}
        set_batched_faults(False)
        generic = run_openloop(**scope)
        assert (generic.metrics, generic.counters) == (batched.metrics, batched.counters)

    def test_fleet_smoke(self, monkeypatch):
        calls = count_calls(
            monkeypatch,
            (PageTable, "walk"),
            (Tlb, "lookup"),
            (LatrCoherence, "_sweep_inbox"),
            (LatrCoherence, "_sweep_full"),
            (LatrCoherence, "_take_inbox"),
        )
        summary = run_fleet_stress(scope=FLEET_SMOKE_SCOPE, seed=1)
        # 40 mmaps of 4 pages: 160 local write faults, each one lookup and
        # two walks. The remote read touches are 447 refills, each one
        # lookup and two walks (the loop's check, then the hardware walk
        # in access()'s post-lookup half). munmap walks the 4 pages of
        # each of its 36 calls (4 still in flight at the end).
        # 160 + 447 = 607 lookups; 2 x 160 + 2 x 447 + 4 x 36 = 1,358 walks.
        assert summary["count.faults.minor-anon"] == 160
        assert (calls["lookup"], calls["walk"]) == (607, 1_358)
        # Every sweep takes the inbox path; the 1,574 that find an active
        # state take their inbox once.
        assert summary["count.latr.sweeps"] == 1_921
        assert (
            calls["_sweep_inbox"], calls["_sweep_full"], calls["_take_inbox"]
        ) == (1_921, 0, 1_574)
