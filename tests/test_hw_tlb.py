"""Unit tests for the TLB model."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from helpers import drain, make_proc, run_to_completion

from repro import build_system
from repro.hw.tlb import HUGE_SPAN, NO_PCID, Tlb, TlbEntry, entry_pfn
from repro.mm.addr import PAGE_SIZE
from repro.verify.fuzzer import run_one
from repro.verify.plan import generate_plan

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def fill(tlb, vpn, pcid=1, pfn=None):
    tlb.fill(pcid, vpn, TlbEntry(pfn=pfn if pfn is not None else vpn + 1000))


class TestLookupFill:
    def test_miss_then_hit(self):
        tlb = Tlb(capacity=4)
        assert tlb.lookup(1, 0x10) is None
        fill(tlb, 0x10)
        entry = tlb.lookup(1, 0x10)
        assert entry is not None and entry_pfn(entry) == 0x10 + 1000
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction(self):
        tlb = Tlb(capacity=2)
        fill(tlb, 1)
        fill(tlb, 2)
        tlb.lookup(1, 1)  # refresh 1; 2 becomes LRU
        fill(tlb, 3)
        assert tlb.peek(1, 2) is None
        assert tlb.peek(1, 1) is not None
        assert tlb.evictions == 1

    def test_refill_updates_entry(self):
        tlb = Tlb(capacity=2)
        fill(tlb, 1, pfn=10)
        fill(tlb, 1, pfn=20)
        assert len(tlb) == 1
        assert tlb.peek(1, 1).pfn == 20

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tlb(capacity=0)

    def test_peek_does_not_count(self):
        tlb = Tlb(capacity=2)
        fill(tlb, 1)
        tlb.peek(1, 1)
        tlb.peek(1, 99)
        assert tlb.hits == 0 and tlb.misses == 0


class TestInvalidation:
    def test_invalidate_page(self):
        tlb = Tlb(capacity=4)
        fill(tlb, 5)
        assert tlb.invalidate_page(1, 5)
        assert not tlb.invalidate_page(1, 5)
        assert tlb.invalidations == 1

    def test_invalidate_range(self):
        tlb = Tlb(capacity=8)
        for vpn in range(6):
            fill(tlb, vpn)
        dropped = tlb.invalidate_range(1, 2, 5)
        assert dropped == 3
        assert tlb.peek(1, 1) is not None
        assert tlb.peek(1, 3) is None
        assert tlb.peek(1, 5) is not None

    def test_flush_all(self):
        tlb = Tlb(capacity=8)
        for vpn in range(4):
            fill(tlb, vpn)
        count = tlb.flush()
        assert count == 4
        assert len(tlb) == 0
        assert tlb.full_flushes == 1


class TestPcid:
    def test_without_pcid_all_processes_collide(self):
        tlb = Tlb(capacity=8, pcid_enabled=False)
        fill(tlb, 7, pcid=1, pfn=100)
        # Another process's fill for the same vpn overwrites.
        fill(tlb, 7, pcid=2, pfn=200)
        assert entry_pfn(tlb.lookup(1, 7)) == 200

    def test_with_pcid_entries_are_tagged(self):
        tlb = Tlb(capacity=8, pcid_enabled=True)
        fill(tlb, 7, pcid=1, pfn=100)
        fill(tlb, 7, pcid=2, pfn=200)
        assert entry_pfn(tlb.lookup(1, 7)) == 100
        assert entry_pfn(tlb.lookup(2, 7)) == 200

    def test_pcid_scoped_flush(self):
        tlb = Tlb(capacity=8, pcid_enabled=True)
        fill(tlb, 1, pcid=1)
        fill(tlb, 2, pcid=2)
        dropped = tlb.flush(pcid=1)
        assert dropped == 1
        assert tlb.peek(2, 2) is not None

    def test_pcid_scoped_range_invalidate(self):
        tlb = Tlb(capacity=8, pcid_enabled=True)
        fill(tlb, 3, pcid=1)
        fill(tlb, 3, pcid=2)
        assert tlb.invalidate_range(1, 0, 10) == 1
        assert tlb.peek(2, 3) is not None

    def test_no_pcid_flush_with_pcid_arg_flushes_all(self):
        tlb = Tlb(capacity=8, pcid_enabled=False)
        fill(tlb, 1, pcid=1)
        fill(tlb, 2, pcid=2)
        assert tlb.flush(pcid=1) == 2


_TLB_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["fill", "fill_huge", "lookup", "inv_page", "inv_range", "flush_pcid", "flush_all"]
        ),
        st.integers(min_value=1, max_value=3),  # pcid
        st.integers(min_value=0, max_value=4 * HUGE_SPAN),  # vpn / range start
        st.integers(min_value=1, max_value=2 * HUGE_SPAN),  # range width
    ),
    max_size=200,
)


class TestIndexedVsScan:
    """The per-pcid secondary index is a pure lookup accelerator: with
    ``use_index`` on or off, every operation must return the same value and
    leave the TLB in the same externally observable state -- including
    huge-page entries whose 512-page span partially overlaps a range."""

    @SETTINGS
    @given(ops=_TLB_OPS, pcid_enabled=st.booleans())
    def test_matches_scan_model(self, ops, pcid_enabled):
        tlbs = [
            Tlb(capacity=32, pcid_enabled=pcid_enabled, huge_capacity=8, use_index=use)
            for use in (True, False)
        ]
        for op, pcid, vpn, width in ops:
            results = []
            for tlb in tlbs:
                if op == "fill":
                    results.append(tlb.fill(pcid, vpn, TlbEntry(pfn=vpn + 7)))
                elif op == "fill_huge":
                    base = vpn - vpn % HUGE_SPAN
                    results.append(tlb.fill_huge(pcid, base, TlbEntry(pfn=base + 9)))
                elif op == "lookup":
                    results.append(tlb.lookup(pcid, vpn))
                elif op == "inv_page":
                    results.append(tlb.invalidate_page(pcid, vpn))
                elif op == "inv_range":
                    results.append(tlb.invalidate_range(pcid, vpn, vpn + width))
                elif op == "flush_pcid":
                    results.append(tlb.flush(pcid))
                else:
                    results.append(tlb.flush())
            assert results[0] == results[1], (op, pcid, vpn, width)
        indexed, scan = tlbs
        assert indexed.items() == scan.items()
        assert indexed.huge_items() == scan.huge_items()
        assert indexed.stats() == scan.stats()
        for pcid in (1, 2, 3):
            assert sorted(indexed.cached_vpns(pcid)) == sorted(scan.cached_vpns(pcid))

    @SETTINGS
    @given(
        base=st.integers(min_value=0, max_value=3 * HUGE_SPAN),
        start=st.integers(min_value=0, max_value=4 * HUGE_SPAN),
        width=st.integers(min_value=1, max_value=2 * HUGE_SPAN),
    )
    def test_huge_overlap_boundaries(self, base, start, width):
        # A huge entry covers [base, base + HUGE_SPAN); it must drop iff
        # that span intersects [start, start + width) -- under both paths.
        base -= base % HUGE_SPAN
        results = []
        for use in (True, False):
            tlb = Tlb(capacity=8, pcid_enabled=True, use_index=use)
            tlb.fill_huge(1, base, TlbEntry(pfn=1))
            dropped = tlb.invalidate_range(1, start, start + width)
            results.append((dropped, tlb.huge_items()))
        assert results[0] == results[1]
        overlaps = base < start + width and base + HUGE_SPAN > start
        assert results[0][0] == (1 if overlaps else 0)


class TestIndexEndToEnd:
    """``use_tlb_index`` on vs off through a whole booted system: identical
    modelled behaviour."""

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_fuzz_plans_identical(self, seed):
        plan = generate_plan(seed, 40, n_cores=4, n_procs=2)
        indexed = run_one("latr", plan, use_tlb_index=True)
        scan = run_one("latr", plan, use_tlb_index=False)
        assert indexed.clean, (indexed.violations, indexed.errors)
        assert scan.clean, (scan.violations, scan.errors)
        assert indexed.stats_summary == scan.stats_summary
        assert indexed.snapshot == scan.snapshot
        assert indexed.sim_time_ns == scan.sim_time_ns

    def test_tlb_stats_identical(self):
        def run(use_tlb_index):
            system = build_system("latr", cores=4, use_tlb_index=use_tlb_index)
            kernel = system.kernel
            _proc, tasks = make_proc(system)
            sc = kernel.syscalls

            def body():
                t0, c0 = tasks[0], kernel.machine.core(0)
                t1, c1 = tasks[1], kernel.machine.core(1)
                for _ in range(4):
                    vr = yield from sc.mmap(t0, c0, 8 * PAGE_SIZE)
                    yield from sc.touch_pages(t0, c0, vr, write=True)
                    yield from sc.touch_pages(t1, c1, vr)
                    yield from sc.munmap(t0, c0, vr)

            run_to_completion(system, body())
            drain(system, ms=8)
            return (
                kernel.stats.summary(),
                [core.tlb.stats() for core in kernel.machine.cores],
                system.sim.now,
            )

        assert run(True) == run(False)


class TestAccessors:
    def test_cached_vpns(self):
        tlb = Tlb(capacity=8)
        for vpn in (1, 5, 9):
            fill(tlb, vpn)
        assert sorted(tlb.cached_vpns(1)) == [1, 5, 9]

    def test_items_and_stats(self):
        tlb = Tlb(capacity=8)
        fill(tlb, 1)
        items = tlb.items()
        assert len(items) == 1
        ((pcid, vpn), entry), = items
        assert pcid == NO_PCID and vpn == 1
        stats = tlb.stats()
        assert stats["resident"] == 1

    def test_frame_refs_match_decoded_items(self):
        tlb = Tlb(capacity=8, pcid_enabled=True)
        tlb.fill(2, 7, TlbEntry(pfn=40, generation=3))
        tlb.fill(1, 9, TlbEntry(pfn=41, writable=False, generation=0))
        tlb.fill_huge(1, HUGE_SPAN, TlbEntry(pfn=512, generation=2))
        assert tlb.frame_refs() == [
            (entry.pfn, entry.generation)
            for _key, entry in list(tlb.items()) + list(tlb.huge_items())
        ] == [(40, 3), (41, 0), (512, 2)]


class TestVersions:
    """A miss changes nothing, so it must keep both change-tracking
    versions (the snapshot restore and the model checker's fragment cache
    key on them); a drop must mint new ones."""

    @pytest.mark.parametrize("use_index", [True, False], ids=["index", "scan"])
    def test_miss_keeps_versions_and_hit_changes_both(self, use_index):
        tlb = Tlb(capacity=8, pcid_enabled=True, use_index=use_index)
        fill(tlb, 5)
        fill(tlb, 6)
        tlb.fill_huge(1, HUGE_SPAN, TlbEntry(pfn=77))

        def versions():
            return tlb._state_version, tlb._entries_version

        before = versions()
        assert tlb.invalidate_page(1, 9) is False
        assert tlb.invalidate_range(1, 7, 9) == 0
        assert tlb.invalidate_range(2, 5, 7) == 0
        assert versions() == before
        assert tlb.invalidations == 0

        seen = [before]
        for drop in (
            lambda: tlb.invalidate_page(1, 5),
            lambda: tlb.invalidate_range(1, 6, 7),
            lambda: tlb.invalidate_page(1, HUGE_SPAN + 3),
        ):
            assert drop()
            state, entries = versions()
            assert all(state != old[0] and entries != old[1] for old in seen)
            seen.append((state, entries))
        assert len(tlb) == 0 and tlb.invalidations == 3
