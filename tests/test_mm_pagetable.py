"""Unit tests for the page table."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from radix_shadow import probe_entries

from repro.mm.addr import HUGE_PAGE_PAGES, VirtRange
from repro.mm.pagetable import PageTable
from repro.mm.pte import Pte, PteFlags, make_huge_pte, make_present_pte


class TestBasics:
    def test_walk_empty(self):
        pt = PageTable()
        assert pt.walk(0) is None
        assert pt.walk(1 << 35) is None

    def test_set_and_walk(self):
        pt = PageTable()
        pte = make_present_pte(pfn=42)
        assert pt.set_pte(123, pte) is None
        assert pt.walk(123).pfn == 42
        assert len(pt) == 1

    def test_set_returns_previous(self):
        pt = PageTable()
        pt.set_pte(5, make_present_pte(1))
        prev = pt.set_pte(5, make_present_pte(2))
        assert prev.pfn == 1
        assert len(pt) == 1

    def test_clear(self):
        pt = PageTable()
        pt.set_pte(5, make_present_pte(1))
        cleared = pt.clear_pte(5)
        assert cleared.pfn == 1
        assert pt.walk(5) is None
        assert len(pt) == 0

    def test_clear_missing_returns_none(self):
        pt = PageTable()
        assert pt.clear_pte(999) is None

    def test_update_requires_existing(self):
        pt = PageTable()
        with pytest.raises(KeyError):
            pt.update_pte(7, make_present_pte(1))
        pt.set_pte(7, make_present_pte(1))
        pt.update_pte(7, make_present_pte(9))
        assert pt.walk(7).pfn == 9

    def test_update_over_huge_replaces_in_place(self):
        pt = PageTable()
        pt.set_huge_pte(0, make_huge_pte(100))
        v0 = pt._version
        # Any vpn under the huge mapping rewrites the single PD entry,
        # with exactly one version bump and no clear/re-add churn.
        pt.update_pte(37, make_huge_pte(200))
        assert pt.walk(37).pfn == 200
        assert pt.walk(0).pfn == 200
        assert pt.huge_count() == 1
        assert len(pt) == 0
        assert pt._version == v0 + 1

    def test_distant_vpns_do_not_collide(self):
        pt = PageTable()
        # Same low 9 bits, different upper levels.
        a, b = 0x1, 0x1 | (1 << 9) | (1 << 18) | (1 << 27)
        pt.set_pte(a, make_present_pte(10))
        pt.set_pte(b, make_present_pte(20))
        assert pt.walk(a).pfn == 10
        assert pt.walk(b).pfn == 20


class TestStructure:
    def test_table_pages_allocated_on_demand(self):
        pt = PageTable()
        assert pt.table_pages_allocated == 1
        pt.set_pte(0, make_present_pte(1))
        assert pt.table_pages_allocated == 4  # root + 3 interior levels

    def test_interior_nodes_pruned_on_clear(self):
        pt = PageTable()
        pt.set_pte(0, make_present_pte(1))
        pt.clear_pte(0)
        assert (pt._pt_pages, pt._pd_pages, pt._pdpt_pages) == ({}, {}, {})

    def test_sibling_not_pruned(self):
        pt = PageTable()
        pt.set_pte(0, make_present_pte(1))
        pt.set_pte(1, make_present_pte(2))
        pt.clear_pte(0)
        assert pt.walk(1) is not None


class TestIteration:
    def test_entries_in_range(self):
        pt = PageTable()
        for vpn in (10, 11, 13, 20):
            pt.set_pte(vpn, make_present_pte(vpn))
        vr = VirtRange.from_pages(10, 5)  # vpns 10..14
        found = dict(pt.entries_in_range(vr))
        assert sorted(found) == [10, 11, 13]

    def test_all_entries_sorted(self):
        pt = PageTable()
        vpns = [99, 1, 2**30, 512]
        for vpn in vpns:
            pt.set_pte(vpn, make_present_pte(vpn))
        walked = [vpn for vpn, _ in pt.all_entries()]
        assert walked == sorted(vpns)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        vpns=st.lists(
            st.integers(0, 6 * HUGE_PAGE_PAGES - 1), max_size=40, unique=True
        ),
        huge_bases=st.lists(
            st.sampled_from([6 * HUGE_PAGE_PAGES, 7 * HUGE_PAGE_PAGES,
                             9 * HUGE_PAGE_PAGES]),
            max_size=3, unique=True,
        ),
        start=st.integers(0, 10 * HUGE_PAGE_PAGES),
        span=st.integers(1, 4 * HUGE_PAGE_PAGES),
    )
    def test_radix_descent_equivalent_to_probing(
        self, vpns, huge_bases, start, span
    ):
        """``entries_in_range`` must yield exactly what the per-vpn probe
        yields -- same pairs, same order -- over mixed 4K + huge tables and
        arbitrary ranges (including ones starting mid-huge-page)."""
        pt = PageTable()
        for vpn in vpns:
            pt.set_pte(vpn, make_present_pte(vpn))
        for base in huge_bases:
            pt.set_huge_pte(base, make_huge_pte(base))
        vr = VirtRange.from_pages(start, span)
        assert list(pt.entries_in_range(vr)) == probe_entries(pt, vr)

    def test_range_start_inside_huge_mapping(self):
        pt = PageTable()
        pt.set_huge_pte(0, make_huge_pte(0))
        vr = VirtRange.from_pages(HUGE_PAGE_PAGES // 2, HUGE_PAGE_PAGES)
        assert list(pt.entries_in_range(vr)) == probe_entries(pt, vr)

    def test_descent_cost_scales_with_mapped_not_range(self):
        """A huge sparse range costs O(mapped entries), where probing
        walked every vpn."""
        pt = PageTable()
        pt.set_pte(0, make_present_pte(1))
        pt.set_pte(1 << 34, make_present_pte(2))
        vr = VirtRange.from_pages(0, (1 << 34) + 1)  # ~16G pages
        assert [vpn for vpn, _ in pt.entries_in_range(vr)] == [0, 1 << 34]


class TestPteFlags:
    def test_make_present(self):
        pte = make_present_pte(5, writable=True)
        assert pte.present and pte.writable and not pte.cow

    def test_cow_strips_write(self):
        pte = make_present_pte(5, writable=True, cow=True)
        assert pte.cow and not pte.writable

    def test_numa_hint_roundtrip(self):
        pte = make_present_pte(5)
        hinted = pte.make_numa_hint()
        assert hinted.numa_hint and not hinted.present
        assert hinted.pfn == 5
        restored = hinted.clear_numa_hint()
        assert restored.present and not restored.numa_hint

    def test_swap_pte(self):
        from repro.mm.pte import make_swap_pte

        pte = make_swap_pte(77)
        assert pte.swapped and not pte.present
        assert pte.swap_slot == 77

    def test_with_flags(self):
        pte = make_present_pte(1, writable=False)
        upgraded = pte.with_flags(add=PteFlags.WRITE)
        assert upgraded.writable
        downgraded = upgraded.with_flags(drop=PteFlags.WRITE)
        assert not downgraded.writable
