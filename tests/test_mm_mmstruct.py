"""Unit tests for MmStruct: VA allocation, lazy lists, cpumask."""

import pytest

from repro.mm.addr import PAGE_SIZE, VirtRange
from repro.mm.mmstruct import MmStruct
from repro.mm.pagecache import PageCache
from repro.mm.frames import FrameAllocator
from repro.sim.engine import Simulator


@pytest.fixture
def mm():
    return MmStruct(Simulator(), name="test")


class TestVaAllocation:
    def test_bump_allocation_disjoint(self, mm):
        a = mm.find_free_range(3 * PAGE_SIZE)
        b = mm.find_free_range(3 * PAGE_SIZE)
        assert not a.overlaps(b)

    def test_released_range_is_reused(self, mm):
        a = mm.find_free_range(4 * PAGE_SIZE)
        mm.release_vrange(a)
        b = mm.find_free_range(4 * PAGE_SIZE)
        assert b == a

    def test_first_fit_splits_larger_hole(self, mm):
        a = mm.find_free_range(8 * PAGE_SIZE)
        mm.release_vrange(a)
        b = mm.find_free_range(2 * PAGE_SIZE)
        assert b.start == a.start and b.n_pages == 2
        c = mm.find_free_range(6 * PAGE_SIZE)
        assert c.start == b.end

    def test_sub_page_rounds_up(self, mm):
        r = mm.find_free_range(1)
        assert r.n_pages == 1

    def test_lazy_range_not_reused(self, mm):
        """The virtual half of the paper's reuse invariant."""
        a = mm.find_free_range(4 * PAGE_SIZE)
        mm.defer_vrange(a)
        b = mm.find_free_range(4 * PAGE_SIZE)
        assert not a.overlaps(b)
        assert mm.vrange_is_lazy(a)

    def test_reclaim_moves_lazy_to_free(self, mm):
        a = mm.find_free_range(4 * PAGE_SIZE)
        mm.defer_vrange(a)
        mm.reclaim_vrange(a)
        assert not mm.vrange_is_lazy(a)
        b = mm.find_free_range(4 * PAGE_SIZE)
        assert b == a


class TestLazyFrames:
    def test_defer_take(self, mm):
        mm.defer_frames([1, 2, 3])
        assert mm.lazy_frames == [1, 2, 3]
        mm.take_lazy_frames([1, 2])
        assert mm.lazy_frames == [3]


class TestCpumask:
    def test_targets_exclude_initiator(self, mm):
        for c in (0, 2, 5):
            mm.mark_running_on(c)
        assert mm.cpumask == 0b100101
        assert mm.shootdown_targets(2) == [0, 5]
        assert mm.shootdown_targets(9) == [0, 2, 5]

    def test_clear_cpu(self, mm):
        mm.mark_running_on(1)
        mm.clear_cpu(1)
        mm.clear_cpu(7)  # no-op
        assert mm.cpumask == 0
        assert mm.shootdown_targets(0) == []

    def test_generation_bumps(self, mm):
        g = mm.map_generation
        assert mm.bump_generation() == g + 1


class TestPageCache:
    def test_fill_and_hit(self):
        frames = FrameAllocator(1, 8)
        cache = PageCache(frames)
        pfn, cached = cache.get_or_fill("f", 0, node=0)
        assert not cached
        pfn2, cached2 = cache.get_or_fill("f", 0, node=0)
        assert cached2 and pfn2 == pfn
        assert cache.fills == 1 and cache.hits == 1

    def test_cache_holds_reference(self):
        frames = FrameAllocator(1, 8)
        cache = PageCache(frames)
        pfn, _ = cache.get_or_fill("f", 0, node=0)
        assert frames.refcount(pfn) == 1

    def test_evict(self):
        frames = FrameAllocator(1, 8)
        cache = PageCache(frames)
        pfn, _ = cache.get_or_fill("f", 3, node=0)
        assert cache.evict("f", 3)
        assert not frames.is_allocated(pfn)
        assert not cache.evict("f", 3)

    def test_lookup_miss(self):
        cache = PageCache(FrameAllocator(1, 8))
        assert cache.lookup("f", 0) is None
        assert cache.cached_pages() == 0
