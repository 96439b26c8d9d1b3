"""Property-based tests (hypothesis) for the core data structures."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.mm.addr import PAGE_SIZE, VirtRange
from repro.mm.frames import FrameAllocator, FrameAllocatorError
from repro.mm.pagetable import PageTable
from repro.mm.pte import make_present_pte
from repro.mm.vma import Prot, Vma, VmaSet, VmaSetError

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


#: Windows of 8 vpns the page-table ops draw from, so that clears and
#: walks hit mapped entries and interior table pages are shared, then
#: emptied and pruned. Two windows straddle a PT-page boundary (vpn 512)
#: and a PD-page boundary (vpn 1 << 18); the others sit in a far PML4 slot
#: and at the top of the 36-bit vpn space.
_VPN_WINDOWS = (0, 512 - 4, (1 << 18) - 4, (1 << 27) + 5 * 512, (1 << 36) - 8)


def _page_table_vpns():
    """A vpn from one of the clustered windows, or anywhere in the 36-bit
    vpn space, so that every index value at every level can come up."""
    clustered = st.builds(
        lambda base, offset: base + offset,
        st.sampled_from(_VPN_WINDOWS),
        st.integers(min_value=0, max_value=7),
    )
    return st.one_of(clustered, st.integers(min_value=0, max_value=(1 << 36) - 1))


class TestPageTableVsShadow:
    """The 4-level radix table must behave exactly like a flat dict."""

    @SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "clear", "walk"]),
                _page_table_vpns(),
                st.integers(min_value=0, max_value=1 << 20),
            ),
            min_size=30,
            max_size=200,
        )
    )
    def test_matches_dict_model(self, ops):
        pt = PageTable()
        shadow = {}
        for op, vpn, pfn in ops:
            if op == "set":
                pte = make_present_pte(pfn)
                prev = pt.set_pte(vpn, pte)
                assert prev == shadow.get(vpn)
                shadow[vpn] = pte
            elif op == "clear":
                assert pt.clear_pte(vpn) == shadow.pop(vpn, None)
            else:
                assert pt.walk(vpn) == shadow.get(vpn)
        assert len(pt) == len(shadow)
        assert dict(pt.all_entries()) == shadow
        if not shadow:
            assert pt._root == {}

    @SETTINGS
    @given(vpns=st.sets(_page_table_vpns(), max_size=60))
    def test_teardown_prunes_everything(self, vpns):
        pt = PageTable()
        for vpn in vpns:
            pt.set_pte(vpn, make_present_pte(vpn))
        for vpn in vpns:
            pt.clear_pte(vpn)
        assert len(pt) == 0
        assert pt._root == {}


class TestFrameAllocatorProperties:
    @SETTINGS
    @given(
        ops=st.lists(st.sampled_from(["alloc", "get", "put"]), min_size=30, max_size=300),
        nodes=st.integers(min_value=1, max_value=4),
    )
    def test_refcount_conservation(self, ops, nodes):
        """No frame is ever both free and referenced; counts always add up."""
        frames = FrameAllocator(nodes=nodes, frames_per_node=16)
        live = {}  # pfn -> expected refcount
        for op in ops:
            if op == "alloc":
                try:
                    pfn = frames.alloc(node=0)
                except FrameAllocatorError:
                    assert len(live) == frames.total_frames
                    continue
                assert pfn not in live
                live[pfn] = 1
            elif op == "get" and live:
                pfn = next(iter(live))
                frames.get(pfn)
                live[pfn] += 1
            elif op == "put" and live:
                pfn = next(iter(live))
                freed = frames.put(pfn)
                live[pfn] -= 1
                assert freed == (live[pfn] == 0)
                if live[pfn] == 0:
                    del live[pfn]
            # Global invariants after every step:
            assert frames.allocated_count() == len(live)
            assert frames.free_count() == frames.total_frames - len(live)
            for pfn, expected in live.items():
                assert frames.refcount(pfn) == expected

    @SETTINGS
    @given(cycles=st.integers(min_value=1, max_value=30))
    def test_generation_strictly_increases_per_frame(self, cycles):
        frames = FrameAllocator(nodes=1, frames_per_node=1)
        last_gen = -1
        for _ in range(cycles):
            pfn = frames.alloc()
            gen = frames.generation(pfn)
            assert gen > last_gen or last_gen == -1
            last_gen = gen
            frames.put(pfn)


def _ranges(max_page=200):
    return st.tuples(
        st.integers(min_value=0, max_value=max_page),
        st.integers(min_value=1, max_value=20),
    ).map(lambda t: VirtRange.from_pages(t[0], t[1]))


class TestVmaSetProperties:
    @SETTINGS
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["map", "unmap"]), _ranges()), min_size=30, max_size=60
        )
    )
    def test_never_overlaps_and_matches_page_model(self, ops):
        """The VMA set must always equal a page-granular shadow set."""
        vmas = VmaSet()
        shadow = set()  # set of mapped vpns
        for op, vrange in ops:
            if op == "map":
                try:
                    vmas.insert(Vma(range=vrange, prot=Prot.rw()))
                except VmaSetError:
                    assert any(v in shadow for v in vrange.vpns())
                    continue
                assert not any(v in shadow for v in vrange.vpns())
                shadow |= set(vrange.vpns())
            else:
                removed = vmas.remove_range(vrange)
                removed_vpns = set()
                for piece in removed:
                    removed_vpns |= set(piece.range.vpns())
                assert removed_vpns == shadow & set(vrange.vpns())
                shadow -= removed_vpns
            # Invariants: sorted, non-overlapping, page model matches.
            mapped = set()
            prev_end = -1
            for vma in vmas:
                assert vma.start >= prev_end
                prev_end = vma.end
                mapped |= set(vma.range.vpns())
            assert mapped == shadow

    @SETTINGS
    @given(vrange=_ranges(), probe=st.integers(min_value=0, max_value=220 * PAGE_SIZE))
    def test_find_agrees_with_contains(self, vrange, probe):
        vmas = VmaSet()
        vmas.insert(Vma(range=vrange, prot=Prot.rw()))
        found = vmas.find(probe)
        if vrange.contains(probe):
            assert found is not None and found.range == vrange
        else:
            assert found is None


class TestSoaQueueVsObjectShadow:
    """The struct-of-arrays LATR queue must behave like a small object
    shadow of the ring (one record per posted state) under any
    post/pull/clear/reclaim sequence: acceptance, full rejections, clears,
    reclaims, occupancy and the active states in slot order."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        depth=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["post", "clear", "pull", "reclaim"]),
                st.integers(min_value=0, max_value=1_000),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=30,
            max_size=120,
        ),
    )
    def test_shadow_models_agree(self, depth, ops):
        from repro.coherence.states import LatrFlag, SoaLatrQueue, SoaLatrState
        from repro.mm.mmstruct import MmStruct
        from repro.sim.engine import Signal, Simulator

        sim = Simulator()
        mm = MmStruct(sim)
        queue = SoaLatrQueue(core_id=0, depth=depth)
        # The shadow ring: a slot is reusable once its record is inactive
        # and reclaimed; the cursor advances on every accepted post.
        ring = [None] * depth
        cursor = posts = rejections = 0
        pairs = []  # (shadow record, SoA state), in posting order
        now = 0
        for kind, pick, core in ops:
            now += 1
            if kind == "post":
                cpus = {core, (pick % 8)}
                state = SoaLatrState(
                    vrange=VirtRange.from_pages(10 + pick % 50, 1 + pick % 4),
                    mm=mm,
                    cpu_bitmask=set(cpus),
                    flag=LatrFlag.FREE if pick % 3 else LatrFlag.MIGRATION,
                    owner_core=0,
                    posted_at=now,
                    done=Signal(sim),
                )
                old = ring[cursor]
                full = old is not None and (old["active"] or not old["reclaimed"])
                assert queue.post(state) is not full
                if full:
                    rejections += 1
                    continue
                record = dict(
                    slot=cursor, cpus=cpus, pulled=set(), active=True,
                    reclaimed=False, completed_at=None,
                )
                ring[cursor] = record
                cursor = (cursor + 1) % depth
                posts += 1
                pairs.append((record, state))
            elif not pairs:
                continue
            else:
                record, state = pairs[pick % len(pairs)]
                if kind == "clear":
                    if pick % 2 and record["cpus"]:
                        # A core the state still waits for, so states
                        # retire often enough to recycle their slots.
                        core = min(record["cpus"])
                    record["cpus"].discard(core)
                    last = not record["cpus"] and record["active"]
                    if last:
                        record["active"] = False
                        record["completed_at"] = now
                    assert state.clear_cpu(core, now) == last
                    assert state.done.triggered == (record["completed_at"] is not None)
                elif kind == "pull":
                    record["pulled"].add(core)
                    state.pulled_by.add(core)
                else:
                    record["reclaimed"] = True
                    state.reclaimed = True
            active = [r["slot"] for r in ring if r is not None and r["active"]]
            assert [s.slot_idx for s in queue.active_states()] == active
            assert queue.active_count == len(active)
            assert queue.occupancy() == sum(
                1 for r in ring if r is not None and (r["active"] or not r["reclaimed"])
            )
            assert queue.posts == posts
            assert queue.full_rejections == rejections
        # Final deep comparison: every state ever posted (attached or
        # recycled) agrees with its record on all observable fields.
        for record, state in pairs:
            assert state.slot_idx == record["slot"]
            assert sorted(state.cpu_bitmask) == sorted(record["cpus"])
            assert sorted(state.pulled_by) == sorted(record["pulled"])
            assert state.active == record["active"]
            assert not state.pte_applied
            assert state.reclaimed == record["reclaimed"]
            assert state.completed_at == record["completed_at"]
        assert queue.footprint_bytes() == depth * 68


class TestFreeBatchVsPutLoop:
    """``FrameAllocator.free_batch`` against a ``put`` loop on a twin
    allocator: same return value, refcounts, generations, free-list order,
    counters and errors -- double frees part-way through a batch included."""

    @SETTINGS
    @given(
        nodes=st.integers(min_value=1, max_value=3),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["alloc", "get", "batch"]),
                st.integers(min_value=0, max_value=1_000),
                st.lists(st.integers(min_value=0, max_value=1_000), max_size=12),
            ),
            max_size=60,
        ),
    )
    def test_matches_put_loop(self, nodes, ops):
        frames_per_node = 8
        batched = FrameAllocator(nodes=nodes, frames_per_node=frames_per_node)
        looped = FrameAllocator(nodes=nodes, frames_per_node=frames_per_node)
        total = nodes * frames_per_node
        live = []
        for kind, pick, picks in ops:
            if kind == "alloc":
                node = pick % nodes
                try:
                    pfn = batched.alloc(node)
                except FrameAllocatorError:
                    with pytest.raises(FrameAllocatorError):
                        looped.alloc(node)
                    continue
                assert looped.alloc(node) == pfn
                live.append(pfn)
            elif kind == "get" and live:
                pfn = live[pick % len(live)]
                batched.get(pfn)
                looped.get(pfn)
            elif kind == "batch":
                # Mostly live frames (repeats take several references),
                # sometimes a free one: a double free part-way through.
                pfns = [
                    live[p % len(live)] if live and p % 5 else p % total
                    for p in picks
                ]
                expected, expected_error = [], None
                try:
                    for pfn in pfns:
                        if looped.put(pfn):
                            expected.append(pfn)
                except FrameAllocatorError as exc:
                    expected_error = str(exc)
                try:
                    freed = batched.free_batch(pfns)
                except FrameAllocatorError as exc:
                    assert str(exc) == expected_error
                else:
                    assert expected_error is None
                    assert freed == expected
                live = [pfn for pfn in live if looped.is_allocated(pfn)]
            assert batched._refcount == looped._refcount
            assert batched._generation == looped._generation
            assert [list(fl) for fl in batched._free] == [list(fl) for fl in looped._free]
            assert batched.total_frees == looped.total_frees
            assert batched.total_allocs == looped.total_allocs
