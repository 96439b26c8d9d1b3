"""Unit tests for the TLB model."""

import hypothesis.strategies as st
import pytest
from helpers import OP_LIST_PHASES
from hypothesis import HealthCheck, example, given, settings

from repro.hw.tlb import HUGE_SPAN, KEY_PCID_SHIFT, NO_PCID, Tlb, TlbEntry, entry_pfn

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

    def test_range_past_the_vpn_field_stays_in_its_pcid(self):
        # Keys are pcid << 48 | vpn: pcid 2's low vpns sit right above
        # pcid 1's top one, so a range end past the field must be clamped.
        top = 1 << KEY_PCID_SHIFT
        tlb = Tlb(capacity=8, pcid_enabled=True)
        fill(tlb, top - 1, pcid=1)
        fill(tlb, 0, pcid=2)
        fill(tlb, 3, pcid=2)
        assert tlb.invalidate_range(1, top - 2, top + 4) == 1
        assert tlb.flush(pcid=1) == 0
        assert [key for key, _entry in tlb.items()] == [(2, 0), (2, 3)]

    def test_no_pcid_flush_with_pcid_arg_flushes_all(self):
        tlb = Tlb(capacity=8, pcid_enabled=False)
        fill(tlb, 1, pcid=1)
        fill(tlb, 2, pcid=2)
        assert tlb.flush(pcid=1) == 2


#: One past the last vpn a key holds.
_TOP = 1 << KEY_PCID_SHIFT
#: Fills and ranges start in three 32-vpn windows -- at the pcid base,
#: across the first 2 MiB boundary and at the top of the vpn field -- so
#: ranges often hit resident entries and can run past the field.
_VPNS = st.builds(
    lambda window, offset: window + offset,
    st.sampled_from((0, HUGE_SPAN - 16, _TOP - 32)),
    st.integers(min_value=0, max_value=31),
)
#: Widths on both sides of the resident count (at most 32 here), so both
#: the key-probe and the comparison-pass branch run.
_WIDTHS = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=13, max_value=2 * HUGE_SPAN),
)
#: Fills are drawn most, so the TLB is often near full when a range drops.
_TLB_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["fill"] * 6
            + ["fill_huge", "lookup", "inv_page"]
            + ["inv_range"] * 3
            + ["flush_pcid", "flush_all"]
        ),
        st.integers(min_value=1, max_value=3),  # pcid
        _VPNS,  # vpn / range start
        _WIDTHS,
    ),
    min_size=30,
    max_size=200,
)


class _ScanModel:
    """Shadow of one :class:`Tlb`: dicts keyed by ``(pcid, vpn)`` tuples,
    in LRU order, that drop entries by the linear scan's rules -- a 4 KiB
    entry iff ``start <= vpn < end``, a huge one iff ``base < end and
    base + 512 > start``, both within the pcid."""

    def __init__(self, capacity, huge_capacity, pcid_enabled):
        self.limits = {"entries": capacity, "huge": huge_capacity}
        self.pcid_enabled = pcid_enabled
        self.tables = {"entries": {}, "huge": {}}
        self.stats = dict.fromkeys(
            ("hits", "misses", "invalidations", "full_flushes", "evictions"), 0
        )

    def _keys(self, pcid, vpn):
        tag = pcid if self.pcid_enabled else NO_PCID
        return (("entries", (tag, vpn)), ("huge", (tag, vpn - vpn % HUGE_SPAN)))

    def _put(self, name, key, pfn):
        table = self.tables[name]
        table.pop(key, None)
        table[key] = pfn
        while len(table) > self.limits[name]:
            del table[next(iter(table))]
            self.stats["evictions"] += 1

    def fill(self, pcid, vpn, pfn):
        self._put(*self._keys(pcid, vpn)[0], pfn)

    def fill_huge(self, pcid, base, pfn):
        self._put(*self._keys(pcid, base)[1], pfn)

    def lookup(self, pcid, vpn):
        for name, key in self._keys(pcid, vpn):
            table = self.tables[name]
            if key in table:
                table[key] = table.pop(key)
                self.stats["hits"] += 1
                return table[key]
        self.stats["misses"] += 1
        return None

    def invalidate_page(self, pcid, vpn):
        for name, key in self._keys(pcid, vpn):
            if self.tables[name].pop(key, None) is not None:
                self.stats["invalidations"] += 1
                return True
        return False

    def _drop(self, name, hit):
        table = self.tables[name]
        victims = [key for key in table if hit(*key)]
        for key in victims:
            del table[key]
        return len(victims)

    def invalidate_range(self, pcid, start, end):
        tag = pcid if self.pcid_enabled else NO_PCID
        dropped = self._drop(
            "entries", lambda p, vpn: p == tag and start <= vpn < end
        ) + self._drop(
            "huge", lambda p, base: p == tag and base < end and base + HUGE_SPAN > start
        )
        self.stats["invalidations"] += dropped
        return dropped

    def flush(self, pcid=None):
        self.stats["full_flushes"] += 1
        if pcid is None or not self.pcid_enabled:
            return self._drop("entries", lambda p, v: True) + self._drop(
                "huge", lambda p, v: True
            )
        return self._drop("entries", lambda p, v: p == pcid) + self._drop(
            "huge", lambda p, v: p == pcid
        )


class TestIndexedVsScan:
    """The TLB finds a range's victims by key (probing ``pcid << 48 |
    vpn`` keys, or one comparison pass); every operation must return what
    the scan model returns and leave the same entries, in LRU order, and
    the same counters -- including huge entries whose 512-page span
    partially overlaps a range, ranges that start near the pcid base and
    ranges that run past the top of the vpn field."""

    @settings(SETTINGS, phases=OP_LIST_PHASES)
    @given(ops=_TLB_OPS, pcid_enabled=st.booleans())
    def test_matches_scan_model(self, ops, pcid_enabled):
        tlb = Tlb(capacity=32, pcid_enabled=pcid_enabled, huge_capacity=8)
        model = _ScanModel(32, 8, pcid_enabled)
        for op, pcid, vpn, width in ops:
            if op == "fill":
                tlb.fill(pcid, vpn, TlbEntry(pfn=vpn + 7))
                model.fill(pcid, vpn, vpn + 7)
            elif op == "fill_huge":
                base = vpn - vpn % HUGE_SPAN
                tlb.fill_huge(pcid, base, TlbEntry(pfn=base + 9))
                model.fill_huge(pcid, base, base + 9)
            elif op == "lookup":
                slot = tlb.lookup(pcid, vpn)
                got = None if slot is None else entry_pfn(slot)
                assert got == model.lookup(pcid, vpn), (op, pcid, vpn)
            elif op == "inv_page":
                assert tlb.invalidate_page(pcid, vpn) == model.invalidate_page(pcid, vpn)
            elif op == "inv_range":
                assert tlb.invalidate_range(
                    pcid, vpn, vpn + width
                ) == model.invalidate_range(pcid, vpn, vpn + width), (pcid, vpn, width)
            elif op == "flush_pcid":
                assert tlb.flush(pcid) == model.flush(pcid)
            else:
                assert tlb.flush() == model.flush()
        assert [(key, e.pfn) for key, e in tlb.items()] == list(
            model.tables["entries"].items()
        )
        assert [(key, e.pfn) for key, e in tlb.huge_items()] == list(
            model.tables["huge"].items()
        )
        assert tlb.stats() == {**model.stats, "resident": len(model.tables["entries"])}

    @SETTINGS
    @given(
        base=st.integers(min_value=0, max_value=3 * HUGE_SPAN),
        start=st.integers(min_value=0, max_value=4 * HUGE_SPAN),
        width=st.integers(min_value=1, max_value=2 * HUGE_SPAN),
    )
    # The edges of the span at 512: one page before it, its first and last
    # pages, and one page past it.
    @example(base=HUGE_SPAN, start=HUGE_SPAN - 1, width=1)
    @example(base=HUGE_SPAN, start=HUGE_SPAN - 1, width=2)
    @example(base=HUGE_SPAN, start=2 * HUGE_SPAN - 1, width=1)
    @example(base=HUGE_SPAN, start=2 * HUGE_SPAN, width=1)
    def test_huge_overlap_boundaries(self, base, start, width):
        # A huge entry covers [base, base + HUGE_SPAN); it must drop iff
        # that span intersects [start, start + width).
        base -= base % HUGE_SPAN
        tlb = Tlb(capacity=8, pcid_enabled=True)
        tlb.fill_huge(1, base, TlbEntry(pfn=1))
        overlaps = base < start + width and base + HUGE_SPAN > start
        assert tlb.invalidate_range(1, start, start + width) == (1 if overlaps else 0)
        assert len(tlb.huge_items()) == (0 if overlaps else 1)


class TestAccessors:
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

    @pytest.mark.parametrize("pad", [0, 400], ids=["index", "scan"])
    def test_miss_keeps_versions_and_hit_changes_both(self, pad):
        # ``index``: each range is no wider than the resident count, so
        # invalidate_range probes its keys in the dict; ``scan``: ``pad``
        # widens it past that count (still short of the huge entry), so
        # it takes the comparison pass over the resident keys.
        tlb = Tlb(capacity=8, pcid_enabled=True)
        fill(tlb, 5)
        fill(tlb, 6)
        tlb.fill_huge(1, HUGE_SPAN, TlbEntry(pfn=77))

        def versions():
            return tlb._state_version, tlb._entries_version

        before = versions()
        assert tlb.invalidate_page(1, 9) is False
        assert tlb.invalidate_range(1, 7, 9 + pad) == 0
        assert tlb.invalidate_range(2, 5, 7 + pad) == 0
        assert versions() == before
        assert tlb.invalidations == 0

        seen = [before]
        for drop in (
            lambda: tlb.invalidate_page(1, 5),
            lambda: tlb.invalidate_range(1, 6, 7 + pad),
            lambda: tlb.invalidate_page(1, HUGE_SPAN + 3),
        ):
            assert drop()
            state, entries = versions()
            assert all(state != old[0] and entries != old[1] for old in seen)
            seen.append((state, entries))
        assert len(tlb) == 0 and tlb.invalidations == 3
