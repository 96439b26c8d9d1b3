"""Per-core TLB model.

The functional heart of the reproduction: LATR's correctness argument is
entirely about *which translations survive in which core's TLB until when*.
We model the per-core TLB as a capacity-bounded LRU map from
``(pcid, vpn)`` to a cached translation, with the operations x86 exposes
(INVLPG for one entry, CR3 write for a full flush) plus hit/miss counters.

PCID support (paper section 4.5) is modelled with explicit tags: without
PCIDs a context switch flushes everything; with PCIDs entries of inactive
processes survive switches and must still be swept by LATR before the PCID
is reused.

Invalidation needs no secondary structure. Keys are
``pcid << KEY_PCID_SHIFT | vpn``, so one pcid's vpns in ``[start, end)``
are exactly the keys in ``[base + start, base + end)`` with
``base = pcid << KEY_PCID_SHIFT``. ``invalidate_range`` probes those keys
when the range is no wider than the resident count and otherwise makes
one comparison pass over the resident keys; huge entries and
``flush(pcid)`` are one pass each. The TLB holds 64 entries (Table 3),
so either way a drop costs at most a few dozen int comparisons.

Packed slots
------------

The hit path runs once per simulated memory access, so its representation
dominates the simulator's wall-clock at fleet scale. Keys are single ints
(``pcid << KEY_PCID_SHIFT | vpn`` -- no tuple allocation per lookup) and
entries are int-encoded slots (writable bit 0, then generation, mm id and
pfn bit fields -- no ``TlbEntry`` dataclass per fill), stored in a plain
insertion-ordered dict whose LRU refresh is a delete + reinsert.
``fill_new``/``lookup``/``invalidate_range`` are then allocation-free on
the hit path. Every inspection surface -- ``peek``, ``items()``,
``canonical_rows()``, ``frame_refs()`` -- reads back :class:`TlbEntry`/
bool/int field values (``canonical_rows`` and ``frame_refs`` read the
packed ints in place), so this module is the only one that knows the slot
layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple

#: PCID used for every process when PCID support is off.
NO_PCID = 0

#: Process-global version numbers for TLB change tracking. Values are
#: never reused, so equal versions imply identical state: a version is
#: first assigned to exactly one state, mutations always take a fresh
#: number, and a restore only rewinds the version together with the
#: state it names (see ``repro.snapshot._tlb_restore``).
_VERSIONS = count(1)


@dataclass
class TlbEntry:
    """A cached virtual-to-physical translation."""

    pfn: int
    writable: bool = True
    #: Generation stamp of the mapping when cached; used by invariant checks
    #: to detect a stale entry being used after the frame was reused.
    generation: int = 0
    #: Debug metadata (not hardware state): which mm installed the entry.
    #: Lets the invariant checker attribute entries when PCIDs are off.
    debug_mm_id: int = 0


#: Number of vpns one 2 MiB entry spans (mirrors mm.addr.HUGE_PAGE_PAGES;
#: duplicated here so the hardware layer stays import-independent of mm).
HUGE_SPAN = 512

#: Packed-key layout: vpn in the low bits, pcid above. 48 vpn bits cover
#: the whole modelled virtual address space with room to spare.
KEY_PCID_SHIFT = 48
KEY_VPN_MASK = (1 << KEY_PCID_SHIFT) - 1
#: One past the largest vpn a key can hold; range ends are clamped to it
#: so a range never reaches into the next pcid's keys.
KEY_VPN_END = 1 << KEY_PCID_SHIFT

#: Packed-entry layout (low to high): writable bit, 32 generation bits,
#: 20 debug-mm-id bits, then the pfn. Fields are sized so the whole slot
#: stays a small int for the frame counts and process counts the simulator
#: ever reaches.
ENTRY_GEN_SHIFT = 1
ENTRY_GEN_MASK = (1 << 32) - 1
ENTRY_MM_SHIFT = 33
ENTRY_MM_MASK = (1 << 20) - 1
ENTRY_PFN_SHIFT = 53

def encode_entry(pfn: int, writable: bool, generation: int, mm_id: int) -> int:
    """Pack translation fields into one int slot."""
    return (
        (pfn << ENTRY_PFN_SHIFT)
        | ((mm_id & ENTRY_MM_MASK) << ENTRY_MM_SHIFT)
        | ((generation & ENTRY_GEN_MASK) << ENTRY_GEN_SHIFT)
        | (1 if writable else 0)
    )


def decode_entry(slot: int) -> TlbEntry:
    """Unpack an int slot back into a TlbEntry (bool writable and all)."""
    return TlbEntry(
        pfn=slot >> ENTRY_PFN_SHIFT,
        writable=bool(slot & 1),
        generation=(slot >> ENTRY_GEN_SHIFT) & ENTRY_GEN_MASK,
        debug_mm_id=(slot >> ENTRY_MM_SHIFT) & ENTRY_MM_MASK,
    )


def entry_pfn(slot: int) -> int:
    """The pfn field of a slot handed out by :meth:`Tlb.lookup`."""
    return slot >> ENTRY_PFN_SHIFT


def entry_writable(slot: int) -> bool:
    """The writable bit of a slot handed out by :meth:`Tlb.lookup`."""
    return slot & 1 != 0


class Tlb:
    """A single core's TLB (split 4 KiB / 2 MiB arrays, like x86 L1 dTLBs)."""

    def __init__(
        self,
        capacity: int,
        pcid_enabled: bool = False,
        huge_capacity: int = 32,
    ):
        if capacity < 1:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self.huge_capacity = huge_capacity
        self.pcid_enabled = pcid_enabled
        # Plain dicts are insertion-ordered: LRU refresh is del+reinsert and
        # the LRU victim is next(iter(...)).
        self._entries: Dict[int, int] = {}
        #: 2 MiB entries keyed by (pcid, base_vpn), packed the same way.
        self._huge_entries: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.full_flushes = 0
        self.evictions = 0
        #: Bumped on *any* observable change (incl. LRU order and the
        #: hit/miss counters): snapshot/restore skip work when equal.
        self._state_version = next(_VERSIONS)
        #: Bumped only when the resident entry set changes:
        #: keys the model checker's canonical-fragment cache.
        self._entries_version = next(_VERSIONS)

    def __len__(self) -> int:
        return len(self._entries) + len(self._huge_entries)

    def _key(self, pcid: int, vpn: int) -> int:
        eff = pcid if self.pcid_enabled else NO_PCID
        return (eff << KEY_PCID_SHIFT) | vpn

    def _huge_key(self, pcid: int, vpn: int) -> int:
        eff = pcid if self.pcid_enabled else NO_PCID
        return (eff << KEY_PCID_SHIFT) | (vpn - vpn % HUGE_SPAN)

    @staticmethod
    def _split_key(key: int) -> Tuple[int, int]:
        return key >> KEY_PCID_SHIFT, key & KEY_VPN_MASK

    # ---- lookups and fills -----------------------------------------------------

    def lookup(self, pcid: int, vpn: int) -> Optional[int]:
        """Translate; counts a hit or miss and refreshes LRU position.

        Returns the resident packed slot -- read it through
        ``entry_pfn``/``entry_writable``."""
        self._state_version = next(_VERSIONS)
        eff = pcid if self.pcid_enabled else NO_PCID
        key = (eff << KEY_PCID_SHIFT) | vpn
        entries = self._entries
        slot = entries.get(key)
        if slot is not None:
            del entries[key]
            entries[key] = slot
            self.hits += 1
            return slot
        hkey = (eff << KEY_PCID_SHIFT) | (vpn - vpn % HUGE_SPAN)
        huge = self._huge_entries
        slot = huge.get(hkey)
        if slot is not None:
            del huge[hkey]
            huge[hkey] = slot
            self.hits += 1
            return slot
        self.misses += 1
        return None

    def peek(self, pcid: int, vpn: int) -> Optional[TlbEntry]:
        """Inspect without touching counters or LRU (for invariant checks);
        returns the decoded ``TlbEntry``."""
        slot = self._entries.get(self._key(pcid, vpn))
        if slot is None:
            slot = self._huge_entries.get(self._huge_key(pcid, vpn))
        if slot is None:
            return None
        return decode_entry(slot)

    def fill(self, pcid: int, vpn: int, entry: TlbEntry) -> None:
        """Install a 4 KiB translation, evicting LRU on overflow."""
        self.fill_new(
            pcid, vpn, entry.pfn, entry.writable, entry.generation,
            entry.debug_mm_id,
        )

    def fill_new(
        self,
        pcid: int,
        vpn: int,
        pfn: int,
        writable: bool = True,
        generation: int = 0,
        mm_id: int = 0,
    ) -> None:
        """Install a fresh 4 KiB translation from raw fields.

        The hot-path form of :meth:`fill`: the slot is encoded directly,
        with no TlbEntry allocated."""
        self._state_version = next(_VERSIONS)
        self._entries_version = next(_VERSIONS)
        eff = pcid if self.pcid_enabled else NO_PCID
        key = (eff << KEY_PCID_SHIFT) | vpn
        slot = (
            (pfn << ENTRY_PFN_SHIFT)
            | ((mm_id & ENTRY_MM_MASK) << ENTRY_MM_SHIFT)
            | ((generation & ENTRY_GEN_MASK) << ENTRY_GEN_SHIFT)
            | (1 if writable else 0)
        )
        entries = self._entries
        if key in entries:
            del entries[key]
        entries[key] = slot
        capacity = self.capacity
        while len(entries) > capacity:
            del entries[next(iter(entries))]
            self.evictions += 1

    def fill_huge(self, pcid: int, base_vpn: int, entry: TlbEntry) -> None:
        """Install a 2 MiB translation in the huge array."""
        self._state_version = next(_VERSIONS)
        self._entries_version = next(_VERSIONS)
        if base_vpn % HUGE_SPAN:
            raise ValueError(f"huge fill not aligned: vpn {base_vpn:#x}")
        key = self._key(pcid, base_vpn)
        huge = self._huge_entries
        if key in huge:
            del huge[key]
        huge[key] = encode_entry(
            entry.pfn, entry.writable, entry.generation, entry.debug_mm_id
        )
        while len(huge) > self.huge_capacity:
            del huge[next(iter(huge))]
            self.evictions += 1

    # ---- invalidation ----------------------------------------------------------

    def invalidate_page(self, pcid: int, vpn: int) -> bool:
        """INVLPG: drop the translation covering ``vpn``; True if present.
        Like :meth:`invalidate_range`, a miss keeps both versions."""
        key = self._key(pcid, vpn)
        if key in self._entries:
            del self._entries[key]
            self.invalidations += 1
            self._state_version = next(_VERSIONS)
            self._entries_version = next(_VERSIONS)
            return True
        hkey = self._huge_key(pcid, vpn)
        if hkey in self._huge_entries:
            del self._huge_entries[hkey]
            self.invalidations += 1
            self._state_version = next(_VERSIONS)
            self._entries_version = next(_VERSIONS)
            return True
        return False

    def invalidate_range(self, pcid: int, vpn_start: int, vpn_end: int) -> int:
        """Drop all translations overlapping [vpn_start, vpn_end).

        The pcid's keys in the range are ``[base + vpn_start, base +
        vpn_end)``: a range no wider than the resident count probes them,
        a wider one is one comparison pass over the resident keys. A huge
        entry overlaps iff its base vpn is in ``[vpn_start - 511,
        vpn_end)``, one pass over the huge array."""
        base = (pcid if self.pcid_enabled else NO_PCID) << KEY_PCID_SHIFT
        lo = base + vpn_start
        hi = base + (vpn_end if vpn_end < KEY_VPN_END else KEY_VPN_END)
        entries = self._entries
        if hi - lo <= len(entries):
            victims = [key for key in range(lo, hi) if key in entries]
        else:
            victims = [key for key in entries if lo <= key < hi]
        for key in victims:
            del entries[key]
        dropped = len(victims)
        huge = self._huge_entries
        if huge:
            lo = base + max(0, vpn_start - (HUGE_SPAN - 1))
            victims = [key for key in huge if lo <= key < hi]
            for key in victims:
                del huge[key]
            dropped += len(victims)
        if dropped:
            # A miss changes nothing observable, so only a drop mints new
            # versions (the snapshot restore and the model checker's
            # canonical-fragment cache skip work while they are unchanged).
            self.invalidations += dropped
            self._state_version = next(_VERSIONS)
            self._entries_version = next(_VERSIONS)
        return dropped

    def flush(self, pcid: Optional[int] = None) -> int:
        """CR3 write: drop everything (or one PCID's entries when tagged)."""
        self._state_version = next(_VERSIONS)
        self._entries_version = next(_VERSIONS)
        self.full_flushes += 1
        if pcid is None or not self.pcid_enabled:
            count = len(self._entries) + len(self._huge_entries)
            self._entries.clear()
            self._huge_entries.clear()
            return count
        lo = pcid << KEY_PCID_SHIFT
        hi = lo + KEY_VPN_END
        dropped = 0
        for entries in (self._entries, self._huge_entries):
            victims = [key for key in entries if lo <= key < hi]
            for key in victims:
                del entries[key]
            dropped += len(victims)
        return dropped

    # ---- inspection ------------------------------------------------------------

    def items(self) -> Iterable[Tuple[Tuple[int, int], TlbEntry]]:
        """All 4 KiB ((pcid, vpn), entry) pairs; for invariant checkers.
        Decoded to tuple keys and TlbEntry values, in residence (LRU)
        order."""
        return [
            (self._split_key(key), decode_entry(slot))
            for key, slot in self._entries.items()
        ]

    def huge_items(self) -> Iterable[Tuple[Tuple[int, int], TlbEntry]]:
        """All 2 MiB ((pcid, base_vpn), entry) pairs."""
        return [
            (self._split_key(key), decode_entry(slot))
            for key, slot in self._huge_entries.items()
        ]

    def frame_refs(self) -> List[Tuple[int, int]]:
        """(pfn, generation) of every resident entry, the 4 KiB array then
        the huge one, in residence order -- what the frame-safety invariant
        checks at every monitor notification. The slots are read in place,
        without decoding a TlbEntry per slot."""
        refs = [
            (slot >> ENTRY_PFN_SHIFT, (slot >> ENTRY_GEN_SHIFT) & ENTRY_GEN_MASK)
            for slot in self._entries.values()
        ]
        if self._huge_entries:
            refs += [
                (slot >> ENTRY_PFN_SHIFT, (slot >> ENTRY_GEN_SHIFT) & ENTRY_GEN_MASK)
                for slot in self._huge_entries.values()
            ]
        return refs

    def canonical_rows(self) -> List[Tuple[int, int, int, bool, int]]:
        """Sorted (pcid, vpn, pfn, writable, generation) rows of the 4 KiB
        array -- the form the model checker hashes (LRU order and the debug
        mm id left out)."""
        return _canonical(self._entries)

    def canonical_huge_rows(self) -> List[Tuple[int, int, int, bool, int]]:
        """Huge-array twin of :meth:`canonical_rows`."""
        return _canonical(self._huge_entries)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "full_flushes": self.full_flushes,
            "evictions": self.evictions,
            "resident": len(self._entries),
        }


def _canonical(entries: Dict[int, int]) -> List[Tuple[int, int, int, bool, int]]:
    return sorted(
        (
            key >> KEY_PCID_SHIFT,
            key & KEY_VPN_MASK,
            slot >> ENTRY_PFN_SHIFT,
            bool(slot & 1),
            (slot >> ENTRY_GEN_SHIFT) & ENTRY_GEN_MASK,
        )
        for key, slot in entries.items()
    )
