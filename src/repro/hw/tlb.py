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

``invalidate_range``, ``flush(pcid)`` and ``cached_vpns`` are O(victims)
rather than O(resident): a per-pcid secondary index (pcid -> vpn set,
maintained on fill/evict/invalidate) names exactly the entries a victim
pcid owns, so range shootdowns never scan the other processes' entries.
``Tlb(..., use_index=False)`` keeps the original linear scans selectable --
the differential tests prove both paths drop the same entries and report
the same stats.

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
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: PCID used for every process when PCID support is off.
NO_PCID = 0

#: Default for ``Tlb(use_index=...)`` when left unspecified.
DEFAULT_USE_TLB_INDEX = True

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
        use_index: Optional[bool] = None,
    ):
        if capacity < 1:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self.huge_capacity = huge_capacity
        self.pcid_enabled = pcid_enabled
        self.use_index = DEFAULT_USE_TLB_INDEX if use_index is None else bool(use_index)
        # Plain dicts are insertion-ordered: LRU refresh is del+reinsert and
        # the LRU victim is next(iter(...)).
        self._entries: Dict[int, int] = {}
        #: 2 MiB entries keyed by (pcid, base_vpn), packed the same way.
        self._huge_entries: Dict[int, int] = {}
        #: Secondary index: effective pcid -> vpns resident in _entries.
        self._index: Dict[int, Set[int]] = {}
        #: Same for the huge array (base vpns).
        self._huge_index: Dict[int, Set[int]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.full_flushes = 0
        self.evictions = 0
        #: Bumped on *any* observable change (incl. LRU order and the
        #: hit/miss counters): snapshot/restore skip work when equal.
        self._state_version = next(_VERSIONS)
        #: Bumped only when the resident entry set (or index) changes:
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

    # ---- index maintenance -----------------------------------------------------

    def _index_add(self, index: Dict[int, Set[int]], key: int) -> None:
        pcid, vpn = self._split_key(key)
        vpns = index.get(pcid)
        if vpns is None:
            vpns = index[pcid] = set()
        vpns.add(vpn)

    def _index_drop(self, index: Dict[int, Set[int]], key: int) -> None:
        pcid, vpn = self._split_key(key)
        vpns = index.get(pcid)
        if vpns is not None:
            vpns.discard(vpn)
            if not vpns:
                del index[pcid]

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
        if self.use_index:
            vpns = self._index.get(eff)
            if vpns is None:
                vpns = self._index[eff] = set()
            vpns.add(vpn)
        capacity = self.capacity
        while len(entries) > capacity:
            evicted = next(iter(entries))
            del entries[evicted]
            if self.use_index:
                self._index_drop(self._index, evicted)
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
        if self.use_index:
            self._index_add(self._huge_index, key)
        while len(huge) > self.huge_capacity:
            evicted = next(iter(huge))
            del huge[evicted]
            if self.use_index:
                self._index_drop(self._huge_index, evicted)
            self.evictions += 1

    # ---- invalidation ----------------------------------------------------------

    def invalidate_page(self, pcid: int, vpn: int) -> bool:
        """INVLPG: drop the translation covering ``vpn``; True if present.
        Like :meth:`invalidate_range`, a miss keeps both versions."""
        key = self._key(pcid, vpn)
        if key in self._entries:
            del self._entries[key]
            if self.use_index:
                self._index_drop(self._index, key)
            self.invalidations += 1
            self._state_version = next(_VERSIONS)
            self._entries_version = next(_VERSIONS)
            return True
        hkey = self._huge_key(pcid, vpn)
        if hkey in self._huge_entries:
            del self._huge_entries[hkey]
            if self.use_index:
                self._index_drop(self._huge_index, hkey)
            self.invalidations += 1
            self._state_version = next(_VERSIONS)
            self._entries_version = next(_VERSIONS)
            return True
        return False

    def invalidate_range(self, pcid: int, vpn_start: int, vpn_end: int) -> int:
        """Drop all translations overlapping [vpn_start, vpn_end).

        The indexed body lives inline here (not behind a second method
        call): LATR sweeps call this once per matching state per core."""
        eff_pcid = pcid if self.pcid_enabled else NO_PCID
        if not self.use_index:
            dropped = self._invalidate_range_scan(eff_pcid, vpn_start, vpn_end)
            self.invalidations += dropped
            return dropped
        key_base = eff_pcid << KEY_PCID_SHIFT
        dropped = 0
        vpns = self._index.get(eff_pcid)
        if vpns:
            if vpn_end - vpn_start <= len(vpns):
                victims = [v for v in range(vpn_start, vpn_end) if v in vpns]
            else:
                victims = [v for v in vpns if vpn_start <= v < vpn_end]
            entries = self._entries
            for vpn in victims:
                del entries[key_base | vpn]
                vpns.discard(vpn)
            if not vpns:
                del self._index[eff_pcid]
            dropped += len(victims)
        huge_vpns = self._huge_index.get(eff_pcid)
        if huge_vpns:
            huge_victims = [
                v for v in huge_vpns if v < vpn_end and v + HUGE_SPAN > vpn_start
            ]
            huge_entries = self._huge_entries
            for vpn in huge_victims:
                del huge_entries[key_base | vpn]
                huge_vpns.discard(vpn)
            if not huge_vpns:
                del self._huge_index[eff_pcid]
            dropped += len(huge_victims)
        if dropped:
            # A miss changes nothing observable, so only a drop mints new
            # versions (the snapshot restore and the model checker's
            # canonical-fragment cache skip work while they are unchanged).
            self.invalidations += dropped
            self._state_version = next(_VERSIONS)
            self._entries_version = next(_VERSIONS)
        return dropped

    def _invalidate_range_scan(self, eff_pcid: int, vpn_start: int, vpn_end: int) -> int:
        """The original linear scan over every resident entry."""
        split = self._split_key
        victims = []
        for key in self._entries:
            pcid, vpn = split(key)
            if pcid == eff_pcid and vpn_start <= vpn < vpn_end:
                victims.append(key)
        for key in victims:
            del self._entries[key]
        huge_victims = []
        for key in self._huge_entries:
            pcid, vpn = split(key)
            if pcid == eff_pcid and vpn < vpn_end and vpn + HUGE_SPAN > vpn_start:
                huge_victims.append(key)
        for key in huge_victims:
            del self._huge_entries[key]
        dropped = len(victims) + len(huge_victims)
        if dropped:
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
            self._index.clear()
            self._huge_index.clear()
            return count
        key_base = pcid << KEY_PCID_SHIFT
        if self.use_index:
            vpns = self._index.pop(pcid, ())
            for vpn in vpns:
                del self._entries[key_base | vpn]
            huge_vpns = self._huge_index.pop(pcid, ())
            for vpn in huge_vpns:
                del self._huge_entries[key_base | vpn]
            return len(vpns) + len(huge_vpns)
        split = self._split_key
        victims = [key for key in self._entries if split(key)[0] == pcid]
        for key in victims:
            del self._entries[key]
        huge_victims = [key for key in self._huge_entries if split(key)[0] == pcid]
        for key in huge_victims:
            del self._huge_entries[key]
        return len(victims) + len(huge_victims)

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

    def cached_vpns(self, pcid: int) -> Iterable[int]:
        eff_pcid = pcid if self.pcid_enabled else NO_PCID
        if self.use_index:
            return sorted(self._index.get(eff_pcid, ()))
        return [
            vpn for (p, vpn) in map(self._split_key, self._entries) if p == eff_pcid
        ]

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
