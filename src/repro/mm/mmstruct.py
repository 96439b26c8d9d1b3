"""MmStruct: one address space (Linux mm_struct analogue).

Holds the page table, the VMA set, the ``mmap_sem`` semaphore that
serializes address-space changes (and that Linux holds across the
synchronous shootdown -- the serialization LATR removes from the critical
path), the ``mm_cpumask`` of cores that may cache translations (an int
bitmap, bit ``c`` for core ``c``, like Linux's), and the lazy-reclamation
bookkeeping LATR adds (paper section 4.2):

* ``lazy_vranges``: virtual ranges freed but not yet reusable,
* ``lazy_frames``: frames whose refcount LATR still pins.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..sim.engine import Simulator
from ..sim.resources import Lock
from .addr import PAGE_SIZE, VirtRange, page_align_up
from .pagetable import HostPageTable, PageTable, ReplicatedPageTable
from .vma import Vma, VmaSet

#: Default base of the mmap area (like x86-64 mmap_base, simplified).
MMAP_BASE = 0x7000_0000_0000

_mm_ids = itertools.count(1)

#: ``bin()`` digits to the 0/1 bytes ``itertools.compress`` selects with.
_BIN_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_selectors(mask: int) -> bytes:
    """One 0/1 byte per core id, from core 0 up to ``mask``'s highest bit:
    ``itertools.compress(items, mask_selectors(mask))`` yields the items
    indexed by the mask's core ids (cores, inboxes), in ascending id order,
    at C speed rather than one Python step per bit."""
    return bin(mask)[:1:-1].encode().translate(_BIN_DIGITS)


def cpu_ids(mask: int) -> List[int]:
    """The core ids set in ``mask``, ascending (the order ``sorted`` gives
    the same ids as a set)."""
    return list(itertools.compress(itertools.count(), mask_selectors(mask)))


class MmStruct:
    """A process address space."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        pt_nodes: Optional[int] = None,
        pt_home_node: int = 0,
        virtualized: bool = False,
    ):
        self.mm_id = next(_mm_ids)
        self.name = name or f"mm{self.mm_id}"
        # ``pt_nodes`` set means page-table replication (numaPTE): one
        # replica per NUMA node behind the ReplicatedPageTable facade.
        # Unset keeps today's single shared table, bit-identically.
        if pt_nodes is not None and pt_nodes > 1:
            self.page_table: PageTable = ReplicatedPageTable(
                nodes=pt_nodes, home_node=pt_home_node
            )
        else:
            self.page_table = PageTable()
        #: gPA->hPA table for a VM task's address space (None for native
        #: processes -- the flat model carries literally no extra state).
        self.host_table: Optional[HostPageTable] = (
            HostPageTable() if virtualized else None
        )
        self.vmas = VmaSet()
        self.mmap_sem = Lock(sim, name=f"{self.name}.mmap_sem")
        #: Bitmap of the cores that have run a thread of this mm since its
        #: last full flush there; Linux computes shootdown targets from this
        #: (paper 4.1).
        self.cpumask = 0
        #: Tasks sharing this address space.
        self.users = 0

        # Virtual-address allocation.
        self._bump = MMAP_BASE
        self._free_ranges: List[VirtRange] = []

        # LATR lazy-reclamation state.
        self.lazy_vranges: List[VirtRange] = []
        self.lazy_frames: List[int] = []
        #: Monotonic stamp for mapping changes; TLB entries snapshot it so
        #: invariant checks can spot a translation that outlived its mapping.
        self.map_generation = 0

    @property
    def pcid(self) -> int:
        """Process-context identifier == mm id (paper section 4.5)."""
        return self.mm_id

    @property
    def virtualized(self) -> bool:
        """True when this address space belongs to a VM task (guest walks
        are two-dimensional; frees need host-level invalidation)."""
        return self.host_table is not None

    # ---- cpumask management -------------------------------------------------

    def mark_running_on(self, core_id: int) -> None:
        self.cpumask |= 1 << core_id

    def clear_cpu(self, core_id: int) -> None:
        self.cpumask &= ~(1 << core_id)

    def shootdown_targets(self, initiator_core_id: int) -> List[int]:
        """Remote cores that may cache our translations, ascending."""
        return cpu_ids(self.cpumask & ~(1 << initiator_core_id))

    # ---- virtual address allocation ----------------------------------------

    def find_free_range(self, n_bytes: int, alignment: int = PAGE_SIZE) -> VirtRange:
        """First-fit from the free list, else bump allocation.

        Lazily-freed ranges are *not* on the free list, which is how the
        virtual half of LATR's reuse invariant is enforced: they only come
        back via :meth:`reclaim_vrange`. ``alignment`` supports huge-page
        mappings (2 MiB-aligned bases).
        """
        n_bytes = page_align_up(max(n_bytes, PAGE_SIZE))
        for i, candidate in enumerate(self._free_ranges):
            aligned_start = -(-candidate.start // alignment) * alignment
            if aligned_start + n_bytes <= candidate.end:
                del self._free_ranges[i]
                chosen = VirtRange(aligned_start, aligned_start + n_bytes)
                if aligned_start > candidate.start:
                    self._free_ranges.insert(
                        i, VirtRange(candidate.start, aligned_start)
                    )
                if chosen.end < candidate.end:
                    self._free_ranges.insert(
                        i, VirtRange(chosen.end, candidate.end)
                    )
                return chosen
        start = -(-self._bump // alignment) * alignment
        if start > self._bump:
            self.release_vrange(VirtRange(self._bump, start))
        self._bump = start + n_bytes
        return VirtRange(start, start + n_bytes)

    def release_vrange(self, vrange: VirtRange) -> None:
        """Return a range to the free list for immediate reuse (Linux path)."""
        self._free_ranges.append(vrange)

    def defer_vrange(self, vrange: VirtRange) -> None:
        """Park a range on the lazy list (LATR path, not yet reusable)."""
        self.lazy_vranges.append(vrange)

    def reclaim_vrange(self, vrange: VirtRange) -> None:
        """Move a lazily-freed range to the free list (reclaim daemon)."""
        self.lazy_vranges.remove(vrange)
        self._free_ranges.append(vrange)

    def vrange_is_lazy(self, vrange: VirtRange) -> bool:
        return any(v.overlaps(vrange) for v in self.lazy_vranges)

    # ---- lazy frames --------------------------------------------------------

    def defer_frames(self, pfns: List[int]) -> None:
        self.lazy_frames.extend(pfns)

    def take_lazy_frames(self, pfns: List[int]) -> None:
        for pfn in pfns:
            self.lazy_frames.remove(pfn)

    def bump_generation(self) -> int:
        self.map_generation += 1
        return self.map_generation

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MmStruct {self.name} vmas={len(self.vmas)} ptes={len(self.page_table)}>"
