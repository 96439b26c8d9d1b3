"""Page table: one flat ``vpn -> Pte`` store with x86-64 four-level
(PML4 -> PDPT -> PD -> PT) table-page accounting.

A hardware walk is one dict probe. The radix tree survives only in the
accounting, as a live count per table page: a PT page (keyed ``vpn >> 9``)
counts its entries, a PD page (``vpn >> 18``) or PDPT page (``vpn >> 27``)
its live child pages. A count's 0 -> 1 step is the radix tree allocating
that page and its 1 -> 0 step is the tree pruning it (free_pgtables()),
so ``table_pages_allocated`` and a replica's page count read exactly as a
radix tree's would.
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .addr import HUGE_PAGE_PAGES, VirtRange, huge_base_vpn, is_huge_aligned
from .pte import Pte, make_present_pte

LEVELS = 4
BITS_PER_LEVEL = 9

#: Process-global version numbers for page-table change tracking;
#: values are never reused, so equal versions imply identical contents
#: (same contract as ``repro.hw.tlb._VERSIONS``).
_VERSIONS = count(1)


class PageTable:
    """A process's page table; one per MmStruct.

    The range queries (``entries_in_range``, ``all_entries``,
    ``huge_in_range``) return new lists, so a caller may change the table
    while it goes through one (munmap, mprotect and fork do)."""

    def __init__(self):
        #: 4 KiB mappings: vpn -> Pte.
        self._ptes: Dict[int, Pte] = {}
        #: PD-level 2 MiB mappings: base_vpn -> Pte with the HUGE flag.
        #: (Kept in a side table for clarity; semantically these live in
        #: the PD slot that would otherwise point at a PT page.)
        self._huge: Dict[int, Pte] = {}
        #: Live counts of the table pages below the root, one map per
        #: level: PT pages (``vpn >> 9`` -> entries), PD pages
        #: (``vpn >> 18`` -> live PT pages), PDPT pages (``vpn >> 27`` ->
        #: live PD pages). A page is live while its count is non-zero.
        self._pt_pages: Dict[int, int] = {}
        self._pd_pages: Dict[int, int] = {}
        self._pdpt_pages: Dict[int, int] = {}
        #: table-page allocations, for memory-overhead accounting
        self.table_pages_allocated = 1  # the root
        #: Optional ``observer(event, vpn)`` invoked after every mutation
        #: (the InvariantMonitor's continuous-checking hook).
        self.observer = None
        #: Bumped on any mutation; keys snapshot/restore/canonical skip
        #: paths (never rewound except together with the contents).
        self._version = next(_VERSIONS)

    def __len__(self) -> int:
        return len(self._ptes)

    def walk(self, vpn: int) -> Optional[Pte]:
        """Hardware walk: return the PTE for ``vpn`` or None.

        A huge mapping covering ``vpn`` wins (the walk stops at the PD)."""
        if self._huge:
            huge = self._huge.get(huge_base_vpn(vpn))
            if huge is not None:
                return huge
        return self._ptes.get(vpn)

    # ---- huge (2 MiB) mappings ----------------------------------------------

    def set_huge_pte(self, base_vpn: int, pte: Pte) -> None:
        """Install a PD-level 2 MiB entry. The 512-page range must be free
        of 4 KiB entries (khugepaged clears them before collapsing)."""
        self._version = next(_VERSIONS)
        if not is_huge_aligned(base_vpn):
            raise ValueError(f"huge mapping not 2MiB-aligned: vpn {base_vpn:#x}")
        if not pte.huge:
            raise ValueError("set_huge_pte needs a HUGE-flagged pte")
        if self.has_4k_under(base_vpn):
            vpn = min(v for v in self._ptes if huge_base_vpn(v) == base_vpn)
            raise ValueError(f"4K entry at {vpn:#x} blocks huge mapping")
        self._huge[base_vpn] = pte
        if self.observer is not None:
            self.observer("set_huge", base_vpn)

    def clear_huge_pte(self, base_vpn: int) -> Optional[Pte]:
        self._version = next(_VERSIONS)
        prev = self._huge.pop(base_vpn, None)
        if prev is not None and self.observer is not None:
            self.observer("clear_huge", base_vpn)
        return prev

    def huge_in_range(self, vrange: VirtRange) -> List[Tuple[int, Pte]]:
        """(base_vpn, pte) for huge mappings fully inside ``vrange``."""
        return [
            (base_vpn, pte)
            for base_vpn, pte in sorted(self._huge.items())
            if vrange.vpn_start <= base_vpn and base_vpn + HUGE_PAGE_PAGES <= vrange.vpn_end
        ]

    def huge_count(self) -> int:
        return len(self._huge)

    def has_4k_under(self, base_vpn: int) -> bool:
        """Whether any 4 KiB entry lies in the 2 MiB range at the aligned
        ``base_vpn``. That range is exactly one PT page, so this is one
        probe of the PT-page counts."""
        return (base_vpn >> BITS_PER_LEVEL) in self._pt_pages

    # ---- 4 KiB mappings -------------------------------------------------------

    def set_pte(self, vpn: int, pte: Pte) -> Optional[Pte]:
        """Install a 4 KiB PTE; returns the previous entry if any."""
        self._version = next(_VERSIONS)
        if self._huge and huge_base_vpn(vpn) in self._huge:
            raise ValueError(f"vpn {vpn:#x} covered by a huge mapping")
        ptes = self._ptes
        prev = ptes.get(vpn)
        ptes[vpn] = pte
        if prev is None:
            # Count the entry in its PT page, and a page that goes live in
            # its parent, as far up as the first page that was live already.
            key = vpn
            for pages in (self._pt_pages, self._pd_pages, self._pdpt_pages):
                key >>= BITS_PER_LEVEL
                n = pages.get(key, 0)
                pages[key] = n + 1
                if n:
                    break
                self.table_pages_allocated += 1
        if self.observer is not None:
            self.observer("set", vpn)
        return prev

    def clear_pte(self, vpn: int) -> Optional[Pte]:
        """Remove the PTE for ``vpn``; returns it (None if unmapped).

        Table pages left empty are pruned, mirroring free_pgtables().
        """
        self._version = next(_VERSIONS)
        prev = self._ptes.pop(vpn, None)
        if prev is None:
            return None
        key = vpn
        for pages in (self._pt_pages, self._pd_pages, self._pdpt_pages):
            key >>= BITS_PER_LEVEL
            n = pages[key] - 1
            if n:
                pages[key] = n
                break
            del pages[key]
        if self.observer is not None:
            self.observer("clear", vpn)
        return prev

    def update_pte(self, vpn: int, pte: Pte) -> None:
        """Replace an existing PTE in place (PTE must exist).

        A vpn covered by a huge mapping replaces the covering PD entry
        (mprotect over a collapsed range rewrites the single huge PTE).
        """
        self._version = next(_VERSIONS)
        if self._huge:
            base = huge_base_vpn(vpn)
            if base in self._huge:
                self._huge[base] = pte
                if self.observer is not None:
                    self.observer("set_huge", base)
                return
        if vpn not in self._ptes:
            raise KeyError(f"update of unmapped vpn {vpn:#x}")
        self._ptes[vpn] = pte
        if self.observer is not None:
            self.observer("set", vpn)

    # ---- iteration ------------------------------------------------------------

    def entries_in_range(self, vrange: VirtRange) -> List[Tuple[int, Pte]]:
        """(vpn, pte) for every mapped 4 KiB page in ``vrange`` (huge
        mappings are surfaced once, at their base vpn).

        Ascending by position, where a huge mapping's position is the
        first covered vpn inside the range (its base, or ``vpn_start`` when
        the range starts mid-huge). One sorted pass over the entries, so
        the cost is never O(range length) for a sparse table.
        """
        start, end = vrange.vpn_start, vrange.vpn_end
        found = sorted(item for item in self._ptes.items() if start <= item[0] < end)
        if not self._huge:
            return found
        # No 4 KiB entry can sit under a huge mapping, so positions never
        # tie and one sort by position merges the two kinds.
        merged = [(vpn, vpn, pte) for vpn, pte in found]
        merged += [
            (max(base, start), base, pte)
            for base, pte in self._huge.items()
            if base < end and base + HUGE_PAGE_PAGES > start
        ]
        merged.sort(key=itemgetter(0))
        return [(vpn, pte) for _pos, vpn, pte in merged]

    def all_entries(self) -> List[Tuple[int, Pte]]:
        """Every huge entry (once, at its base), then every 4 KiB entry,
        each kind in ascending vpn order."""
        return sorted(self._huge.items()) + sorted(self._ptes.items())

    # ---- whole-table state ----------------------------------------------------

    def copy_state(self) -> Tuple:
        """A copy of the contents, for :meth:`load_state`: the dicts are
        copied, the immutable ``Pte`` leaves shared."""
        return (
            dict(self._ptes), dict(self._huge), dict(self._pt_pages),
            dict(self._pd_pages), dict(self._pdpt_pages),
            self.table_pages_allocated,
        )

    def load_state(self, state: Tuple) -> None:
        """Make the contents a copy of ``state`` (a :meth:`copy_state`
        tuple), which stays intact for any later load."""
        ptes, huge, pt_pages, pd_pages, pdpt_pages, pages = state
        self._ptes = dict(ptes)
        self._huge = dict(huge)
        self._pt_pages = dict(pt_pages)
        self._pd_pages = dict(pd_pages)
        self._pdpt_pages = dict(pdpt_pages)
        self.table_pages_allocated = pages


class ReplicatedPageTable(PageTable):
    """numaPTE-style per-NUMA-node page-table replication facade.

    The facade *is* the home node's table (all inherited storage is the
    canonical replica, so single-table callers keep working unchanged);
    remote nodes get lazily materialized :class:`PageTable` replicas that
    every mutator fans out to. Replicas share ``Pte`` objects with the
    canonical table -- coherence means structural agreement, and the
    invariant monitor checks it entry-by-entry.

    Cost accounting is decoupled from the data structure: fan-outs only
    *count* pending entry-updates per node; the kernel drains those
    counts into hop-aware nanoseconds at its existing charge sites.
    """

    #: Mutation-audit hook: nodes whose replicas the fan-out skips
    #: (the ``broken_replica`` variant sets this on one mm's facade).
    _skip_replica_nodes: frozenset = frozenset()

    def __init__(self, nodes: int, home_node: int = 0):
        super().__init__()
        #: NUMA node count of the machine this mm runs on.
        self.nodes = nodes
        #: Node whose replica is the canonical (inherited) table.
        self.home_node = home_node
        #: node -> replica table; the home node is never in here.
        self._replicas: Dict[int, PageTable] = {}
        #: Lifetime count of entry updates fanned out to replicas.
        self.replica_updates = 0
        #: Lifetime count of lazy replica materializations.
        self.replica_materializations = 0
        #: node -> entry updates not yet charged by the kernel.
        self._pending_updates: Dict[int, int] = {}

    # ---- write coordination: every mutator mirrors to live replicas ---------
    #
    # The inherited mutators fire the observer (the invariant monitor's
    # continuous-check hook) at their end -- *before* the fan-out would
    # run. The monitor's replica-coherence check must never observe that
    # mid-mutation window, so each override runs the canonical mutation
    # with the observer detached, mirrors, and only then notifies.

    def set_pte(self, vpn: int, pte: Pte) -> Optional[Pte]:
        prev = self._quiet(super().set_pte, vpn, pte)
        self._mirror("set_pte", vpn, pte)
        self._notify("set", vpn)
        return prev

    def clear_pte(self, vpn: int) -> Optional[Pte]:
        prev = self._quiet(super().clear_pte, vpn)
        if prev is not None:
            self._mirror("clear_pte", vpn)
            self._notify("clear", vpn)
        return prev

    def update_pte(self, vpn: int, pte: Pte) -> None:
        self._quiet(super().update_pte, vpn, pte)
        self._mirror("update_pte", vpn, pte)
        base = huge_base_vpn(vpn)
        if base in self._huge:
            self._notify("set_huge", base)
        else:
            self._notify("set", vpn)

    def set_huge_pte(self, base_vpn: int, pte: Pte) -> None:
        self._quiet(super().set_huge_pte, base_vpn, pte)
        self._mirror("set_huge_pte", base_vpn, pte)
        self._notify("set_huge", base_vpn)

    def clear_huge_pte(self, base_vpn: int) -> Optional[Pte]:
        prev = self._quiet(super().clear_huge_pte, base_vpn)
        if prev is not None:
            self._mirror("clear_huge_pte", base_vpn)
            self._notify("clear_huge", base_vpn)
        return prev

    def _quiet(self, method, *args):
        obs, self.observer = self.observer, None
        try:
            return method(*args)
        finally:
            self.observer = obs

    def _notify(self, event: str, vpn: int) -> None:
        if self.observer is not None:
            self.observer(event, vpn)

    def _mirror(self, method: str, *args) -> None:
        """Apply one canonical mutation to every live replica, through the
        replica's own mutator. A clear counts a replica update only where
        the replica held the entry. Mutation hooks (``broken_replica``)
        wrap this method, so dispatch stays here."""
        if not self._replicas:
            return
        skip = self._skip_replica_nodes
        pending = self._pending_updates
        clear = method == "clear_pte"
        n = 0
        for node, replica in self._replicas.items():
            if node in skip:
                continue
            if getattr(replica, method)(*args) is None and clear:
                continue
            pending[node] = pending.get(node, 0) + 1
            n += 1
        self.replica_updates += n

    # ---- walk-side API -------------------------------------------------------

    def local_table(self, node: int) -> PageTable:
        """The replica a hardware walk from ``node`` descends
        (materialized on first use)."""
        if node == self.home_node:
            return self
        replica = self._replicas.get(node)
        if replica is None:
            replica = self._materialize(node)
        return replica

    def walk_local(self, vpn: int, node: int) -> Optional[Pte]:
        return self.local_table(node).walk(vpn)

    def _materialize(self, node: int) -> PageTable:
        """Clone the canonical table as ``node``'s replica.

        The stores are copied; ``Pte`` leaves are shared with the canonical
        table. The replica owns a root plus one page per live table page.
        """
        replica = PageTable()
        pages = 1 + len(self._pt_pages) + len(self._pd_pages) + len(self._pdpt_pages)
        replica.load_state((
            self._ptes, self._huge, self._pt_pages, self._pd_pages,
            self._pdpt_pages, pages,
        ))
        replica._version = next(_VERSIONS)
        self._replicas[node] = replica
        self.replica_materializations += 1
        # Derived state changed: invalidate version-keyed snapshot and
        # canonical-hash caches that fold replica state.
        self._version = next(_VERSIONS)
        return replica

    # ---- accounting ----------------------------------------------------------

    def take_pending_updates(self) -> Tuple[Tuple[int, int], ...]:
        """Drain (node, entry-update count) pairs accumulated since the
        last drain; the kernel turns them into hop-aware charge."""
        if not self._pending_updates:
            return ()
        items = tuple(sorted(self._pending_updates.items()))
        self._pending_updates.clear()
        # Keep the version contract over the *whole* facade (canonical +
        # replicas + pending counts): equal version implies equal state.
        self._version = next(_VERSIONS)
        return items

    def table_pages_by_node(self) -> Dict[int, int]:
        """Table pages allocated per node (home = canonical table)."""
        pages = {self.home_node: self.table_pages_allocated}
        for node, replica in self._replicas.items():
            pages[node] = replica.table_pages_allocated
        return pages

    def replicas(self) -> Dict[int, PageTable]:
        """Live remote replicas by node (read-only view for checkers)."""
        return dict(self._replicas)


class HostPageTable(PageTable):
    """gPA->hPA (EPT/NPT-style) translation table for a virtualized mm.

    Entries are keyed by guest frame number (gfn); each present entry's
    ``Pte.pfn`` is the backing *host* frame. Guest frames are minted
    sequentially per mm as host frames get exposed to the guest, and the
    gfn<->pfn pairing is tracked both ways so the hypervisor side (frame
    reclamation) can find and invalidate the host entry for a freed frame
    without scanning.

    The table reuses :class:`PageTable`'s flat store and version mint,
    so snapshot/restore and the model checker's version-keyed canonical
    hashing cover host state with the same machinery as guest state.
    """

    def __init__(self, levels: int = LEVELS):
        super().__init__()
        #: Host-table depth (m of the n-over-m 2D walk cost model).
        self.levels = levels
        #: host pfn -> gfn for every populated entry.
        self.gfn_of_pfn: Dict[int, int] = {}
        #: Next guest frame number to mint.
        self.next_gfn = 0
        #: gfn -> frame free-generation recorded at populate time; the
        #: ept_coherence invariant proves no entry outlives its frame.
        self.generation_of_gfn: Dict[int, int] = {}

    def populate(self, pfn: int, generation: int) -> bool:
        """Install the gfn->pfn entry for ``pfn`` (EPT-violation fill).
        Returns True when a new entry was created, False if already
        populated (idempotent -- TLB fills hit this on every miss)."""
        if pfn in self.gfn_of_pfn:
            return False
        gfn = self.next_gfn
        self.next_gfn = gfn + 1
        self.gfn_of_pfn[pfn] = gfn
        self.generation_of_gfn[gfn] = generation
        self.set_pte(gfn, make_present_pte(pfn))
        return True

    def invalidate_pfn(self, pfn: int) -> Optional[int]:
        """Tear down the host entry backing ``pfn`` (host-side INVEPT on
        frame reclamation). Returns the gfn removed, or None."""
        gfn = self.gfn_of_pfn.pop(pfn, None)
        if gfn is None:
            return None
        self.generation_of_gfn.pop(gfn, None)
        self.clear_pte(gfn)
        return gfn

    def walk_gfn(self, gfn: int) -> Optional[Pte]:
        """The host half of a 2D walk: gfn -> host Pte (or None)."""
        return self.walk(gfn)
