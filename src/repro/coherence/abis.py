"""ABIS (Amit, USENIX ATC'17): access-bit-based sharer tracking.

ABIS reduces the *number* of IPIs by tracking, via page-table access bits,
the set of cores that actually cached each page's translation; shootdowns
target only those cores instead of the whole mm cpumask. It remains fully
synchronous (Table 2). Its cost is the tracking itself: extra work on every
TLB fill (access-bit management, page-table scans) and per-page sharer
lookups during the unmap -- the paper's Figure 9 shows this overhead making
ABIS *slower* than Linux below eight cores, then faster beyond as the saved
IPIs dominate.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from ..mm.addr import VirtRange
from ..mm.frames import FrameBatch
from ..mm.mmstruct import MmStruct
from ..sim.engine import Signal
from .base import MECHANISM_PROPERTIES, ShootdownReason, TLBCoherence


class AbisShootdown(TLBCoherence):
    """Synchronous shootdown with access-bit sharer tracking."""

    name = "abis"
    properties = MECHANISM_PROPERTIES["ABIS"]

    #: Extra cost on each TLB fill: atomic access-bit bookkeeping plus the
    #: amortized share of ABIS's periodic access-bit scans.
    track_fill_ns = 800
    #: Per-page sharer-set lookup (access-bit walk) during an unmap; runs
    #: under mmap_sem, so it eats into address-space operation throughput.
    lookup_per_page_ns = 1400

    def __init__(self):
        super().__init__()
        #: (mm_id, vpn) -> cores that cached the translation since the last
        #: shootdown of that page.
        self._sharers: Dict[Tuple[int, int], Set[int]] = {}

    # ---- tracking -----------------------------------------------------------------

    def on_tlb_fill(self, core, mm: MmStruct, vpn: int) -> int:
        self._sharers.setdefault((mm.mm_id, vpn), set()).add(core.id)
        self._stats.counter("abis.fills_tracked").add()
        return self.track_fill_ns

    def _targets_for_range(self, core, mm: MmStruct, vrange: VirtRange) -> List:
        """Actual sharers of the range, intersected with the usual rules
        (idle cores skipped and flagged, initiator excluded)."""
        sharing_ids: Set[int] = set()
        for vpn in vrange.vpns():
            owners = self._sharers.pop((mm.mm_id, vpn), None)
            if owners:
                sharing_ids |= owners
        sharing_ids.discard(core.id)
        machine = self.kernel.machine
        cpumask = mm.cpumask
        targets = []
        for core_id in sorted(c for c in sharing_ids if cpumask >> c & 1):
            target = machine.core(core_id)
            if target.lazy_tlb_mode:
                target.needs_flush_on_wake = True
                continue
            targets.append(target)
        return targets

    # ---- mechanism API ---------------------------------------------------------------

    def shootdown_free(
        self,
        core,
        mm: MmStruct,
        vrange: VirtRange,
        pfns: List[int],
        vrange_to_free: Optional[VirtRange],
    ) -> Generator:
        start = self.kernel.sim.now
        yield from core.execute(self.local_invalidate(core, mm, vrange))
        yield from core.execute(vrange.n_pages * self.lookup_per_page_ns)
        targets = self._targets_for_range(core, mm, vrange)
        self._stats.counter("abis.ipis_saved").add(
            max(0, (mm.cpumask & ~(1 << core.id)).bit_count() - len(targets))
        )
        self._stats.counter("shootdown.initiated").add()
        self._stats.rate("shootdowns").hit()
        yield from self.ipi_round(core, mm, vrange, targets, ShootdownReason.FREE)
        self._stats.latency("shootdown.free").record(self.kernel.sim.now - start)
        yield from core.execute(FrameBatch.units_of(pfns) * self._lat.page_free_ns)
        self.kernel.release_frames(pfns)
        if vrange_to_free is not None:
            mm.release_vrange(vrange_to_free)

    def migration_unmap(
        self,
        core,
        mm: MmStruct,
        vrange: VirtRange,
        apply_pte_change: Callable[[], None],
    ) -> Generator:
        apply_pte_change()
        yield from core.execute(self.local_invalidate(core, mm, vrange))
        yield from core.execute(vrange.n_pages * self.lookup_per_page_ns)
        targets = self._targets_for_range(core, mm, vrange)
        self._stats.counter("shootdown.initiated").add()
        self._stats.rate("shootdowns").hit()
        yield from self.ipi_round(core, mm, vrange, targets, ShootdownReason.MIGRATION)
        return Signal(self.kernel.sim).succeed(None)
