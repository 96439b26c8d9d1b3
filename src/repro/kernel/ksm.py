"""KSM-style deduplication: migration-class shootdowns (paper Table 1).

Pages with identical contents (workloads tag frame contents through
``kernel.set_page_content``) are merged onto one canonical frame; the
duplicates' PTEs are rewritten to the canonical frame as read-only CoW
mappings. Rewriting a live PTE is a migration-class operation: under LATR
the rewrite is deferred into a state and the duplicate frame is freed only
after every core invalidated (the completion signal), exactly the paper's
dedup row.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from ..mm.addr import VirtRange
from ..mm.pte import Pte, PteFlags
from .task import KProcess

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class KsmDaemon:
    """Background dedup scanner."""

    def __init__(self, kernel: "Kernel", scan_period_ns: int = 50_000_000, daemon_core_id: int = 0):
        self.kernel = kernel
        self.scan_period_ns = scan_period_ns
        self.daemon_core_id = daemon_core_id
        self._registered: List[KProcess] = []
        self._started = False

    @classmethod
    def install(cls, kernel: "Kernel", **kwargs) -> "KsmDaemon":
        daemon = cls(kernel, **kwargs)
        kernel.ksm = daemon
        return daemon

    def register(self, process: KProcess) -> None:
        self._registered.append(process)
        if not self._started:
            self._started = True
            # Periodic generator body: next round starts scan_period_ns
            # after the previous one completes (classic daemon cadence).
            self.kernel.sim.every(self.scan_period_ns, self.scan_once)

    # ---- one scan round -------------------------------------------------------------

    def scan_once(self) -> Generator:
        """Group tagged pages by content and merge duplicates."""
        kernel = self.kernel
        core = kernel.machine.core(self.daemon_core_id)
        groups: Dict[str, List[Tuple[KProcess, int, Pte]]] = defaultdict(list)
        examined = 0
        for process in self._registered:
            for vpn, pte in process.mm.page_table.all_entries():
                if not pte.present or pte.cow or pte.huge:
                    continue
                tag = kernel.page_contents.get(pte.pfn)
                examined += 1
                if tag is not None:
                    groups[tag].append((process, vpn, pte))
        core.steal_time(examined * 250)  # content hashing per page
        kernel.stats.counter("ksm.pages_scanned").add(examined)

        for tag, entries in groups.items():
            distinct_pfns = {pte.pfn for _, _, pte in entries}
            if len(distinct_pfns) < 2:
                continue
            canonical = min(distinct_pfns)
            for process, vpn, pte in entries:
                if pte.pfn == canonical:
                    yield from self._protect_canonical(core, process, vpn, canonical)
                    continue
                yield from self._merge_one(core, process, vpn, pte.pfn, canonical)

    def _protect_canonical(self, core, process: KProcess, vpn: int, canonical: int) -> Generator:
        """Write-protect the canonical mapping itself.

        This is an *ownership* change (Table 1's CoW row): a stale writable
        TLB entry would let a core keep writing a now-shared page, so the
        shootdown must be synchronous even under LATR.
        """
        from ..coherence.base import ShootdownReason

        kernel = self.kernel
        mm = process.mm
        yield mm.mmap_sem.acquire()
        try:
            current = mm.page_table.walk(vpn)
            if current is None or not current.present or current.cow or current.pfn != canonical:
                return
            mm.page_table.update_pte(
                vpn, current.with_flags(add=PteFlags.COW, drop=PteFlags.WRITE)
            )
            vrange = VirtRange.from_pages(vpn, 1)
            yield from kernel.coherence.shootdown_sync(
                core, mm, vrange, ShootdownReason.COW
            )
        finally:
            mm.mmap_sem.release()

    def _merge_one(self, core, process: KProcess, vpn: int, old_pfn: int, canonical: int) -> Generator:
        kernel = self.kernel
        mm = process.mm
        yield mm.mmap_sem.acquire()
        try:
            current = mm.page_table.walk(vpn)
            if current is None or not current.present or current.pfn != old_pfn:
                return  # raced with the application
            kernel.frames.get(canonical)
            replaced = {"ok": False}

            def apply_change(mm=mm, vpn=vpn, old_pfn=old_pfn, canonical=canonical) -> None:
                pte = mm.page_table.walk(vpn)
                # The application may have unmapped or CoW-broken the page
                # between posting and the sweep; only swap a still-matching
                # mapping (KSM re-checks under lock the same way).
                if pte is None or not pte.present or pte.pfn != old_pfn:
                    return
                merged = Pte(
                    pfn=canonical,
                    flags=(pte.flags | PteFlags.COW) & ~PteFlags.WRITE,
                )
                mm.page_table.set_pte(vpn, merged)
                replaced["ok"] = True

            vrange = VirtRange.from_pages(vpn, 1)
            done = yield from kernel.coherence.migration_unmap(
                core, mm, vrange, apply_change
            )
        finally:
            mm.mmap_sem.release()
        kernel.sim.spawn(
            self._free_after(done, old_pfn, canonical, replaced), name="ksm-free"
        )
        kernel.stats.counter("ksm.pages_merged").add()

    def _free_after(self, done, old_pfn: int, canonical: int, replaced) -> Generator:
        yield done
        if replaced["ok"]:
            # The duplicate's mapping reference moved to the canonical frame.
            self.kernel.release_frames([old_pfn])
            self.kernel.stats.counter("ksm.frames_freed").add()
        else:
            # Merge aborted: give back the canonical reference we took.
            self.kernel.release_frames([canonical])
