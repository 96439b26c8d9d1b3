"""Runtime invariant checkers for the paper's correctness argument.

These walk the entire simulated machine state and return a list of
violation strings (empty == healthy). Tests and long-running experiments
call them at quiescent points; the property-based suites call them after
every randomized operation batch.

Checked invariants (DESIGN.md section 6):

1. *Reuse-after-invalidate*: every TLB entry's frame is still allocated and
   has the same free-generation it had when the entry was installed -- i.e.
   no core can translate through a frame that was freed (and possibly
   handed to someone else) since.
2. *Refcount accounting*: each allocated frame's refcount equals the number
   of references we can enumerate (PTE mappings, page-cache residency,
   lazy-list pins).
3. *Virtual reuse*: no VMA overlaps a lazily-freed virtual range.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


def check_tlb_frame_safety(kernel: "Kernel") -> List[str]:
    """Invariant 1: no TLB entry points at a freed or recycled frame.

    The monitor runs this at every notification, so each core's entries
    are checked as bare ``(pfn, generation)`` pairs; only a core with a
    failing entry is walked again entry by entry to word its violations."""
    violations: List[str] = []
    frames = kernel.frames
    is_allocated = frames.is_allocated
    generation = frames.generation
    for core in kernel.machine.cores:
        for pfn, gen in core.tlb.frame_refs():
            if not is_allocated(pfn) or generation(pfn) != gen:
                violations += _tlb_frame_violations(core, frames)
                break
    return violations


def _tlb_frame_violations(core, frames) -> List[str]:
    """Every frame-safety violation of one core's TLB, worded."""
    violations = []
    tlb = core.tlb
    for (pcid, vpn), entry in list(tlb.items()) + list(tlb.huge_items()):
        if not frames.is_allocated(entry.pfn):
            violations.append(
                f"core {core.id}: TLB entry vpn={vpn:#x} pcid={pcid} "
                f"maps FREED frame {entry.pfn}"
            )
        elif frames.generation(entry.pfn) != entry.generation:
            violations.append(
                f"core {core.id}: TLB entry vpn={vpn:#x} pcid={pcid} "
                f"maps RECYCLED frame {entry.pfn} "
                f"(gen {entry.generation} -> {frames.generation(entry.pfn)})"
            )
    return violations


def check_frame_refcounts(kernel: "Kernel") -> List[str]:
    """Invariant 2: enumerable references match the allocator's refcounts.

    Transient slack is possible mid-operation (a fault between alloc and
    set_pte), so call this at quiescent points only.
    """
    from ..mm.addr import HUGE_PAGE_PAGES

    expected: Dict[int, int] = defaultdict(int)
    for mm in kernel.mm_registry.values():
        for _vpn, pte in mm.page_table.all_entries():
            if pte.swapped:
                continue
            if pte.huge:
                for offset in range(HUGE_PAGE_PAGES):
                    expected[pte.pfn + offset] += 1
            else:
                expected[pte.pfn] += 1
        for pfn in mm.lazy_frames:
            expected[pfn] += 1
    for pfn in kernel.page_cache._pages.values():
        expected[pfn] += 1

    violations = []
    for pfn, want in expected.items():
        have = kernel.frames.refcount(pfn)
        if have != want:
            violations.append(f"frame {pfn}: refcount {have}, enumerated {want}")
    return violations


def check_lazy_vrange_isolation(kernel: "Kernel") -> List[str]:
    """Invariant 3: lazily-freed virtual ranges are not re-mapped."""
    violations = []
    for mm in kernel.mm_registry.values():
        for lazy in mm.lazy_vranges:
            for vma in mm.vmas.overlapping(lazy):
                violations.append(
                    f"{mm.name}: vma {vma.range} overlaps lazy range {lazy}"
                )
    return violations


def check_replica_coherence(kernel: "Kernel") -> List[str]:
    """numaPTE invariant: every materialized page-table replica mirrors the
    canonical table exactly (same 4 KiB entries, same huge entries).

    Replica fan-out is applied synchronously with the canonical mutation
    (only the *cost* is deferred into pending-update counts), so there is no
    legal slack: this holds at every instant and is continuous-safe.
    """
    violations = []
    for mm in kernel.mm_registry.values():
        pt = mm.page_table
        replicas = getattr(pt, "_replicas", None)
        if not replicas:
            continue
        canonical = dict(pt.all_entries())
        for node, replica in sorted(replicas.items()):
            mirrored = dict(replica.all_entries())
            if mirrored == canonical:
                continue
            missing = canonical.keys() - mirrored.keys()
            extra = mirrored.keys() - canonical.keys()
            stale = [
                vpn for vpn in canonical.keys() & mirrored.keys()
                if canonical[vpn] != mirrored[vpn]
            ]
            detail = []
            if missing:
                detail.append(f"{len(missing)} missing (e.g. {min(missing):#x})")
            if extra:
                detail.append(f"{len(extra)} extra (e.g. {min(extra):#x})")
            if stale:
                detail.append(f"{len(stale)} stale (e.g. {min(stale):#x})")
            violations.append(
                f"{mm.name}: node-{node} replica diverged from canonical "
                f"table: {', '.join(detail)}"
            )
    return violations


def check_ept_coherence(kernel: "Kernel") -> List[str]:
    """Two-level translation invariant: no host (EPT) entry outlives its
    frame. A stale host entry is the virtualized twin of invariant 1 --
    a guest walk would compose through it into a frame that was freed
    (and possibly handed to another VM) since the entry was installed.

    Host entries are demand-populated with the frame's free-generation
    and must be detached the instant the frame actually frees, so this
    holds at every instant and is continuous-safe.
    """
    violations = []
    for mm in kernel.mm_registry.values():
        host = mm.host_table
        if host is None:
            continue
        for pfn, gfn in host.gfn_of_pfn.items():
            if not kernel.frames.is_allocated(pfn):
                violations.append(
                    f"{mm.name}: host (EPT) entry gfn={gfn:#x} maps FREED "
                    f"frame {pfn}"
                )
            elif kernel.frames.generation(pfn) != host.generation_of_gfn.get(gfn):
                violations.append(
                    f"{mm.name}: host (EPT) entry gfn={gfn:#x} maps RECYCLED "
                    f"frame {pfn} (gen {host.generation_of_gfn.get(gfn)} -> "
                    f"{kernel.frames.generation(pfn)})"
                )
    return violations


def check_no_stale_entries_for(kernel: "Kernel", mm, vrange) -> List[str]:
    """Bounded-staleness helper: assert no core still caches a translation
    for ``vrange`` (call after the staleness bound elapsed)."""
    violations = []
    for core in kernel.machine.cores:
        for (pcid, vpn), entry in core.tlb.items():
            if entry.debug_mm_id != mm.mm_id:
                continue
            if vrange.vpn_start <= vpn < vrange.vpn_end:
                violations.append(
                    f"core {core.id}: stale entry for {mm.name} vpn={vpn:#x}"
                )
    return violations


def check_all(kernel: "Kernel") -> List[str]:
    """Run every quiescent-point invariant."""
    return (
        check_tlb_frame_safety(kernel)
        + check_frame_refcounts(kernel)
        + check_lazy_vrange_isolation(kernel)
        + check_replica_coherence(kernel)
        + check_ept_coherence(kernel)
    )
