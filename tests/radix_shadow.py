"""Reference models for the page-table tests (importable as
`radix_shadow`).

:class:`RadixShadow` is the four-level radix tree that the flat
``vpn -> Pte`` store in :mod:`repro.mm.pagetable` replaced: nine vpn bits
pick the slot at each level, interior nodes are created on demand and
pruned when a clear empties them. Its node count and its lifetime page
count are what the flat store's live table-page counts must reproduce.
It holds 4 KiB entries only; huge mappings never allocated a table page.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mm.addr import VirtRange, huge_base_vpn
from repro.mm.pte import Pte

BITS_PER_LEVEL = 9
SLOTS_PER_LEVEL = 1 << BITS_PER_LEVEL


def indices(vpn: int) -> Tuple[int, int, int, int]:
    """Split a vpn into (pml4, pdpt, pd, pt) slot indices."""
    pt = vpn & (SLOTS_PER_LEVEL - 1)
    pd = (vpn >> BITS_PER_LEVEL) & (SLOTS_PER_LEVEL - 1)
    pdpt = (vpn >> (2 * BITS_PER_LEVEL)) & (SLOTS_PER_LEVEL - 1)
    pml4 = (vpn >> (3 * BITS_PER_LEVEL)) & (SLOTS_PER_LEVEL - 1)
    return pml4, pdpt, pd, pt


class RadixShadow:
    """A four-level dict-of-dicts page table of 4 KiB entries."""

    def __init__(self):
        self.root: Dict[int, Dict] = {}
        self.count = 0
        #: Lifetime table pages: the root plus every node ever created.
        self.table_pages_allocated = 1

    def walk(self, vpn: int) -> Optional[Pte]:
        node = self.root
        pml4, pdpt, pd, pt = indices(vpn)
        for idx in (pml4, pdpt, pd):
            node = node.get(idx)
            if node is None:
                return None
        return node.get(pt)

    def set(self, vpn: int, pte: Pte) -> Optional[Pte]:
        node = self.root
        pml4, pdpt, pd, pt = indices(vpn)
        for idx in (pml4, pdpt, pd):
            nxt = node.get(idx)
            if nxt is None:
                nxt = node[idx] = {}
                self.table_pages_allocated += 1
            node = nxt
        prev = node.get(pt)
        node[pt] = pte
        if prev is None:
            self.count += 1
        return prev

    def clear(self, vpn: int) -> Optional[Pte]:
        pml4, pdpt, pd, pt = indices(vpn)
        path = []
        node = self.root
        for idx in (pml4, pdpt, pd):
            nxt = node.get(idx)
            if nxt is None:
                return None
            path.append((node, idx))
            node = nxt
        prev = node.pop(pt, None)
        if prev is None:
            return None
        self.count -= 1
        for parent, idx in reversed(path):
            if parent[idx]:
                break
            del parent[idx]
        return prev

    def update(self, vpn: int, pte: Pte) -> None:
        node = self.root
        pml4, pdpt, pd, pt = indices(vpn)
        for idx in (pml4, pdpt, pd):
            node = node.get(idx)
            if node is None:
                raise KeyError(f"update of unmapped vpn {vpn:#x}")
        if pt not in node:
            raise KeyError(f"update of unmapped vpn {vpn:#x}")
        node[pt] = pte

    def node_count(self) -> int:
        """Live table pages: the root, its PDPT nodes, their PD nodes and
        the PD nodes' PT nodes."""
        pd_nodes = [pd for pdpt in self.root.values() for pd in pdpt.values()]
        return 1 + len(self.root) + len(pd_nodes) + sum(map(len, pd_nodes))

    def entries_in_range(self, start: int, end: int) -> List[Tuple[int, Pte]]:
        """The entries with vpn in [start, end), in the order the radix
        descent gave: ascending vpn."""
        return [
            (vpn, pte) for vpn, pte in self.all_entries() if start <= vpn < end
        ]

    def all_entries(self) -> List[Tuple[int, Pte]]:
        out = []
        for pml4_idx, pdpt_node in sorted(self.root.items()):
            for pdpt_idx, pd_node in sorted(pdpt_node.items()):
                for pd_idx, pt_node in sorted(pd_node.items()):
                    for pt_idx, pte in sorted(pt_node.items()):
                        vpn = (
                            (pml4_idx << (3 * BITS_PER_LEVEL))
                            | (pdpt_idx << (2 * BITS_PER_LEVEL))
                            | (pd_idx << BITS_PER_LEVEL)
                            | pt_idx
                        )
                        out.append((vpn, pte))
        return out


def probe_entries(pt, vrange: VirtRange) -> List[Tuple[int, Pte]]:
    """The O(range) per-vpn probe that ``PageTable.entries_in_range`` must
    match pair for pair: ascending by vpn, a huge mapping yielded once, at
    its base, where the probe first meets it."""
    out = []
    seen_huge = set()
    for vpn in vrange.vpns():
        base = huge_base_vpn(vpn)
        huge = pt._huge.get(base)
        if huge is not None:
            if base not in seen_huge:
                seen_huge.add(base)
                out.append((base, huge))
            continue
        pte = pt.walk(vpn)
        if pte is not None:
            out.append((vpn, pte))
    return out
