"""Page-table entry representation and flag algebra."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional


class PteFlags(enum.IntFlag):
    """x86-style PTE software view.

    ``PROTNONE`` models Linux's NUMA-hint encoding: the page stays resident
    but the hardware-present bit is cleared so the next access faults into
    the AutoNUMA path (paper sections 2.1, 4.3).
    ``COW`` marks a write-protected shared anonymous page.
    """

    NONE = 0
    PRESENT = enum.auto()
    WRITE = enum.auto()
    USER = enum.auto()
    ACCESSED = enum.auto()
    DIRTY = enum.auto()
    PROTNONE = enum.auto()
    COW = enum.auto()
    SWAPPED = enum.auto()
    #: PD-level 2 MiB mapping (x86 PS bit); pfn is the base of 512
    #: physically contiguous frames.
    HUGE = enum.auto()


# Plain-int views of the masks: IntFlag.__and__ routes through the enum
# machinery (member lookup per operation), which shows up in page-walk-heavy
# workloads. The flag properties below test bits via int.__and__ instead.
_PRESENT = int(PteFlags.PRESENT)
_WRITE = int(PteFlags.WRITE)
_PROTNONE = int(PteFlags.PROTNONE)
_COW = int(PteFlags.COW)
_SWAPPED = int(PteFlags.SWAPPED)
_HUGE = int(PteFlags.HUGE)


@dataclass(frozen=True)
class Pte:
    """One page-table entry: a PFN (or swap slot) plus flags."""

    pfn: int
    flags: PteFlags
    #: Swap slot index when SWAPPED (pfn is meaningless then).
    swap_slot: Optional[int] = None

    @property
    def present(self) -> bool:
        return bool(int.__and__(self.flags, _PRESENT))

    @property
    def writable(self) -> bool:
        return bool(int.__and__(self.flags, _WRITE))

    @property
    def numa_hint(self) -> bool:
        return bool(int.__and__(self.flags, _PROTNONE))

    @property
    def cow(self) -> bool:
        return bool(int.__and__(self.flags, _COW))

    @property
    def swapped(self) -> bool:
        return bool(int.__and__(self.flags, _SWAPPED))

    @property
    def huge(self) -> bool:
        return bool(int.__and__(self.flags, _HUGE))

    def with_flags(self, add: PteFlags = PteFlags.NONE, drop: PteFlags = PteFlags.NONE) -> "Pte":
        return replace(self, flags=(self.flags | add) & ~drop)

    def make_numa_hint(self) -> "Pte":
        """change_prot_numa: clear PRESENT, set PROTNONE (page stays mapped)."""
        return self.with_flags(add=PteFlags.PROTNONE, drop=PteFlags.PRESENT)

    def clear_numa_hint(self) -> "Pte":
        return self.with_flags(add=PteFlags.PRESENT, drop=PteFlags.PROTNONE)


# The three flag sets a present 4 KiB PTE can carry, built once: every
# fault installs one, and IntFlag ``|``/``&~`` per call goes through the
# enum machinery. A CoW PTE is read-only whatever ``writable`` says.
_PRESENT_RO = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED
_PRESENT_RW = _PRESENT_RO | PteFlags.WRITE
_PRESENT_COW = _PRESENT_RO | PteFlags.COW


def make_present_pte(pfn: int, writable: bool = True, cow: bool = False) -> Pte:
    if cow:
        return Pte(pfn=pfn, flags=_PRESENT_COW)
    return Pte(pfn=pfn, flags=_PRESENT_RW if writable else _PRESENT_RO)


def make_swap_pte(swap_slot: int) -> Pte:
    return Pte(pfn=-1, flags=PteFlags.SWAPPED, swap_slot=swap_slot)


def make_huge_pte(base_pfn: int, writable: bool = True) -> Pte:
    """A 2 MiB PD-level entry; ``base_pfn`` starts 512 contiguous frames."""
    flags = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED | PteFlags.HUGE
    if writable:
        flags |= PteFlags.WRITE
    return Pte(pfn=base_pfn, flags=flags)
