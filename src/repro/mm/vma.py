"""Virtual memory areas (VMAs) and the per-address-space VMA set."""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional

from .addr import PAGE_SIZE, VirtRange


class VmaKind(enum.Enum):
    ANON = "anon"
    FILE = "file"


class Prot(enum.IntFlag):
    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()

    @classmethod
    def rw(cls) -> "Prot":
        return cls.READ | cls.WRITE

    @classmethod
    def ro(cls) -> "Prot":
        return cls.READ


_vma_ids = itertools.count(1)

#: Plain-int view of ``Prot.WRITE``: ``IntFlag.__and__`` goes through the
#: enum machinery, and every demand fault tests it (as in ``mm.pte``).
_PROT_WRITE = int(Prot.WRITE)


@dataclass
class Vma:
    """One mapping: a range, protection, and backing kind."""

    range: VirtRange
    prot: Prot
    kind: VmaKind = VmaKind.ANON
    #: Identifies the backing object for FILE mappings (page-cache key).
    file_key: Optional[str] = None
    file_offset: int = 0
    #: Prefer 2 MiB mappings on fault (MAP_HUGETLB / THP-eligible).
    huge: bool = False
    vma_id: int = field(default_factory=lambda: next(_vma_ids))

    @property
    def start(self) -> int:
        return self.range.start

    @property
    def end(self) -> int:
        return self.range.end

    @property
    def n_pages(self) -> int:
        return self.range.n_pages

    @property
    def writable(self) -> bool:
        return bool(int.__and__(self.prot, _PROT_WRITE))

    def split_at(self, addr: int) -> "Vma":
        """Shrink self to [start, addr) and return the new [addr, end) VMA."""
        if not (self.start < addr < self.end) or addr % PAGE_SIZE:
            raise ValueError(f"bad split point {addr:#x} for {self.range}")
        tail_offset = self.file_offset + (addr - self.start)
        tail = replace(
            self,
            range=VirtRange(addr, self.end),
            file_offset=tail_offset,
            vma_id=next(_vma_ids),
        )
        self.range = VirtRange(self.start, addr)
        return tail


class VmaSetError(RuntimeError):
    """Overlapping insert or unmap of an unmapped region."""


class VmaSet:
    """Sorted, non-overlapping set of VMAs (Linux's mm->mm_rb analogue)."""

    def __init__(self):
        self._starts: List[int] = []
        self._vmas: List[Vma] = []

    def __len__(self) -> int:
        return len(self._vmas)

    def __iter__(self):
        return iter(list(self._vmas))

    def insert(self, vma: Vma) -> None:
        idx = bisect.bisect_left(self._starts, vma.start)
        if idx > 0 and self._vmas[idx - 1].end > vma.start:
            raise VmaSetError(f"{vma.range} overlaps {self._vmas[idx - 1].range}")
        if idx < len(self._vmas) and self._vmas[idx].start < vma.end:
            raise VmaSetError(f"{vma.range} overlaps {self._vmas[idx].range}")
        self._starts.insert(idx, vma.start)
        self._vmas.insert(idx, vma)

    def find(self, addr: int) -> Optional[Vma]:
        """The VMA containing byte address ``addr``, or None."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx >= 0 and self._vmas[idx].range.contains(addr):
            return self._vmas[idx]
        return None

    def overlapping(self, vrange: VirtRange) -> List[Vma]:
        """All VMAs intersecting ``vrange``, in address order."""
        out = []
        idx = bisect.bisect_right(self._starts, vrange.start) - 1
        if idx < 0:
            idx = 0
        for vma in self._vmas[idx:]:
            if vma.start >= vrange.end:
                break
            if vma.range.overlaps(vrange):
                out.append(vma)
        return out

    def remove_range(self, vrange: VirtRange) -> List[Vma]:
        """Unmap ``vrange``: split boundary VMAs, drop covered ones.

        Returns the removed pieces (exactly covering the intersection of
        ``vrange`` with mapped space). Unmapped gaps inside the range are
        permitted, matching munmap() semantics.
        """
        removed: List[Vma] = []
        for vma in self.overlapping(vrange):
            self._remove_vma(vma)
            if vma.start < vrange.start:
                tail = vma.split_at(vrange.start)
                self.insert(vma)
                vma = tail
            if vma.end > vrange.end:
                tail = vma.split_at(vrange.end)
                self.insert(tail)
            removed.append(vma)
        return removed

    def _remove_vma(self, vma: Vma) -> None:
        idx = bisect.bisect_left(self._starts, vma.start)
        while idx < len(self._vmas) and self._vmas[idx] is not vma:
            idx += 1
        if idx == len(self._vmas):
            raise VmaSetError(f"vma {vma.range} not in set")
        del self._starts[idx]
        del self._vmas[idx]

    def highest_end(self) -> int:
        return self._vmas[-1].end if self._vmas else 0

    def total_pages(self) -> int:
        return sum(v.n_pages for v in self._vmas)
