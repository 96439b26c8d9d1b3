"""NUMA-aware physical frame allocator with reference counting.

The reproduction's core invariant -- *a physical page is reused only after
every TLB entry mapping it has been invalidated* (paper section 3) -- is
enforced here: frames carry refcounts and a monotonically increasing
*generation* that bumps on every free. A TLB entry snapshots the generation
at fill time, so invariant checkers can prove that no core ever translates
through a recycled frame.

Bulk releases (a munmap of a large VMA, a LATR reclaim) go through
:meth:`FrameAllocator.free_batch`, which recycles the frames through
per-node slabs; :meth:`FrameAllocator.put` is the one-frame form and the
reference the batched path is tested against.
"""

from __future__ import annotations

from collections import deque
from heapq import merge as _heap_merge
from itertools import count
from typing import Deque, Dict, Iterable, List, Optional, Tuple


class FrameAllocatorError(RuntimeError):
    """Double free, refcount underflow, or out-of-memory."""


class FrameBatch(list):
    """A list of PFNs to free, annotated with its *cost* in release units.

    A 2 MiB compound page carries 512 PFNs but frees like a handful of
    operations, not 512 -- coherence mechanisms charge
    ``free_units * page_free_ns`` instead of ``len(batch)``.
    """

    def __init__(self, pfns=(), free_units: int = None):
        super().__init__(pfns)
        self.free_units = len(self) if free_units is None else free_units

    @staticmethod
    def units_of(pfns) -> int:
        """Cost units for any pfn container (plain lists count 1:1)."""
        return getattr(pfns, "free_units", len(pfns))


class _FreeList:
    """A node's free-PFN queue with deque semantics but O(1) construction.

    Never-yet-allocated frames live as a ``[lo, hi)`` watermark range served
    front-first; recycled (or exclude-rotated) frames go to a deque *behind*
    the range. That is exactly the logical order of the eager
    ``deque(range(base, base + n))`` it replaces -- popleft drains the fresh
    range in ascending order first, appends queue behind it -- without
    materializing half a million integers per node at boot.

    ``remove_run`` (huge-page allocation) can cut a hole in the middle of
    the watermark; the ascending remainders beyond the primary ``[lo, hi)``
    live as extra lazy segments in ``_extra``, drained in order after the
    primary before the tail -- never materialized.
    """

    __slots__ = ("_lo", "_hi", "_extra", "_tail")

    def __init__(self, pfns=(), fresh: Optional[range] = None):
        self._tail: Deque[int] = deque(pfns)
        self._extra: Deque[Tuple[int, int]] = deque()
        if fresh is not None:
            self._lo, self._hi = fresh.start, fresh.stop
        else:
            self._lo = self._hi = 0

    def popleft(self) -> int:
        if self._lo >= self._hi and self._extra:
            self._lo, self._hi = self._extra.popleft()
        if self._lo < self._hi:
            pfn = self._lo
            self._lo += 1
            return pfn
        return self._tail.popleft()

    def append(self, pfn: int) -> None:
        self._tail.append(pfn)

    def extend(self, pfns) -> None:
        """Queue a slab of recycled PFNs behind the watermark in one go --
        identical logical order to appending them one at a time."""
        self._tail.extend(pfns)

    def __len__(self) -> int:
        return (
            (self._hi - self._lo)
            + sum(hi - lo for lo, hi in self._extra)
            + len(self._tail)
        )

    def __iter__(self):
        yield from range(self._lo, self._hi)
        for lo, hi in self._extra:
            yield from range(lo, hi)
        yield from self._tail

    def covers_fresh(self, pfn: int) -> bool:
        """O(segments) membership probe of the lazy ranges only."""
        if self._lo <= pfn < self._hi:
            return True
        return any(lo <= pfn < hi for lo, hi in self._extra)

    def remove_run(self, base: int, end: int) -> None:
        """Drop every free PFN in ``[base, end)``, keeping laziness.

        Watermark segments are cut arithmetically (a middle cut splits one
        segment into two lazy remainders); only tail members inside the run
        cost a rebuild, and only when at least one is actually present.
        The logical drain order -- ascending fresh first, then recycled
        tail -- is exactly what filtering the eager list preserved.
        """
        segments = []
        for lo, hi in [(self._lo, self._hi)] + list(self._extra):
            cut_lo, cut_hi = max(lo, base), min(hi, end)
            if cut_lo >= cut_hi:  # no overlap
                if lo < hi:
                    segments.append((lo, hi))
                continue
            if lo < cut_lo:
                segments.append((lo, cut_lo))
            if cut_hi < hi:
                segments.append((cut_hi, hi))
        if segments:
            self._lo, self._hi = segments[0]
            self._extra = deque(segments[1:])
        else:
            self._lo = self._hi = 0
            self._extra = deque()
        if any(base <= p < end for p in self._tail):
            self._tail = deque(p for p in self._tail if not base <= p < end)

    # ---- snapshot plumbing (see repro.snapshot / verify.mc.executor) ----------

    def state(self) -> Tuple:
        """Exact state without materializing the lazy segments."""
        return (self._lo, self._hi, tuple(self._extra), tuple(self._tail))

    def set_state(self, state: Tuple) -> None:
        lo, hi, extra, tail = state
        self._lo = lo
        self._hi = hi
        self._extra = deque(extra)
        self._tail = deque(tail)


#: Process-global version numbers for allocator change tracking; values
#: are never reused, so equal versions imply identical allocator state
#: (same contract as ``repro.hw.tlb._VERSIONS``).
_VERSIONS = count(1)


class FrameAllocator:
    """Per-node free lists of physical frame numbers (PFNs)."""

    def __init__(self, nodes: int, frames_per_node: int):
        if nodes < 1 or frames_per_node < 1:
            raise ValueError("need at least one node and one frame")
        self.nodes = nodes
        self.frames_per_node = frames_per_node
        self._free: List[_FreeList] = [
            _FreeList(fresh=range(node * frames_per_node, (node + 1) * frames_per_node))
            for node in range(nodes)
        ]
        self._refcount: Dict[int, int] = {}
        self._generation: Dict[int, int] = {}
        self.total_allocs = 0
        self.total_frees = 0
        #: Bumped on any mutation; keys snapshot/restore/canonical skip
        #: paths (never rewound except together with the state).
        self._version = next(_VERSIONS)

    @property
    def total_frames(self) -> int:
        return self.nodes * self.frames_per_node

    def free_count(self, node: Optional[int] = None) -> int:
        if node is None:
            return sum(len(q) for q in self._free)
        return len(self._free[node])

    def allocated_count(self) -> int:
        return len(self._refcount)

    def node_of(self, pfn: int) -> int:
        if not 0 <= pfn < self.nodes * self.frames_per_node:
            raise KeyError(pfn)
        return pfn // self.frames_per_node

    def alloc(self, node: int = 0, exclude: Optional[range] = None) -> int:
        """Allocate one frame, preferring ``node``, falling back round-robin.

        ``exclude`` skips a PFN range -- compaction uses it to evacuate a
        target block without immediately re-filling it.
        """
        self._version = next(_VERSIONS)
        if not 0 <= node < self.nodes:
            raise ValueError(f"bad node {node}")
        for candidate in [node] + [n for n in range(self.nodes) if n != node]:
            queue = self._free[candidate]
            for _ in range(len(queue)):
                pfn = queue.popleft()
                if exclude is not None and pfn in exclude:
                    queue.append(pfn)
                    continue
                self._refcount[pfn] = 1
                self.total_allocs += 1
                return pfn
        raise FrameAllocatorError("out of physical frames")

    def alloc_contiguous(self, count: int, node: int = 0, aligned: bool = True) -> int:
        """Allocate ``count`` physically contiguous frames on ``node``.

        Returns the base PFN (aligned to ``count`` when ``aligned``, the way
        a 2 MiB huge page must be). Raises when no run exists -- which is
        exactly the fragmentation problem compaction solves.
        """
        self._version = next(_VERSIONS)
        if count < 1:
            raise ValueError("count must be positive")
        if not 0 <= node < self.nodes:
            raise ValueError(f"bad node {node}")
        queue = self._free[node]
        # The fresh watermark segments are probed arithmetically; only the
        # (short, recycled-frames-only) tail needs a membership set. The
        # eager ``sorted(...)``/``set(...)`` this replaces materialized the
        # whole lazy range -- defeating O(1) construction on big nodes.
        tail_set = set(queue._tail)
        base_lo = node * self.frames_per_node
        if aligned:
            candidates = range(base_lo, base_lo + self.frames_per_node, count)
        else:
            # Any free PFN can start an unaligned run; scan them in the
            # same ascending order the eager sorted list produced, without
            # building it (lazy merge of the segments and sorted tail).
            candidates = _heap_merge(
                range(queue._lo, queue._hi),
                *(range(lo, hi) for lo, hi in queue._extra),
                sorted(tail_set),
            )
        for base in candidates:
            if all(
                queue.covers_fresh(base + i) or base + i in tail_set
                for i in range(count)
            ):
                for i in range(count):
                    pfn = base + i
                    self._refcount[pfn] = 1
                queue.remove_run(base, base + count)
                self.total_allocs += count
                return base
        raise FrameAllocatorError(
            f"no contiguous run of {count} frames on node {node} (fragmented)"
        )

    def contiguous_run_available(self, count: int, node: int = 0) -> bool:
        """Whether an aligned run of ``count`` free frames exists on node."""
        queue = self._free[node]
        tail_set = set(queue._tail)
        base_lo = node * self.frames_per_node
        return any(
            all(
                queue.covers_fresh(base + i) or base + i in tail_set
                for i in range(count)
            )
            for base in range(base_lo, base_lo + self.frames_per_node, count)
        )

    def get(self, pfn: int) -> None:
        """Take an extra reference (page sharing, lazy lists)."""
        self._version = next(_VERSIONS)
        if pfn not in self._refcount:
            raise FrameAllocatorError(f"get() on free frame {pfn}")
        self._refcount[pfn] += 1

    def put(self, pfn: int) -> bool:
        """Drop a reference; frees the frame at zero. Returns True if freed."""
        self._version = next(_VERSIONS)
        count = self._refcount.get(pfn)
        if count is None:
            raise FrameAllocatorError(f"put() on free frame {pfn} (double free?)")
        if count == 1:
            del self._refcount[pfn]
            self._generation[pfn] = self._generation.get(pfn, 0) + 1
            self._free[pfn // self.frames_per_node].append(pfn)
            self.total_frees += 1
            return True
        self._refcount[pfn] = count - 1
        return False

    def free_batch(self, pfns: Iterable[int]) -> List[int]:
        """Drop one reference per PFN, recycling zero-refcount frames
        through per-node slabs. Returns the PFNs actually freed, in order.

        The batched twin of calling :meth:`put` in a loop: every refcount
        decrement, generation bump, free-list entry and error is identical
        (per-node slab extends preserve each node's append order exactly,
        and a double free part-way through still recycles the frames freed
        before it), but the version counter is minted once per batch -- legal because version *values* are never
        compared across runs, only for change detection -- and the dict
        and list lookups are hoisted out of the loop. A munmap of a large
        VMA releases thousands of frames in one call; at fleet scale this
        is the allocator's hot path.
        """
        self._version = next(_VERSIONS)
        refcount = self._refcount
        generation = self._generation
        fpn = self.frames_per_node
        slabs: Dict[int, List[int]] = {}
        freed: List[int] = []
        try:
            for pfn in pfns:
                count = refcount.get(pfn)
                if count is None:
                    raise FrameAllocatorError(f"put() on free frame {pfn} (double free?)")
                if count == 1:
                    del refcount[pfn]
                    generation[pfn] = generation.get(pfn, 0) + 1
                    node = pfn // fpn
                    slab = slabs.get(node)
                    if slab is None:
                        slab = slabs[node] = []
                    slab.append(pfn)
                    freed.append(pfn)
                else:
                    refcount[pfn] = count - 1
        finally:
            for node, slab in slabs.items():
                self._free[node].extend(slab)
            self.total_frees += len(freed)
        return freed

    def refcount(self, pfn: int) -> int:
        return self._refcount.get(pfn, 0)

    def is_allocated(self, pfn: int) -> bool:
        return pfn in self._refcount

    def generation(self, pfn: int) -> int:
        """Bumped every time the frame is freed; TLB entries snapshot this."""
        return self._generation.get(pfn, 0)
