"""LATR states: the per-core cyclic lock-free queues of shootdown records.

Paper section 4.1: each core owns 64 states of 68 bytes. A state holds the
virtual range, an mm identifier, the CPU bitmask of cores that still need to
invalidate, flags distinguishing free from migration operations, and an
active flag. Cores sweep *all* cores' queues at every scheduler tick or
context switch, invalidate what concerns them, clear their bitmask bit with
an atomic, and the last core deactivates the entry.

The queues use the paper's own layout: 64 packed 68-byte records per core,
i.e. flat parallel arrays rather than one object per state. Hot per-slot
fields live in parallel int lists / a flags bytearray on
:class:`SoaLatrQueue` -- seq, the cpu mask as an int *bitmask*,
active/pte_applied/reclaimed/migration as flag bits, base vpn / page count
/ post timestamp, and the count of target cores still to sweep the state.
A :class:`SoaLatrState` is a ``__slots__`` handle that routes reads and
writes to its slot while posted (``cpu_bitmask`` and ``pulled_by`` are live
set-like views over int masks) and keeps the values when the slot is
recycled.

To keep the simulator's sweep sub-linear (the paper's observation that the
common sweep is the *empty* sweep), every queue maintains an
:attr:`~SoaLatrQueue.active_count` and reports post/deactivation events to
an optional :attr:`~SoaLatrQueue.index` (the owning
:class:`~repro.coherence.latr.LatrCoherence`). Deactivation is caught at the
``active`` attribute itself -- it is a notifying property -- so every path
that retires a state (``clear_cpu``, queue-full fallbacks, the deliberately
broken fuzzer mutations) keeps the counts exact.

While a state is posted under a coherence index, its ``cpu_bitmask`` is
answered by that index: the inbox sweep never clears bits one core at a
time, and the coherence knows which targeted cores have already swept the
state (see :meth:`~repro.coherence.latr.LatrCoherence.live_mask`).
``pulled_by`` is bookkeeping of the full-scan reference sweep only; the
inbox sweep accounts cross-socket pulls without it.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterator, List, Optional

from ..mm.addr import VirtRange
from ..mm.mmstruct import MmStruct
from ..sim.engine import Signal

#: Paper defaults.
DEFAULT_QUEUE_DEPTH = 64
STATE_BYTES = 68

_state_seq = itertools.count(1)


class LatrFlag(enum.Enum):
    """The 'flags' field: why the shootdown happened (paper Figure 4)."""

    FREE = "free"
    MIGRATION = "migration"


# ---------------------------------------------------------------------------
# Struct-of-arrays representation
# ---------------------------------------------------------------------------

#: Flag bits of the packed per-slot flags byte (``SoaLatrQueue._flags_a``).
SOA_ACTIVE = 0x01
SOA_PTE_APPLIED = 0x02
SOA_RECLAIMED = 0x04
SOA_MIGRATION = 0x08


class _MaskView:
    """Live set-of-core-ids view over an int bitmask field of a
    :class:`SoaLatrState` (``kind`` 0 = cpu_bitmask, 1 = pulled_by).

    Reads and writes go through the state so the cpu mask resolves through
    the queue while the state occupies a slot. Iteration yields ascending core
    ids -- the order ``sorted(set)`` would give.
    """

    __slots__ = ("_state", "_kind")

    def __init__(self, state: "SoaLatrState", kind: int):
        self._state = state
        self._kind = kind

    def _get(self) -> int:
        return self._state._mask_get(self._kind)

    def _put(self, mask: int) -> None:
        self._state._mask_put(self._kind, mask)

    def __contains__(self, core_id: int) -> bool:
        return (self._get() >> core_id) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self._get()
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self._get().bit_count()

    def __bool__(self) -> bool:
        return self._get() != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, _MaskView):
            return self._get() == other._get()
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover
        return f"{{{', '.join(map(str, self))}}}"

    def add(self, core_id: int) -> None:
        self._put(self._get() | (1 << core_id))

    def discard(self, core_id: int) -> None:
        self._put(self._get() & ~(1 << core_id))

    def clear(self) -> None:
        self._put(0)

    def update(self, other) -> None:
        mask = self._get()
        for core_id in other:
            mask |= 1 << core_id
        self._put(mask)


def _as_mask(value) -> int:
    """Coerce a core-id collection (or an int bitmask) to an int bitmask."""
    if isinstance(value, int):
        return value
    mask = 0
    for core_id in value:
        mask |= 1 << core_id
    return mask


class SoaLatrState:
    """Thin handle over one slot of a :class:`SoaLatrQueue`.

    Identity and cold fields (vrange, mm, done signal, pfns, the deferred
    PTE callback, the pulled mask) live on the handle; the hot mutable
    fields (the cpu mask, the active/pte_applied/reclaimed/migration flag
    bits) live in the queue's parallel arrays while the state occupies its
    ring slot and are frozen back onto the handle when the slot is
    recycled. ``active`` is a notifying, monotone property: states never
    reactivate, which is what makes the sweep cursors in LatrCoherence
    sound.

    ``done`` fires when the bitmask empties (all cores invalidated); it
    gates migrations (paper 4.4) and the reclamation daemon. ``pfns`` are
    the frames pinned until reclamation (FREE states); ``vrange_to_free``
    is the virtual range returned to the allocator then (munmap only:
    madvise keeps the VMA). ``apply_pte_change`` is a MIGRATION state's
    deferred PTE change, run by the first sweeper. ``pulled_by`` names the
    cores that already pulled the record's cachelines cross-socket.
    """

    __slots__ = (
        "vrange",
        "mm",
        "flag",
        "owner_core",
        "posted_at",
        "done",
        "pfns",
        "vrange_to_free",
        "apply_pte_change",
        "completed_at",
        "seq",
        "slot_idx",
        "queue",
        "_cpu_mask",
        "_pulled_mask",
        "_flags",
        "_attached",
    )

    def __init__(
        self,
        vrange: VirtRange,
        mm: MmStruct,
        cpu_bitmask,
        flag: LatrFlag,
        owner_core: int,
        posted_at: int,
        done: Signal,
        pfns: Optional[List[int]] = None,
        vrange_to_free: Optional[VirtRange] = None,
        apply_pte_change: Optional[Callable[[], None]] = None,
        pte_applied: bool = False,
        pulled_by=0,
        active: bool = True,
        completed_at: Optional[int] = None,
        reclaimed: bool = False,
    ):
        self.vrange = vrange
        self.mm = mm
        self.flag = flag
        self.owner_core = owner_core
        self.posted_at = posted_at
        self.done = done
        self.pfns = [] if pfns is None else pfns
        self.vrange_to_free = vrange_to_free
        self.apply_pte_change = apply_pte_change
        self.completed_at = completed_at
        self.seq = next(_state_seq)
        self.slot_idx = -1
        self.queue = None
        self._cpu_mask = _as_mask(cpu_bitmask)
        self._pulled_mask = _as_mask(pulled_by)
        flags = 0
        if active:
            flags |= SOA_ACTIVE
        if pte_applied:
            flags |= SOA_PTE_APPLIED
        if reclaimed:
            flags |= SOA_RECLAIMED
        if flag is LatrFlag.MIGRATION:
            flags |= SOA_MIGRATION
        self._flags = flags
        self._attached = False

    # ---- slot plumbing -------------------------------------------------------

    def _mask_get(self, kind: int) -> int:
        if kind == 1:
            return self._pulled_mask
        if self._attached:
            queue = self.queue
            if queue.index is not None:
                return queue.index.live_mask(queue, self.slot_idx)
            return queue._mask_a[self.slot_idx]
        return self._cpu_mask

    def _mask_put(self, kind: int, mask: int) -> None:
        if kind == 1:
            self._pulled_mask = mask
        elif self._attached:
            queue = self.queue
            if queue.index is not None:
                queue.index.set_live_mask(queue, self.slot_idx, mask)
            else:
                queue._mask_a[self.slot_idx] = mask
        else:
            self._cpu_mask = mask

    def _flags_get(self) -> int:
        if self._attached:
            return self.queue._flags_a[self.slot_idx]
        return self._flags

    def _flags_put(self, flags: int) -> None:
        if self._attached:
            self.queue._flags_a[self.slot_idx] = flags
        else:
            self._flags = flags

    def _detach(self) -> None:
        """Slot recycled: freeze the array-resident fields onto the handle
        (late readers -- pending lists, snapshots -- keep exact values)."""
        queue = self.queue
        idx = self.slot_idx
        self._cpu_mask = queue._mask_a[idx]
        self._flags = queue._flags_a[idx]
        self._attached = False

    # ---- the state's fields ----------------------------------------------------

    @property
    def cpu_bitmask(self) -> _MaskView:
        return _MaskView(self, 0)

    @cpu_bitmask.setter
    def cpu_bitmask(self, value) -> None:
        self._mask_put(0, _as_mask(value))

    @property
    def pulled_by(self) -> _MaskView:
        return _MaskView(self, 1)

    @pulled_by.setter
    def pulled_by(self, value) -> None:
        self._mask_put(1, _as_mask(value))

    @property
    def active(self) -> bool:
        return self._flags_get() & SOA_ACTIVE != 0

    @active.setter
    def active(self, value: bool) -> None:
        flags = self._flags_get()
        prev = flags & SOA_ACTIVE != 0
        if value:
            self._flags_put(flags | SOA_ACTIVE)
        else:
            self._flags_put(flags & ~SOA_ACTIVE)
        if prev and not value and self.queue is not None:
            self.queue.note_deactivated(self)

    @property
    def pte_applied(self) -> bool:
        return self._flags_get() & SOA_PTE_APPLIED != 0

    @pte_applied.setter
    def pte_applied(self, value: bool) -> None:
        flags = self._flags_get()
        if value:
            self._flags_put(flags | SOA_PTE_APPLIED)
        else:
            self._flags_put(flags & ~SOA_PTE_APPLIED)

    @property
    def reclaimed(self) -> bool:
        return self._flags_get() & SOA_RECLAIMED != 0

    @reclaimed.setter
    def reclaimed(self, value: bool) -> None:
        flags = self._flags_get()
        if value:
            self._flags_put(flags | SOA_RECLAIMED)
        else:
            self._flags_put(flags & ~SOA_RECLAIMED)

    def clear_cpu(self, core_id: int, now: int) -> bool:
        """Remove ``core_id`` from the bitmask; returns True when this was
        the last core (the state deactivates, paper Figure 5 step 3)."""
        if self._attached:
            queue = self.queue
            idx = self.slot_idx
            if queue.index is not None:
                return queue.index.clear_cpu(queue, idx, core_id, now)
            mask = queue._mask_a[idx] & ~(1 << core_id)
            queue._mask_a[idx] = mask
            if mask == 0 and queue._flags_a[idx] & SOA_ACTIVE:
                self.completed_at = now
                self.active = False
                self.done.succeed(self)
                return True
            return False
        mask = self._cpu_mask & ~(1 << core_id)
        self._cpu_mask = mask
        if mask == 0 and self._flags & SOA_ACTIVE:
            self.completed_at = now
            self.active = False
            self.done.succeed(self)
            return True
        return False


class SoaLatrQueue:
    """Struct-of-arrays per-core cyclic LATR queue.

    'Lock-free' in the paper means entries are claimed and cleared with
    atomics; in the simulator the discrete-event loop serializes accesses,
    so the queue is a plain ring with an explicit full condition: the slot
    at the write cursor still being active (or not yet reclaimed) means the
    queue is full and the poster must fall back to IPIs (paper sections
    4.2, 8).

    The per-slot hot fields are parallel arrays indexed by slot:
    ``_seq_a`` (posting sequence, 0 = never used), ``_mask_a`` (int core
    bitmask), ``_flags_a`` (a bytearray of SOA_* bits),
    ``_vpn_a``/``_npages_a`` (the virtual range), ``_posted_a`` (post
    timestamps) and ``_remaining_a`` (target cores that still have to sweep
    the state; maintained by the coherence index's inbox sweep, 0
    otherwise). ``_slots`` keeps the state handles for the observers
    (snapshots, the model checker, mutations). ``index`` (when set) owns the cpu
    mask of an attached state: reads, writes and ``clear_cpu`` go through
    its ``live_mask`` / ``set_live_mask`` / ``clear_cpu``.
    """

    def __init__(self, core_id: int, depth: int = DEFAULT_QUEUE_DEPTH):
        if depth < 1:
            raise ValueError("queue depth must be positive")
        self.core_id = core_id
        self.depth = depth
        self._slots: List[Optional[SoaLatrState]] = [None] * depth
        self._seq_a: List[int] = [0] * depth
        self._mask_a: List[int] = [0] * depth
        self._flags_a = bytearray(depth)
        self._vpn_a: List[int] = [0] * depth
        self._npages_a: List[int] = [0] * depth
        self._posted_a: List[int] = [0] * depth
        self._remaining_a: List[int] = [0] * depth
        self._cursor = 0
        self.posts = 0
        self.full_rejections = 0
        self.active_count = 0
        self._active_map: dict = {}
        self.index = None

    def post(self, state: SoaLatrState) -> bool:
        """Install a state; False when the queue is full.

        A slot is reusable once its state is inactive *and* reclaimed (for
        FREE states the record must survive until the reclamation daemon has
        freed the pages it references).
        """
        idx = self._cursor
        flags_a = self._flags_a
        old = self._slots[idx]
        if old is not None:
            old_flags = flags_a[idx]
            if old_flags & SOA_ACTIVE or not old_flags & SOA_RECLAIMED:
                self.full_rejections += 1
                return False
            old._detach()
        self._slots[idx] = state
        self._seq_a[idx] = state.seq
        self._mask_a[idx] = state._cpu_mask
        flags_a[idx] = state._flags
        vrange = state.vrange
        self._vpn_a[idx] = vrange.vpn_start
        self._npages_a[idx] = vrange.n_pages
        self._posted_a[idx] = state.posted_at
        state.slot_idx = idx
        state.queue = self
        state._attached = True
        self._cursor = (idx + 1) % self.depth
        self.posts += 1
        if flags_a[idx] & SOA_ACTIVE:
            self.active_count += 1
            self._active_map[state.seq] = state
            if self.index is not None:
                self.index.note_posted(self, state)
        return True

    def note_deactivated(self, state: SoaLatrState) -> None:
        if self.active_count > 0:
            self.active_count -= 1
        self._active_map.pop(state.seq, None)
        if self.index is not None:
            self.index.note_deactivated(self, state)

    def active_states(self) -> Iterator[SoaLatrState]:
        flags_a = self._flags_a
        for idx, state in enumerate(self._slots):
            if state is not None and flags_a[idx] & SOA_ACTIVE:
                yield state

    def all_states(self) -> Iterator[SoaLatrState]:
        for state in self._slots:
            if state is not None:
                yield state

    def occupancy(self) -> int:
        flags_a = self._flags_a
        return sum(
            1
            for idx, s in enumerate(self._slots)
            if s is not None
            and (flags_a[idx] & SOA_ACTIVE or not flags_a[idx] & SOA_RECLAIMED)
        )

    def footprint_bytes(self) -> int:
        return self.depth * STATE_BYTES
