"""LATR: lazy translation coherence (the paper's contribution).

Free operations (section 4.2): the initiating core clears PTEs (done by the
caller), invalidates its local TLB, writes a LATR state (132 ns, Table 5)
instead of sending IPIs, and parks the freed frames/virtual range on the
mm's lazy lists. Every core sweeps all cores' state queues at each scheduler
tick or context switch (158 ns + per-entry work) and invalidates the ranges
addressed to it. A background reclamation daemon frees the parked memory two
tick intervals after posting, once the bitmask is empty.

Migration operations (section 4.3): the PTE change itself is deferred; the
*first* core that sweeps the state applies it (then invalidates), the rest
only invalidate. The migration (page fault side) is gated until the bitmask
empties (section 4.4).

Queue-full falls back to the synchronous IPI round (section 8).

The sweep hot path
------------------

The *modelled* sweep visits every core's 64-slot queue (that is what the
hardware-free design costs, and the ns cost model charges exactly that), but
simulating it naively makes the simulator's inner loop O(cores^2 x
queue_depth) per simulated millisecond. Like numaPTE's observation that
tracking *where* translations live turns broadcast work into targeted work,
the simulator pushes each state to the cores that must act on it instead of
having every core search for it:

* a global count of active states -- the empty sweep (the common case)
  returns the base cost in O(1), and a non-empty one charges its per-entry
  examination from the count alone;
* a per-core "last swept seq" cursor, set to the newest posted seq by every
  sweep;
* a per-core **inbox**: posting makes the state's global slot id
  (``owner_core << slot_bits | slot``, which sorts into the full scan's
  visit order) pending at each target core, and one **retire table**,
  a list indexed by global slot id, records how many targets have yet to
  sweep it. A narrow state (at most half the machine) is appended to each
  target's inbox list. A wide one goes once into a seq-ordered wide log,
  plus the exclusion set of each core it does not target: a core's share
  of the log is the tail after its cursor, minus its exclusions, so a
  post costs the smaller side of its mask. A sweep drains only what is
  pending at its core, so a (core, state) pair costs the simulator one
  list decrement instead of a test and a clear on a machine-wide int
  bitmask;
* per-owner-socket sorted seq lists of the active states. A sweep pays a
  cross-socket pull for every active remote-socket state posted after its
  cursor -- a bisect per socket. The cursor is what retires the per-state
  pulled bits: a state posted after a core's cursor was never examined by
  that core, so it cannot have been pulled there yet.

A posted state's ``cpu_bitmask`` is never cleared bit by bit: it reads as
its targeted mask restricted to the cores whose cursor is still below its
seq (:meth:`LatrCoherence.live_masks`, one pass per queue), which is exact
because a sweep moves its cursor past every state it drains.

Side effects keep the full scan's order. ``Signal.succeed`` runs waiters
inline, so a ``done`` callback can resume a process in the middle of a
sweep: deferred migration PTE changes and per-page invalidations run over
the drained ids sorted into full-scan order. A full-flush sweep decrements
the retire table over its whole inbox in one pass and sorts only the ids
that reached zero, then deactivates those in full-scan order. The sweep
stays pure stdlib: numpy would cost more to import than the whole set-up
of a small run.

None of this changes a modelled result: every ns cost, counter, latency and
experiment row is bit-for-bit identical to the full scan (gated by the
differential fuzzer, the model checker's toggle replays and
``tests/test_sweep_index.py``). ``use_sweep_index=False`` forces the
original full scan (:meth:`LatrCoherence._sweep_full`), which stays as the
reference those checks compare against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import compress, filterfalse
from typing import Callable, Dict, Generator, List, Optional

from ..mm.addr import PAGE_SHIFT, VirtRange
from ..mm.frames import FrameBatch
from ..mm.mmstruct import MmStruct, cpu_ids, mask_selectors
from ..sim.engine import Signal, Timeout
from .base import MECHANISM_PROPERTIES, ShootdownReason, TLBCoherence
from .states import (
    DEFAULT_QUEUE_DEPTH,
    SOA_ACTIVE,
    SOA_MIGRATION,
    SOA_PTE_APPLIED,
    LatrFlag,
    SoaLatrQueue,
    SoaLatrState,
)

#: Cacheline cost of one state record (68 B spans two 64 B lines).
STATE_LINES = 2


class LatrCoherence(TLBCoherence):
    """The lazy mechanism."""

    name = "latr"
    properties = MECHANISM_PROPERTIES["LATR"]
    #: Under virtualization the host (EPT) invalidation rides the lazy
    #: reclaim like the guest one: a state write on the critical path,
    #: the per-entry upkeep stolen off it (see Kernel.host_invalidation_work).
    host_invalidation = "lazy"

    def __init__(
        self,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        reclaim_delay_ticks: int = 2,
        sweep_on_context_switch: bool = True,
        sweep_on_tick: bool = True,
        use_sweep_index: bool = True,
    ):
        super().__init__()
        self.queue_depth = queue_depth
        self.reclaim_delay_ticks = reclaim_delay_ticks
        self.sweep_on_context_switch = sweep_on_context_switch
        self.sweep_on_tick = sweep_on_tick
        #: True runs the inbox sweep (see the module doc); False forces the
        #: original O(cores x queue_depth) full scan. The equivalence tests
        #: compare both paths.
        self.use_sweep_index = use_sweep_index
        self.queues: Dict[int, SoaLatrQueue] = {}
        #: Extra per-sweep cost for cache-thrashing applications whose state
        #: queue lines never stay resident (workload profiles set this; the
        #: paper's canneal overhead comes from exactly this effect).
        self.cold_sweep_extra_ns = 0
        #: FREE states awaiting reclamation, in posting order.
        self._pending_reclaim: List[SoaLatrState] = []
        #: Active MIGRATION states indexed for the fault-path gate.
        self._migration_states: List[SoaLatrState] = []
        self._reclaimd_started = False
        # --- the active-state index ---
        #: Posted states whose bitmask is non-empty, across all queues.
        self._active_state_count = 0
        #: Highest seq ever posted (cursor watermark for sweeps).
        self._last_posted_seq = 0
        #: core id -> last posted seq observed at that core's previous sweep.
        self._sweep_cursor: Dict[int, int] = {}
        # --- the inbox sweep's index (see the module doc) ---
        #: core id -> global slot ids of the narrow states (targeting at
        #: most half the machine) it still has to sweep.
        self._inboxes: List[List[int]] = []
        #: The active wide states (targeting more than half the machine),
        #: in posting order: their seqs and global slot ids.
        self._wide_seqs: List[int] = []
        self._wide_gids: List[int] = []
        #: core id -> global slot ids of the active wide states it does
        #: not have to sweep (not targeted, or cleared explicitly).
        self._excluded: Dict[int, set] = {}
        #: socket -> sorted seqs of the active states its cores posted.
        self._socket_seqs: List[List[int]] = []
        #: The retire table: global slot id -> targets that have yet to
        #: sweep the state in that slot (0 under the full scan).
        self._remaining: List[int] = []
        #: Global slot ids of posted MIGRATION states whose PTE change is
        #: still deferred (a superset: the queue's flags are authoritative).
        self._unapplied: set = set()

    # ---- wiring ---------------------------------------------------------------

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self.queues = {
            core.id: SoaLatrQueue(core.id, self.queue_depth)
            for core in kernel.machine.cores
        }
        for queue in self.queues.values():
            queue.index = self
        self._active_state_count = 0
        self._last_posted_seq = 0
        self._sweep_cursor = {}
        n_cores = len(self.queues)
        self._queue_list = [self.queues[c] for c in range(n_cores)]
        self._inboxes = [[] for _ in range(n_cores)]
        self._wide_seqs = []
        self._wide_gids = []
        self._excluded = {}
        self._socket_seqs = [[] for _ in range(kernel.machine.spec.sockets)]
        self._unapplied = set()
        #: A global slot id is ``owner_core << _slot_bits | slot``.
        self._slot_bits = (self.queue_depth - 1).bit_length()
        self._slot_mask = (1 << self._slot_bits) - 1
        self._remaining = [0] * (n_cores << self._slot_bits)
        #: Every core's bit (a wide state's exclusions are its complement).
        self._full_mask = (1 << n_cores) - 1
        # The sweep fires on every tick and context switch: resolve its
        # stats objects and timing constants once instead of going through
        # the registry / the machine attribute chain each time.
        stats = self._stats
        self._sweeps_counter = stats.counter("latr.sweeps")
        self._examined_counter = stats.counter("latr.entries_examined")
        self._invalidated_counter = stats.counter("latr.entries_invalidated")
        self._sweep_latency = stats.latency("latr.sweep")
        machine = kernel.machine
        self._sim = kernel.sim
        self._llc = machine.llc
        self._full_flush_threshold = machine.spec.full_flush_threshold
        lat = machine.latency
        self._sweep_base_ns = lat.latr_sweep_base_ns
        self._sweep_per_entry_ns = lat.latr_sweep_per_entry_ns
        self._invlpg_ns = lat.tlb_invlpg_ns
        self._full_flush_ns = lat.tlb_full_flush_ns
        self._record_state_traffic = machine.llc.record_state_traffic
        # Inbox sweep tables: the topology's socket map and, per sweeping
        # socket, (remote socket, pull cost) for every socket a hop away.
        topo = machine.topology
        self._socket_of = topo._socket_of
        self._remote_pull_ns = [
            [(other, lat.latr_state_pull(hops)) for other, hops in enumerate(row) if hops]
            for row in topo._hops
        ]

    def start(self) -> None:
        """Spawn the background reclamation daemon (kernel.start calls this)."""
        if not self._reclaimd_started:
            self._reclaimd_started = True
            # One reusable periodic handle instead of a Timeout per tick.
            self.kernel.sim.every(self._reclaim_period_ns(), self._reclaim_round)

    # ---- the active-state index (queue callbacks) -------------------------------

    def note_posted(self, queue: SoaLatrQueue, state: SoaLatrState) -> None:
        """A queue accepted an active state (called by ``SoaLatrQueue.post``)."""
        self._active_state_count += 1
        if state.seq > self._last_posted_seq:
            self._last_posted_seq = state.seq
        if not self.use_sweep_index:
            return
        idx = state.slot_idx
        gid = queue.core_id << self._slot_bits | idx
        mask = queue._mask_a[idx]
        self._remaining[gid] = mask.bit_count()
        self._fan_out(gid, state.seq, mask)
        insort(self._socket_seqs[self._socket_of[queue.core_id]], state.seq)
        flags = queue._flags_a[idx]
        if flags & SOA_MIGRATION and not flags & SOA_PTE_APPLIED:
            self._unapplied.add(gid)

    def _fan_out(self, gid: int, seq: int, mask: int) -> None:
        """Make the state pending at every core in ``mask``. A narrow state
        goes to each target's inbox. A wide one goes to the wide log once,
        and to the exclusion set of each core it does not target: per
        post, the work is the smaller side of the mask."""
        if 2 * mask.bit_count() <= len(self._inboxes):
            for inbox in compress(self._inboxes, mask_selectors(mask)):
                inbox.append(gid)
            return
        at = bisect_right(self._wide_seqs, seq)
        self._wide_seqs.insert(at, seq)
        self._wide_gids.insert(at, gid)
        for core_id in cpu_ids(self._full_mask ^ mask):
            self._excluded.setdefault(core_id, set()).add(gid)

    def _wide_at(self, seq: int) -> int:
        """Position of ``seq`` in the wide log, or -1 for a narrow state."""
        at = bisect_left(self._wide_seqs, seq)
        if at < len(self._wide_seqs) and self._wide_seqs[at] == seq:
            return at
        return -1

    def _unexclude(self, core_id: int, gid: int) -> None:
        excluded = self._excluded[core_id]
        excluded.discard(gid)
        if not excluded:
            del self._excluded[core_id]

    def note_deactivated(self, queue: SoaLatrQueue, state: SoaLatrState) -> None:
        """A posted state went inactive (via the ``SoaLatrState.active`` setter)."""
        if self._active_state_count > 0:
            self._active_state_count -= 1
        if not self.use_sweep_index:
            return
        idx = state.slot_idx
        gid = queue.core_id << self._slot_bits | idx
        mask = queue._mask_a[idx]
        wide_at = self._wide_at(state.seq)
        if wide_at >= 0:
            del self._wide_seqs[wide_at]
            del self._wide_gids[wide_at]
            for core_id in cpu_ids(self._full_mask ^ mask):
                self._unexclude(core_id, gid)
        if self._remaining[gid]:
            # Retired before every target swept it (a fallback, a mutation,
            # a test): freeze the mask it reads as now and drop the
            # targets' pending inbox entries.
            live = self._pending_mask(mask, state.seq)
            if wide_at < 0:
                for core_id in cpu_ids(live):
                    inbox = self._inboxes[core_id]
                    if gid in inbox:
                        inbox.remove(gid)
            self._remaining[gid] = 0
            queue._mask_a[idx] = live
        else:
            queue._mask_a[idx] = 0
        seqs = self._socket_seqs[self._socket_of[queue.core_id]]
        at = bisect_left(seqs, state.seq)
        if at < len(seqs) and seqs[at] == state.seq:
            del seqs[at]
        self._unapplied.discard(gid)

    # ---- the cpu mask of a posted state --------------------------------------------

    def _pending_mask(self, mask: int, seq: int) -> int:
        """``mask`` restricted to the cores whose cursor is below ``seq``."""
        for core_id, cursor in self._sweep_cursor.items():
            if cursor >= seq:
                mask &= ~(1 << core_id)
        return mask

    def live_masks(self, queue: SoaLatrQueue) -> List[int]:
        """The ``cpu_bitmask`` of every slot of ``queue``, in one pass.

        Under the inbox sweep an active state's stored mask keeps the bits
        of the targets that already swept it; those targets' cursors are at
        or past its seq, so the mask it reads as is the stored one
        restricted to the cores whose cursor is still below its seq. An
        inactive state's stored mask is frozen at deactivation. Every
        reader of a packed mask comes through here (:meth:`live_mask` for
        one slot, the model checker for whole queues), so there is one
        rule to read by."""
        masks = queue._mask_a[:]
        if self.use_sweep_index:
            # The queue's active map holds exactly its active states.
            for state in queue._active_map.values():
                idx = state.slot_idx
                if masks[idx]:
                    masks[idx] = self._pending_mask(masks[idx], state.seq)
        return masks

    def live_mask(self, queue: SoaLatrQueue, idx: int) -> int:
        """The ``cpu_bitmask`` of the state in ``queue``'s slot ``idx``
        (see :meth:`live_masks`)."""
        return self.live_masks(queue)[idx]

    def set_live_mask(self, queue: SoaLatrQueue, idx: int, mask: int) -> None:
        """Write the ``cpu_bitmask`` of ``queue``'s slot ``idx``. A posted
        state under the inbox sweep may only lose cores: a target that
        already swept it cannot be asked to sweep it again."""
        if not self.use_sweep_index or not queue._flags_a[idx] & SOA_ACTIVE:
            queue._mask_a[idx] = mask
            return
        live = self.live_mask(queue, idx)
        if mask & ~live:
            raise ValueError("a posted LATR state's cpu mask can only shrink")
        for core_id in cpu_ids(live & ~mask):
            self._unpost(queue, idx, core_id)

    def _unpost(self, queue: SoaLatrQueue, idx: int, core_id: int) -> None:
        """``core_id`` no longer has to sweep the active state in ``idx``."""
        queue._mask_a[idx] &= ~(1 << core_id)
        gid = queue.core_id << self._slot_bits | idx
        self._remaining[gid] -= 1
        if self._wide_at(queue._seq_a[idx]) >= 0:
            self._excluded.setdefault(core_id, set()).add(gid)
            return
        inbox = self._inboxes[core_id]
        if gid in inbox:
            inbox.remove(gid)

    def clear_cpu(self, queue: SoaLatrQueue, idx: int, core_id: int, now: int) -> bool:
        """:meth:`SoaLatrState.clear_cpu` for ``queue``'s slot ``idx``."""
        live = self.live_mask(queue, idx)
        if live >> core_id & 1:
            live ^= 1 << core_id
            if self.use_sweep_index and queue._flags_a[idx] & SOA_ACTIVE:
                self._unpost(queue, idx, core_id)
            else:
                queue._mask_a[idx] = live
        if live == 0 and queue._flags_a[idx] & SOA_ACTIVE:
            self._complete(queue._slots[idx], now)
            return True
        return False

    def active_state_count(self) -> int:
        """Posted, still-active states across all queues (index invariant:
        equals what a full scan of every queue would count)."""
        return self._active_state_count

    # ---- free operations (4.2) --------------------------------------------------

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
        targets = self._target_set(core, mm)
        if not targets:
            # No remote core can cache these translations; the local TLB is
            # already clean, so immediate reuse is safe (same as Linux's
            # no-IPI path). Still one initiated free-class shootdown, so the
            # counters stay comparable across mechanisms.
            self._stats.counter("shootdown.initiated").add()
            self._stats.rate("shootdowns").hit()
            yield from core.execute(FrameBatch.units_of(pfns) * self._lat.page_free_ns)
            self.kernel.release_frames(pfns)
            if vrange_to_free is not None:
                mm.release_vrange(vrange_to_free)
            self._stats.latency("shootdown.free").record(self.kernel.sim.now - start)
            return

        state = SoaLatrState(
            vrange=vrange,
            mm=mm,
            cpu_bitmask=targets,
            flag=LatrFlag.FREE,
            owner_core=core.id,
            posted_at=self.kernel.sim.now,
            done=Signal(self.kernel.sim),
            pfns=pfns,
            vrange_to_free=vrange_to_free,
        )
        if not self.queues[core.id].post(state):
            # Queue full: fall back to the synchronous IPI mechanism
            # (paper section 8) and complete like Linux would.
            self._stats.counter("latr.fallback_ipi").add()
            self._stats.counter("shootdown.initiated").add()
            self._stats.rate("shootdowns").hit()
            yield from self.ipi_round(
                core, mm, vrange, self._cores_in(targets), ShootdownReason.FALLBACK
            )
            yield from core.execute(FrameBatch.units_of(pfns) * self._lat.page_free_ns)
            self.kernel.release_frames(pfns)
            if vrange_to_free is not None:
                mm.release_vrange(vrange_to_free)
            self._stats.latency("shootdown.free").record(self.kernel.sim.now - start)
            return

        # The lazy path: one state write, then return to the application.
        yield from core.execute(self._lat.latr_state_write_ns)
        if self.kernel.tracer is not None:
            self.kernel.tracer.emit(
                "latr", "state.post", core=core.id,
                detail=f"pages={vrange.n_pages} targets={targets.bit_count()}",
            )
        mm.defer_frames(state.pfns)
        if vrange_to_free is not None:
            mm.defer_vrange(vrange_to_free)
        self._pending_reclaim.append(state)
        self.kernel.machine.llc.record_state_traffic(STATE_LINES)
        self._stats.counter("latr.states_posted").add()
        self._stats.counter("shootdown.initiated").add()
        self._stats.rate("shootdowns").hit()
        self._stats.latency("shootdown.free").record(self.kernel.sim.now - start)
        self._stats.latency("latr.state_write").record(self._lat.latr_state_write_ns)

    # ---- migration operations (4.3) ----------------------------------------------

    def migration_unmap(
        self,
        core,
        mm: MmStruct,
        vrange: VirtRange,
        apply_pte_change: Callable[[], None],
    ) -> Generator:
        targets = self._target_set(core, mm)
        # The initiator participates too: its own TLB is invalidated at its
        # next tick, after the first sweeper applied the PTE change (paper
        # Figure 3b includes both cores in the bitmask).
        bitmask = targets if core.lazy_tlb_mode else targets | 1 << core.id
        state = SoaLatrState(
            vrange=vrange,
            mm=mm,
            cpu_bitmask=bitmask,
            flag=LatrFlag.MIGRATION,
            owner_core=core.id,
            posted_at=self.kernel.sim.now,
            done=Signal(self.kernel.sim),
            apply_pte_change=apply_pte_change,
            # Migration states pin no memory: their queue slot is reusable
            # as soon as every core has invalidated (no reclaim step).
            reclaimed=True,
        )
        if not bitmask:
            # Nothing can cache the translation: apply immediately. Still an
            # initiated migration-class shootdown (counter comparability).
            self._stats.counter("shootdown.initiated").add()
            self._stats.rate("shootdowns").hit()
            apply_pte_change()
            state.pte_applied = True
            state.active = False
            state.done.succeed(state)
            yield from core.execute(0)
            return state.done
        if not self.queues[core.id].post(state):
            # Queue full: synchronous fallback (paper section 8). This is
            # still a shootdown -- record the same counters/rates as every
            # other path so fallback rounds show up in experiments, and
            # complete the state's own ``done`` signal so gating callers
            # (swap finisher, migration gate) observe the completion.
            self._stats.counter("latr.fallback_ipi").add()
            self._stats.counter("shootdown.initiated").add()
            self._stats.rate("shootdowns").hit()
            apply_pte_change()
            state.pte_applied = True
            yield from core.execute(self.local_invalidate(core, mm, vrange))
            yield from self.ipi_round(
                core, mm, vrange, self._cores_in(targets), ShootdownReason.FALLBACK
            )
            state.cpu_bitmask.clear()
            state.completed_at = self.kernel.sim.now
            state.active = False
            state.done.succeed(state)
            self._stats.latency("shootdown.migration").record(
                self.kernel.sim.now - state.posted_at
            )
            return state.done
        yield from core.execute(self._lat.latr_state_write_ns)
        self._migration_states.append(state)
        # Lazily-completed migrations record their latency when the last
        # sweeper empties the bitmask (clear_cpu fires ``done``) -- the lazy
        # path, not just the queue-full fallback above.
        state.done.add_callback(self._record_lazy_migration_latency)
        self.kernel.machine.llc.record_state_traffic(STATE_LINES)
        self._stats.counter("latr.states_posted").add()
        self._stats.counter("latr.migration_states").add()
        self._stats.counter("shootdown.initiated").add()
        self._stats.rate("shootdowns").hit()
        return state.done

    def _record_lazy_migration_latency(self, sig: Signal) -> None:
        state = sig.value
        completed_at = state.completed_at
        if completed_at is None:  # defensive: interrupted signal
            completed_at = self.kernel.sim.now
        self._stats.latency("shootdown.migration").record(
            completed_at - state.posted_at
        )

    def migration_gate(self, mm: MmStruct, vpn: int) -> Optional[Signal]:
        for state in self._migration_states:
            if state.active and state.mm is mm and state.vrange.vpn_start <= vpn < state.vrange.vpn_end:
                return state.done
        return None

    # ---- the sweep (4.1) -----------------------------------------------------------

    def sweep(self, core) -> int:
        """Sweep all cores' queues from ``core``; returns the cost in ns.

        The one entry point of tick and context-switch sweeps alike. Cost
        model is Table 5's 158 ns base (the states are contiguous and
        prefetched) plus per-active-entry examination, a cacheline pull the
        first time this core reads a state written on another socket, and
        the local invalidation work for matching entries. The inbox sweep
        and the full scan charge identical costs; only the simulator's own
        wall-clock differs.
        """
        if self.use_sweep_index:
            return self._sweep_inbox(core)
        return self._sweep_full(core)

    def _sweep_inbox(self, core) -> int:
        """The indexed sweep: charges what :meth:`_sweep_full` charges,
        from the active count, the per-socket seq lists and this core's
        inbox (see the module doc)."""
        cost = self._sweep_base_ns + self.cold_sweep_extra_ns
        examined = self._active_state_count
        if examined == 0:
            self._sweeps_counter.value += 1
            self._sweep_latency.record(cost)
            kernel = self.kernel
            if kernel.invariant_monitor is not None:
                kernel.invariant_monitor.notify("latr.sweep", core=core.id)
            return cost

        cost += examined * self._sweep_per_entry_ns
        core_id = core.id
        cursor = self._sweep_cursor.get(core_id, 0)
        # Every active state posted after the cursor is new to this core:
        # one cacheline pull each from a remote socket.
        pulls = 0
        socket_seqs = self._socket_seqs
        for socket, pull_ns in self._remote_pull_ns[self._socket_of[core_id]]:
            seqs = socket_seqs[socket]
            if seqs and seqs[-1] > cursor:
                n = len(seqs) - bisect_right(seqs, cursor)
                pulls += n
                cost += n * pull_ns
        if pulls:
            self._record_state_traffic(STATE_LINES * pulls)
        self._sweep_cursor[core_id] = self._last_posted_seq
        inbox = self._take_inbox(core_id, cursor)
        if inbox:
            cost = self._drain(core, inbox, cost)

        self._sweeps_counter.value += 1
        kernel = self.kernel
        if inbox:
            if kernel.tracer is not None:
                kernel.tracer.emit(
                    "latr", "sweep", core=core_id,
                    detail=f"states={len(inbox)} pages={self._pages_of(inbox)}",
                )
            self._invalidated_counter.value += len(inbox)
        self._examined_counter.value += examined
        self._sweep_latency.record(cost)
        if kernel.invariant_monitor is not None:
            kernel.invariant_monitor.notify("latr.sweep", core=core_id)
        return cost

    def _take_inbox(self, core_id: int, cursor: int) -> List[int]:
        """The global slot ids of every state posted to ``core_id`` since
        its ``cursor``: its inbox, handed over (a fresh one takes its place,
        so a state posted by a process this sweep resumes belongs to the
        next sweep), plus the wide states after the cursor that do not
        exclude it."""
        inbox = self._inboxes[core_id]
        if inbox:
            self._inboxes[core_id] = []
        wide_seqs = self._wide_seqs
        if not wide_seqs or wide_seqs[-1] <= cursor:
            return inbox
        wide = self._wide_gids[bisect_right(wide_seqs, cursor):]
        excluded = self._excluded.get(core_id)
        if excluded:
            wide = list(filterfalse(excluded.__contains__, wide))
        if not inbox:
            return wide
        inbox += wide
        return inbox

    def _drain(self, core, inbox: List[int], cost: int) -> int:
        """Apply, invalidate and retire the states in ``inbox`` (global
        slot ids, all addressed to ``core``); returns ``cost`` plus the
        work charged here."""
        if self._unapplied and not self._unapplied.isdisjoint(inbox):
            inbox.sort()
            cost += self._apply_deferred_migrations(inbox)
        n = len(inbox)
        threshold = self._full_flush_threshold
        # Every state spans at least one page, so more states than the
        # threshold always means a full flush.
        if n > threshold or self._pages_of(inbox) > threshold:
            core.tlb.flush()
            self._retire_in_order(inbox)
            return cost + self._full_flush_ns + n * 30
        inbox.sort()
        tlb = core.tlb
        invlpg_ns = self._invlpg_ns
        queues = self._queue_list
        bits = self._slot_bits
        slot_mask = self._slot_mask
        remaining = self._remaining
        now = self._sim.now
        for gid in inbox:
            queue = queues[gid >> bits]
            idx = gid & slot_mask
            vpn = queue._vpn_a[idx]
            npages = queue._npages_a[idx]
            tlb.invalidate_range(queue._slots[idx].mm.pcid, vpn, vpn + npages)
            cost += npages * invlpg_ns + 30
            remaining[gid] -= 1
            if not remaining[gid] and queue._flags_a[idx] & SOA_ACTIVE:
                self._complete(queue._slots[idx], now)
        return cost

    def _apply_deferred_migrations(self, inbox: List[int]) -> int:
        """First sweeper applies the deferred PTE changes ("Clear PTE" in
        Figure 3b) of the migrations in ``inbox``, in full-scan order;
        returns the PTE-write cost."""
        cost = 0
        unapplied = self._unapplied
        queues = self._queue_list
        for gid in inbox:
            if gid not in unapplied:
                continue
            unapplied.discard(gid)
            queue = queues[gid >> self._slot_bits]
            idx = gid & self._slot_mask
            flags = queue._flags_a[idx]
            if flags & SOA_MIGRATION and not flags & SOA_PTE_APPLIED:
                queue._flags_a[idx] = flags | SOA_PTE_APPLIED
                queue._slots[idx].apply_pte_change()
                cost += queue._npages_a[idx] * self._lat.pte_set_ns
        return cost

    def _retire_in_order(self, inbox: List[int]) -> None:
        """One sweeper fewer for every state in ``inbox``, in any order:
        one pass over the retire table collects the ids whose count
        reaches zero, and only those are sorted and deactivated, in
        full-scan order (the last sweeper deactivates a state)."""
        remaining = self._remaining
        finished = []
        for gid in inbox:
            left = remaining[gid] - 1
            remaining[gid] = left
            if not left:
                finished.append(gid)
        if not finished:
            return
        finished.sort()
        queues = self._queue_list
        bits = self._slot_bits
        slot_mask = self._slot_mask
        now = self._sim.now
        for gid in finished:
            queue = queues[gid >> bits]
            idx = gid & slot_mask
            if queue._flags_a[idx] & SOA_ACTIVE:
                self._complete(queue._slots[idx], now)

    @staticmethod
    def _complete(state, now: int) -> None:
        """The last sweeper deactivates the state (paper Figure 5 step 3).
        completed_at goes first: the deactivation notification and the done
        callbacks may read it."""
        state.completed_at = now
        state.active = False
        state.done.succeed(state)

    def _pages_of(self, inbox: List[int]) -> int:
        queues = self._queue_list
        bits = self._slot_bits
        slot_mask = self._slot_mask
        return sum(queues[gid >> bits]._npages_a[gid & slot_mask] for gid in inbox)

    def _sweep_full(self, core) -> int:
        """The original scan: every queue, every slot (pre-index baseline)."""
        lat = self._lat
        topo = self.kernel.machine.topology
        cost = lat.latr_sweep_base_ns + self.cold_sweep_extra_ns
        examined = 0
        matching: List[SoaLatrState] = []
        total_pages = 0
        for queue in self.queues.values():
            for state in queue.active_states():
                examined += 1
                cost += lat.latr_sweep_per_entry_ns
                cost += self._pull_cost(core, state, topo)
                if core.id not in state.cpu_bitmask:
                    continue
                cost += self._apply_deferred_migration(state)
                matching.append(state)
                total_pages += state.vrange.n_pages
        return self._finish_sweep(core, matching, total_pages, cost, examined)

    def _pull_cost(self, core, state: SoaLatrState, topo) -> int:
        """Cacheline pull the first time ``core`` reads a remote-socket state."""
        hops = topo.core_hops(core.id, state.owner_core)
        if hops > 0 and core.id not in state.pulled_by:
            state.pulled_by.add(core.id)
            self._llc.record_state_traffic(STATE_LINES)
            return self._lat.latr_state_pull(hops)
        return 0

    def _apply_deferred_migration(self, state: SoaLatrState) -> int:
        """First sweeper applies the deferred PTE change ("Clear PTE" in
        Figure 3b); returns the PTE-write cost."""
        if state.flag is LatrFlag.MIGRATION and not state.pte_applied:
            state.pte_applied = True
            state.apply_pte_change()
            return state.vrange.n_pages * self._lat.pte_set_ns
        return 0

    def _finish_sweep(
        self,
        core,
        matching: List[SoaLatrState],
        total_pages: int,
        cost: int,
        examined: int,
    ) -> int:
        """Pass 2: invalidate. Like Linux's 32-page batching rule, a sweep
        with more work than the threshold does one full flush instead of
        per-page INVLPGs (paper 4.1: "LATR flushes the entire TLB during
        state sweep")."""
        invalidated_states = len(matching)
        if invalidated_states:
            now = self._sim.now
            if total_pages > self._full_flush_threshold:
                core.tlb.flush()
                cost += self._full_flush_ns + invalidated_states * 30
                for state in matching:
                    state.clear_cpu(core.id, now)
            else:
                tlb = core.tlb
                invlpg_ns = self._invlpg_ns
                for state in matching:
                    vrange = state.vrange
                    start, end = vrange.start, vrange.end
                    tlb.invalidate_range(
                        state.mm.pcid, start >> PAGE_SHIFT, end >> PAGE_SHIFT
                    )
                    cost += ((end - start) >> PAGE_SHIFT) * invlpg_ns + 30
                    state.clear_cpu(core.id, now)

        self._sweeps_counter.value += 1
        kernel = self.kernel
        if invalidated_states:
            if kernel.tracer is not None:
                kernel.tracer.emit(
                    "latr", "sweep", core=core.id,
                    detail=f"states={invalidated_states} pages={total_pages}",
                )
            self._invalidated_counter.value += invalidated_states
        if examined:
            self._examined_counter.value += examined
        self._sweep_latency.record(cost)
        if kernel.invariant_monitor is not None:
            kernel.invariant_monitor.notify("latr.sweep", core=core.id)
        return cost

    # ---- scheduler hooks ---------------------------------------------------------

    def on_tick(self, core) -> None:
        if self.sweep_on_tick:
            # steal_time inlined (a bare increment): the per-tick hot path.
            core._pending_interrupt_ns += self.sweep(core)

    def on_context_switch(self, core, old_mm, new_mm) -> None:
        if self.sweep_on_context_switch:
            core.steal_time(self.sweep(core))

    def pending_lazy_operations(self) -> int:
        return len(self._pending_reclaim) + sum(
            1 for s in self._migration_states if s.active
        )

    # ---- reclamation daemon (4.2) ---------------------------------------------------

    def lazy_bytes_outstanding(self) -> int:
        """Physical memory currently parked on lazy lists (section 6.4)."""
        from ..mm.addr import PAGE_SIZE

        return sum(len(s.pfns) for s in self._pending_reclaim) * PAGE_SIZE

    def _reclaim_period_ns(self) -> int:
        """Reclaim-daemon polling period (mutations override this)."""
        return self.kernel.machine.spec.tick_interval_ns

    def _reclaim_round(self) -> None:
        """Periodic reclaim pass: frees lazy memory after two tick intervals.

        Ticks are unsynchronized across cores, so one interval only
        guarantees *some* cores swept; two intervals guarantee every running
        core saw a tick after the post (paper section 3). We additionally
        require the bitmask to be empty, which the tickless/idle rule makes
        equivalent (idle cores were never in the mask).
        """
        tick = self.kernel.machine.spec.tick_interval_ns
        delay = self.reclaim_delay_ticks * tick
        now = self.kernel.sim.now
        still_pending: List[SoaLatrState] = []
        owner_costs: Dict[int, int] = {}
        for state in self._pending_reclaim:
            if state.active or now - state.posted_at < delay:
                still_pending.append(state)
                continue
            self._reclaim_state(state, owner_costs)
        self._pending_reclaim = still_pending
        self._migration_states = [s for s in self._migration_states if s.active]
        for core_id, cost in owner_costs.items():
            self.kernel.machine.core(core_id).steal_time(cost)

    def _reclaim_state(self, state: SoaLatrState, owner_costs: Dict[int, int]) -> None:
        lat = self._lat
        mm = state.mm
        mm.take_lazy_frames(state.pfns)
        self.kernel.release_frames(state.pfns)
        if state.vrange_to_free is not None:
            mm.reclaim_vrange(state.vrange_to_free)
        state.reclaimed = True
        self._stats.counter("latr.states_reclaimed").add()
        if self.kernel.tracer is not None:
            self.kernel.tracer.emit(
                "latr", "reclaim", core=state.owner_core,
                detail=f"frames={len(state.pfns)} age_ns={self.kernel.sim.now - state.posted_at}",
            )
        self._stats.counter("latr.frames_reclaimed").add(len(state.pfns))
        cost = FrameBatch.units_of(state.pfns) * lat.page_free_ns + lat.vma_op_ns
        owner_costs[state.owner_core] = owner_costs.get(state.owner_core, 0) + cost
        if self.kernel.invariant_monitor is not None:
            self.kernel.invariant_monitor.notify("latr.reclaim", core=state.owner_core)
