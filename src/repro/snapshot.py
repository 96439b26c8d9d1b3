"""System snapshot/fork: structured copy-on-write capture of a booted kernel.

:func:`snapshot_kernel` captures every piece of mutable simulation state --
the engine's event queues (via :meth:`Simulator.fork`), RNG streams, stats,
per-core TLBs, page tables, VMAs, the frame allocator, and per-mechanism
coherence state -- as *structured copies*: containers are copied, while
immutable leaves (``Pte``, packed TLB slots, ``VirtRange``, LATR states'
frozen identity) are shared between the live world and the snapshot.
:func:`restore_kernel` writes the captured values back **into the same
objects**, preserving identity everywhere: bound-method callbacks, daemon
re-arm chains, cached stat objects and cross-references (a ``Task`` pointing
at its ``MmStruct``, a LATR state at its queue) all stay valid. No
``deepcopy`` is involved, and no generator ever enters a snapshot -- the
engine refuses to fork while any pending event is a live generator
continuation, so snapshots are only legal at quiescent points (op
boundaries, freshly booted systems, a drained model-checker step).

Restore invariants:

* every object reachable from the kernel at snapshot time still exists and
  is restored in place (identity-preserving);
* objects created *after* the snapshot become unreachable orphans -- their
  queue/registry slots are rewound, and their mutable hooks are detached
  where needed so a late callback cannot corrupt restored bookkeeping;
* process-global monotonic counters (mm ids, LATR state seqs, tids) are
  deliberately left monotonic: all consumers only compare them, and the
  model checker's canonical state rank-normalizes them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from .coherence.latr import LatrCoherence
from .mm.pagetable import PageTable, ReplicatedPageTable
from .sim.engine import Signal, SimulationError, live_continuation


class SnapshotError(SimulationError):
    """The system is not at a snapshottable quiescent point."""


#: Global escape hatch (CLI ``--no-snapshots``): when False, every warm-boot
#: pool boots cold and the model checker backtracks by replay. Snapshots and
#: replay are bit-identical by construction; the flag exists so any suspected
#: snapshot bug can be ruled out in one run, same pattern as the TLB index.
_SNAPSHOTS_ENABLED = True


def set_snapshots_enabled(enabled: bool) -> None:
    global _SNAPSHOTS_ENABLED
    _SNAPSHOTS_ENABLED = bool(enabled)


def snapshots_enabled() -> bool:
    return _SNAPSHOTS_ENABLED


class SystemSnapshot:
    """Opaque world state captured by :func:`snapshot_kernel`."""

    __slots__ = (
        "engine", "stats", "rng", "cores", "llc", "frames", "page_cache",
        "page_contents", "mms", "processes", "task_fields", "scheduler",
        "coherence", "autonuma", "swap", "monitor", "kernel_started",
        "ept_rmap",
    )

    def __init__(self, **fields: Any):
        for name in self.__slots__:
            setattr(self, name, fields[name])


# ---- helpers ------------------------------------------------------------------


def _check_lock_quiescent(lock) -> None:
    if lock._held or lock._waiters:
        raise SnapshotError(f"lock {lock.name!r} busy at snapshot point")


def _signal_snapshot(sig: Signal) -> Tuple[Signal, bool, Any, List]:
    return (sig, sig.triggered, sig.value, list(sig._callbacks))


def _signal_restore(snap: Tuple[Signal, bool, Any, List]) -> None:
    sig, triggered, value, callbacks = snap
    sig.triggered = triggered
    sig.value = value
    sig._callbacks = list(callbacks)


def _copy_pt_root(root: Dict) -> Dict:
    # Four levels of dicts with frozen Pte leaves: copy the spine, share
    # the leaves.
    return {
        pml4: {
            pdpt: {pd: dict(pt) for pd, pt in l3.items()}
            for pdpt, l3 in l2.items()
        }
        for pml4, l2 in root.items()
    }


def _tlb_snapshot(tlb) -> Tuple:
    # Slots and keys are ints, so only the containers -- the LRU order
    # of the two entry dicts and the pcid index -- are copied.
    # The leading version pair keys the skip paths: versions are globally
    # unique per state (see ``repro.hw.tlb._VERSIONS``), so an unchanged
    # version means the previous snapshot tuple is still exact, and a
    # restore to the version the TLB is already at can be a no-op. Both
    # matter on the model checker's backtracking hot path.
    cached = getattr(tlb, "_snap_cache", None)
    if cached is not None and cached[0] == tlb._state_version:
        return cached
    snap = (
        tlb._state_version, tlb._entries_version,
        list(tlb._entries.items()),
        list(tlb._huge_entries.items()),
        {pcid: set(vpns) for pcid, vpns in tlb._index.items()},
        {pcid: set(vpns) for pcid, vpns in tlb._huge_index.items()},
        tlb.hits, tlb.misses, tlb.invalidations, tlb.full_flushes,
        tlb.evictions,
    )
    tlb._snap_cache = snap
    return snap


def _tlb_restore(tlb, snap: Tuple) -> None:
    if tlb._state_version == snap[0]:
        return  # nothing touched this TLB since the snapshot was taken
    (state_version, entries_version, entries, huge, index, huge_index,
     tlb.hits, tlb.misses, tlb.invalidations, tlb.full_flushes,
     tlb.evictions) = snap
    tlb._entries = dict(entries)
    tlb._huge_entries = dict(huge)
    tlb._index = {pcid: set(vpns) for pcid, vpns in index.items()}
    tlb._huge_index = {pcid: set(vpns) for pcid, vpns in huge_index.items()}
    # The content now *is* the snapshot's, so rewind the versions with it
    # (safe: these version numbers were minted for exactly this content).
    tlb._state_version = state_version
    tlb._entries_version = entries_version
    tlb._snap_cache = snap


def _mm_snapshot(mm) -> Tuple:
    _check_lock_quiescent(mm.mmap_sem)
    pt = mm.page_table
    # Version-keyed (see _tlb_snapshot): unchanged page table -> reuse the
    # previous deep copy, the dominant cost of an mm snapshot.
    pt_snap = getattr(pt, "_snap_cache", None)
    if pt_snap is None or pt_snap[0] != pt._version:
        # Replica slot (numaPTE): per-node replica contents plus the
        # facade's pending-update and lifetime counters. The facade's
        # version covers all of it -- every replica mutation,
        # materialization, and pending-count drain bumps it.
        replicas = None
        if isinstance(pt, ReplicatedPageTable):
            replicas = (
                {
                    node: (r._version, _copy_pt_root(r._root), r._count,
                           dict(r._huge), r.table_pages_allocated)
                    for node, r in pt._replicas.items()
                },
                dict(pt._pending_updates),
                pt.replica_updates,
                pt.replica_materializations,
            )
        pt_snap = pt._snap_cache = (
            pt._version, _copy_pt_root(pt._root), pt._count, dict(pt._huge),
            pt.table_pages_allocated, replicas,
        )
    # Host (EPT) slot for VM tasks: None for native mms, so flat
    # snapshots are shaped exactly as before with one trailing None.
    host = mm.host_table
    host_snap = None
    if host is not None:
        host_snap = getattr(host, "_snap_cache", None)
        if host_snap is None or host_snap[0] != host._version:
            host_snap = host._snap_cache = (
                host._version, _copy_pt_root(host._root), host._count,
                dict(host._huge), host.table_pages_allocated,
                dict(host.gfn_of_pfn), host.next_gfn,
                dict(host.generation_of_gfn),
            )
    vmas = list(mm.vmas._vmas)
    return (
        pt_snap,
        (list(mm.vmas._starts), vmas,
         [(v, v.range, v.prot, v.kind, v.file_key, v.file_offset, v.huge)
          for v in vmas]),
        (mm.mmap_sem.acquisitions, mm.mmap_sem.contended_acquisitions),
        set(mm.cpumask), mm.users, mm._bump, list(mm._free_ranges),
        list(mm.lazy_vranges), list(mm.lazy_frames), mm.map_generation,
        host_snap,
    )


def _mm_restore(mm, snap: Tuple) -> None:
    (pt_snap, vma_snap, sem_counts, cpumask, users, bump, free_ranges,
     lazy_vranges, lazy_frames, map_generation, host_snap) = snap
    pt = mm.page_table
    version, root, count, huge, table_pages, replicas = pt_snap
    if pt._version != version:
        pt._root = _copy_pt_root(root)
        pt._count = count
        pt._huge = dict(huge)
        pt.table_pages_allocated = table_pages
        if replicas is not None:
            repl_snaps, pending, updates, materializations = replicas
            live = {}
            for node, r_snap in repl_snaps.items():
                r_version, r_root, r_count, r_huge, r_pages = r_snap
                replica = pt._replicas.get(node)
                if replica is None:
                    # Dropped by an earlier restore; rebuild it in place.
                    replica = PageTable()
                elif replica._version == r_version:
                    live[node] = replica
                    continue
                replica._root = _copy_pt_root(r_root)
                replica._count = r_count
                replica._huge = dict(r_huge)
                replica.table_pages_allocated = r_pages
                replica._version = r_version
                live[node] = replica
            # Replicas materialized after the snapshot are dropped.
            pt._replicas = live
            pt._pending_updates = dict(pending)
            pt.replica_updates = updates
            pt.replica_materializations = materializations
        pt._version = version
        pt._snap_cache = pt_snap
    # pt.observer is wiring, not state: leave it attached.
    starts, vmas, vma_fields = vma_snap
    mm.vmas._starts = list(starts)
    mm.vmas._vmas = list(vmas)
    for vma, vrange, prot, kind, file_key, file_offset, huge_flag in vma_fields:
        vma.range = vrange
        vma.prot = prot
        vma.kind = kind
        vma.file_key = file_key
        vma.file_offset = file_offset
        vma.huge = huge_flag
    mm.mmap_sem._held = False
    mm.mmap_sem._waiters.clear()
    mm.mmap_sem.acquisitions, mm.mmap_sem.contended_acquisitions = sem_counts
    mm.cpumask = set(cpumask)
    mm.users = users
    mm._bump = bump
    mm._free_ranges = list(free_ranges)
    mm.lazy_vranges = list(lazy_vranges)
    mm.lazy_frames = list(lazy_frames)
    mm.map_generation = map_generation
    host = mm.host_table
    if host_snap is not None and host is not None:
        (h_version, h_root, h_count, h_huge, h_pages,
         gfn_of_pfn, next_gfn, generation_of_gfn) = host_snap
        if host._version != h_version:
            host._root = _copy_pt_root(h_root)
            host._count = h_count
            host._huge = dict(h_huge)
            host.table_pages_allocated = h_pages
            host.gfn_of_pfn = dict(gfn_of_pfn)
            host.next_gfn = next_gfn
            host.generation_of_gfn = dict(generation_of_gfn)
            host._version = h_version
            host._snap_cache = host_snap


def _frames_snapshot(frames) -> Tuple:
    # Version-keyed like ``_tlb_snapshot``: unchanged allocator -> reuse the
    # previous snapshot tuple; restore to the version already live -> no-op.
    cached = getattr(frames, "_snap_cache", None)
    if cached is not None and cached[0] == frames._version:
        return cached
    snap = (
        frames._version,
        [fl.state() for fl in frames._free],
        dict(frames._refcount),
        dict(frames._generation),
        frames.total_allocs,
        frames.total_frees,
    )
    frames._snap_cache = snap
    return snap


def _frames_restore(frames, snap: Tuple) -> None:
    if frames._version == snap[0]:
        return
    version, free, refcount, generation, allocs, frees = snap
    for fl, fl_state in zip(frames._free, free):
        fl.set_state(fl_state)
    frames._refcount = dict(refcount)
    frames._generation = dict(generation)
    frames.total_allocs = allocs
    frames.total_frees = frees
    frames._version = version
    frames._snap_cache = snap


# ---- coherence mechanisms ------------------------------------------------------


def _latr_snapshot(coh: LatrCoherence) -> Tuple:
    # Every state reachable from a queue slot or a pending list gets its
    # mutable fields recorded (deduplicated by identity).
    states: Dict[int, Any] = {}
    for queue in coh.queues.values():
        for state in queue.all_states():
            states[id(state)] = state
    for state in coh._pending_reclaim:
        states[id(state)] = state
    for state in coh._migration_states:
        states[id(state)] = state
    # The handle's own mask/flag words plus the attachment itself (while
    # attached, the authoritative words live in the queue arrays, restored
    # wholesale below); restoring them as direct field writes keeps the
    # notifying ``active`` property from firing on a rewind.
    state_snaps = [
        (s, s._cpu_mask, s._pulled_mask, s._flags, s.completed_at,
         s.slot_idx, s.queue, s._attached, _signal_snapshot(s.done))
        for s in states.values()
    ]
    # The parallel arrays travel wholesale; bytes() freezes the flags
    # bytearray so later mutation can't alias the snapshot.
    queue_snaps = {
        core_id: (
            list(q._slots), q._cursor, q.posts, q.full_rejections,
            q.active_count, dict(q._active_map),
            list(q._seq_a), list(q._mask_a), bytes(q._flags_a),
            list(q._vpn_a), list(q._npages_a), list(q._posted_a),
            list(q._remaining_a),
        )
        for core_id, q in coh.queues.items()
    }
    return (
        state_snaps, queue_snaps,
        list(coh._pending_reclaim), list(coh._migration_states),
        coh._reclaimd_started, coh._active_state_count,
        coh._last_posted_seq, dict(coh._sweep_cursor),
        [list(inbox) for inbox in coh._inboxes],
        list(coh._wide_seqs), list(coh._wide_gids),
        {core_id: set(gids) for core_id, gids in coh._excluded.items()},
        [list(seqs) for seqs in coh._socket_seqs],
        set(coh._unapplied),
        coh.cold_sweep_extra_ns,
    )


def _latr_restore(coh: LatrCoherence, snap: Tuple) -> None:
    (state_snaps, queue_snaps, pending_reclaim, migration_states,
     reclaimd_started, active_count, last_posted_seq, sweep_cursor,
     inboxes, wide_seqs, wide_gids, excluded, socket_seqs, unapplied,
     cold_extra) = snap
    for (state, cpu_mask, pulled_mask, flags, completed_at, slot_idx, queue,
         attached, done_snap) in state_snaps:
        # Direct slot writes: while attached the authoritative words live in
        # the queue arrays (restored wholesale below); the handle copies
        # only matter for detached states.
        state._cpu_mask = cpu_mask
        state._pulled_mask = pulled_mask
        state._flags = flags
        state.completed_at = completed_at
        state.slot_idx = slot_idx
        state.queue = queue
        state._attached = attached
        _signal_restore(done_snap)
    for core_id, (slots, cursor, posts, rejections, active_n, active_map,
                  seq_a, mask_a, flags_b, vpn_a, npages_a, posted_a,
                  remaining_a) in queue_snaps.items():
        q = coh.queues[core_id]
        q._slots = list(slots)
        q._cursor = cursor
        q.posts = posts
        q.full_rejections = rejections
        q.active_count = active_n
        q._active_map = dict(active_map)
        q._seq_a = list(seq_a)
        q._mask_a = list(mask_a)
        q._flags_a = bytearray(flags_b)
        q._vpn_a = list(vpn_a)
        q._npages_a = list(npages_a)
        q._posted_a = list(posted_a)
        q._remaining_a = list(remaining_a)
    coh._pending_reclaim = list(pending_reclaim)
    coh._migration_states = list(migration_states)
    coh._reclaimd_started = reclaimd_started
    coh._active_state_count = active_count
    coh._last_posted_seq = last_posted_seq
    coh._sweep_cursor = dict(sweep_cursor)
    coh._inboxes = [list(inbox) for inbox in inboxes]
    coh._wide_seqs = list(wide_seqs)
    coh._wide_gids = list(wide_gids)
    coh._excluded = {core_id: set(gids) for core_id, gids in excluded.items()}
    coh._socket_seqs = [list(seqs) for seqs in socket_seqs]
    coh._unapplied = set(unapplied)
    coh.cold_sweep_extra_ns = cold_extra


def _coherence_snapshot(coh) -> Tuple[str, Any]:
    if isinstance(coh, LatrCoherence):
        return ("latr", _latr_snapshot(coh))
    if hasattr(coh, "_sharers"):  # ABIS
        return ("sharers", {k: set(v) for k, v in coh._sharers.items()})
    if hasattr(coh, "_directory"):  # DiDi
        return ("directory", {k: set(v) for k, v in coh._directory.items()})
    # Linux / Barrelfish / UNITD keep no cross-operation state.
    return ("stateless", None)


def _coherence_restore(coh, snap: Tuple[str, Any]) -> None:
    kind, payload = snap
    if kind == "latr":
        _latr_restore(coh, payload)
    elif kind == "sharers":
        coh._sharers = {k: set(v) for k, v in payload.items()}
    elif kind == "directory":
        coh._directory = {k: set(v) for k, v in payload.items()}


# ---- the system-level pair -----------------------------------------------------


def snapshot_kernel(kernel) -> SystemSnapshot:
    """Capture a restorable snapshot of a booted kernel and its machine.

    Raises :class:`SnapshotError` when the system is not quiescent: a held
    lock, a pending generator continuation (the engine's own refusal), or
    an installed service this layer does not model (tracer, KSM,
    compaction, khugepaged)."""
    for attr in ("tracer", "ksm", "compactor", "khugepaged"):
        if getattr(kernel, attr) is not None:
            raise SnapshotError(f"cannot snapshot with {attr} installed")
    for lock in kernel.scheduler._cpu_locks.values():
        _check_lock_quiescent(lock)
    engine = kernel.sim.fork()  # refuses live generator continuations
    machine = kernel.machine
    autonuma = kernel.autonuma
    swap = kernel.swap
    monitor = kernel.invariant_monitor
    return SystemSnapshot(
        engine=engine,
        stats=kernel.stats.snapshot(),
        rng=kernel.rng.snapshot(),
        cores=[
            (core.current_task, core.lazy_tlb_mode, core.needs_flush_on_wake,
             core._pending_interrupt_ns, core._handler_busy_until,
             core.interrupts_received, core.interrupt_ns_total,
             core.busy_ns_total, _tlb_snapshot(core.tlb))
            for core in machine.cores
        ],
        llc=(machine.llc._pollution_lines, machine.llc._state_lines,
             machine.llc._window_start),
        frames=_frames_snapshot(kernel.frames),
        page_cache=(dict(kernel.page_cache._pages), kernel.page_cache.hits,
                    kernel.page_cache.fills),
        page_contents=dict(kernel.page_contents),
        mms={pcid: (mm, _mm_snapshot(mm))
             for pcid, mm in kernel.mm_registry.items()},
        processes=[(proc, list(proc.tasks)) for proc in kernel.processes],
        task_fields=[
            (task, task.state, task.sim_process)
            for proc in kernel.processes for task in proc.tasks
        ],
        scheduler=(
            kernel.scheduler._started,
            None if kernel.scheduler.tick_offsets is None
            else dict(kernel.scheduler.tick_offsets),
            {cid: (lock.acquisitions, lock.contended_acquisitions)
             for cid, lock in kernel.scheduler._cpu_locks.items()},
        ),
        coherence=_coherence_snapshot(kernel.coherence),
        autonuma=None if autonuma is None else (
            dict(autonuma._fault_history), list(autonuma._registered),
            dict(autonuma._cursors), dict(autonuma._round_robin),
        ),
        swap=None if swap is None else (swap._next_slot,
                                        dict(swap._used_slots)),
        monitor=None if monitor is None else (
            list(monitor.violations), monitor.checks_run,
            monitor.notifications, monitor._saturated,
        ),
        kernel_started=kernel._started,
        # Host (EPT) reverse map: {} for flat kernels, so flat snapshots
        # carry no extra state beyond the empty sentinel.
        ept_rmap={pfn: dict(mms) for pfn, mms in kernel._ept_rmap.items()},
    )


def restore_kernel(kernel, snap: SystemSnapshot) -> None:
    """Rewind ``kernel`` (and its machine/engine) to ``snap``, in place."""
    kernel.sim.restore(snap.engine)
    kernel.stats.restore(snap.stats)
    kernel.rng.restore(snap.rng)
    machine = kernel.machine
    machine.set_lazy_flags([row[1] for row in snap.cores])
    for core, (task, _lazy, needs_flush, pending_irq, busy_until, irq_n,
               irq_ns, busy_ns, tlb_snap) in zip(machine.cores, snap.cores):
        core.current_task = task
        core.needs_flush_on_wake = needs_flush
        core._pending_interrupt_ns = pending_irq
        core._handler_busy_until = busy_until
        core.interrupts_received = irq_n
        core.interrupt_ns_total = irq_ns
        core.busy_ns_total = busy_ns
        _tlb_restore(core.tlb, tlb_snap)
    (machine.llc._pollution_lines, machine.llc._state_lines,
     machine.llc._window_start) = snap.llc
    _frames_restore(kernel.frames, snap.frames)
    pages, hits, fills = snap.page_cache
    kernel.page_cache._pages = dict(pages)
    kernel.page_cache.hits = hits
    kernel.page_cache.fills = fills
    kernel.page_contents.clear()
    kernel.page_contents.update(snap.page_contents)
    kernel.mm_registry.clear()
    for pcid, (mm, mm_snap) in snap.mms.items():
        kernel.mm_registry[pcid] = mm
        _mm_restore(mm, mm_snap)
    kernel.processes[:] = [proc for proc, _tasks in snap.processes]
    for proc, tasks in snap.processes:
        proc.tasks[:] = tasks
    for task, state, sim_process in snap.task_fields:
        task.state = state
        task.sim_process = sim_process
    started, tick_offsets, lock_counts = snap.scheduler
    scheduler = kernel.scheduler
    scheduler._started = started
    scheduler.tick_offsets = (
        None if tick_offsets is None else dict(tick_offsets)
    )
    for cid, (acqs, contended) in lock_counts.items():
        lock = scheduler._cpu_locks[cid]
        lock._held = False
        lock._waiters.clear()
        lock.acquisitions = acqs
        lock.contended_acquisitions = contended
    _coherence_restore(kernel.coherence, snap.coherence)
    if snap.autonuma is not None:
        fault_history, registered, cursors, round_robin = snap.autonuma
        service = kernel.autonuma
        service._fault_history = dict(fault_history)
        service._registered = list(registered)
        service._cursors = dict(cursors)
        service._round_robin = dict(round_robin)
    if snap.swap is not None:
        kernel.swap._next_slot, used = snap.swap
        kernel.swap._used_slots = dict(used)
    if snap.monitor is not None:
        violations, checks_run, notifications, saturated = snap.monitor
        monitor = kernel.invariant_monitor
        monitor.violations = list(violations)
        monitor.checks_run = checks_run
        monitor.notifications = notifications
        monitor._saturated = saturated
    kernel._started = snap.kernel_started
    kernel._ept_rmap = {pfn: dict(mms) for pfn, mms in snap.ept_rmap.items()}


# ---- warm-boot pooling --------------------------------------------------------


def check_reusable(kernel) -> None:
    """Raise :class:`SnapshotError` unless the live world can safely be
    restored *over*.

    A held lock means some parked process still references it: when the
    restore orphans that process, its eventual teardown (``finally:
    lock.release()``) would fire against the restored world and corrupt it.
    Likewise a pending live generator continuation would be left dangling.
    Both conditions mean the previous run did not end quiescent, so the
    caller must boot cold instead of reusing."""
    sim = kernel.sim
    if sim._running:
        raise SnapshotError("cannot restore over a running simulator")
    for lock in kernel.scheduler._cpu_locks.values():
        _check_lock_quiescent(lock)
    for mm in kernel.mm_registry.values():
        _check_lock_quiescent(mm.mmap_sem)
    for handle in sim._resident_handles():
        if live_continuation(handle):
            raise SnapshotError(f"live continuation pending: {handle!r}")


class BootPool:
    """Process-local warm-boot cache.

    ``acquire(key, build)`` boots via ``build()`` the first time a key is
    seen, snapshots the freshly-booted world, and on every later request
    with the same key restores that snapshot in place instead of
    rebuilding -- turning repeated identical boots (fuzz shrink loops,
    experiment sweeps) into O(state) restores. Reuse is gated by
    :func:`check_reusable`: a world the previous user left non-quiescent is
    dropped and the key boots cold again. Unsnapshottable boots (tracer
    installed, continuation pending) are simply not pooled.
    """

    #: Booted systems kept alive per process (LRU beyond this).
    MAX_ENTRIES = 8

    def __init__(self):
        self._entries: "OrderedDict[Any, Tuple[Any, SystemSnapshot]]" = OrderedDict()
        self.boots = 0
        self.restores = 0
        self.fallbacks = 0

    def acquire(self, key: Any, build: Callable[[], Any]) -> Any:
        """Return a system (anything with a ``.kernel``) booted with the
        parameters ``key`` stands for, warm-restored when possible."""
        entry = self._entries.get(key)
        if entry is not None:
            system, snap = entry
            try:
                check_reusable(system.kernel)
                restore_kernel(system.kernel, snap)
            except SimulationError:
                del self._entries[key]
                self.fallbacks += 1
            else:
                self._entries.move_to_end(key)
                self.restores += 1
                return system
        system = build()
        try:
            snap = snapshot_kernel(system.kernel)
        except SnapshotError:
            self.fallbacks += 1
            return system
        self._entries[key] = (system, snap)
        self._entries.move_to_end(key)
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
        self.boots += 1
        return system
