"""Controlled-schedule executor for the coherence model checker.

One :class:`McExecutor` is one booted system driven action-by-action. The
checker -- not the simulated clock -- decides which coherence-relevant
event fires next:

* ``op:...``   start the next program operation of one core's thread,
* ``sweep:cN`` fire core N's LATR sweep (the timer-tick / context-switch
  hook, detached from the tick so the checker can schedule it anywhere),
* ``reclaim``  fire one reclamation-daemon round.

After each action the simulator drains to quiescence through the engine's
ready-set choice hook (``Simulator(choice_hook=...)``), so within-action
event order is itself controllable: the primary schedule dispatches
same-instant events front-first, and the ``revheap`` replay variant
reverses that order to prove intra-drain order insensitivity.

An operation may *block* mid-flight -- a touch parked on the migration
gate holds ``mmap_sem``, which can transitively park other cores' ops.
Blocked ops stay "in flight": their core offers no new program action
until a daemon action unblocks them, and a maximal trace that still has
in-flight ops is reported as a stuck schedule.

Determinism contract: every action's effect is a pure function of the
executed action sequence, so a state is identified by a canonical hash of
the functional machine state (TLBs, page table, VMAs, allocator free
lists, LATR queues with seq numbers normalized to posting order, thread
PCs, in-flight set). Derived acceleration state (sweep cursors, the TLB's
pcid index, the active-state cache) is excluded so the hash is invariant
across the fast-path escape hatches -- except in mutated runs, where the
broken derived state is the bug and is folded back in.
"""

from __future__ import annotations

import hashlib
import pickle
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ...coherence import make_mechanism
from ...coherence.latr import LatrCoherence
from ...coherence.states import (
    SOA_ACTIVE,
    SOA_MIGRATION,
    SOA_PTE_APPLIED,
    SOA_RECLAIMED,
    LatrFlag,
)
from ...hw.machine import Machine
from ...hw.spec import preset
from ...kernel.autonuma import AutoNuma
from ...kernel.kernel import Kernel
from ...mm.addr import PAGE_SIZE, VirtRange
from ...sim.engine import Simulator
from ...snapshot import SnapshotError, restore_kernel, snapshot_kernel
from ..monitor import InvariantMonitor
from ..mutations import mutation_spec
from .program import McOp, generate_program, per_core_programs

#: Replay variants. ``primary`` is the exploration schedule; the others
#: re-run a trace with one fast-path escape hatch or engine order flipped
#: (identical end state required), or under a synchronous mechanism
#: (normalized end state required).
TOGGLE_VARIANTS = ("tlbidx", "sweepidx")
ORDER_VARIANTS = ("revheap",)

#: The flag names a packed slot's SOA_MIGRATION bit stands for (what
#: the state's ``flag.name`` reads).
_MIGRATION = LatrFlag.MIGRATION.name
_FREE = LatrFlag.FREE.name

#: Hard cap on events executed per drain; hitting it is itself a finding
#: (a runaway schedule), never a silent truncation.
DRAIN_CAP = 50_000


@dataclass(frozen=True)
class McScope:
    """Scope + knobs for one model-checking run (picklable, hashable)."""

    cores: int = 2
    pages: int = 1
    ops: int = 3
    mutate: Optional[str] = None
    queue_depth: int = 8
    frames_per_node: int = 64
    check_mechanisms: Tuple[str, ...] = ("linux", "abis", "barrelfish")


def _build_spec(cores: int):
    spec = preset("commodity-2s16c")
    if cores >= 2 and cores % 2 == 0:
        # Two NUMA nodes whenever possible so migration stays cross-socket.
        from dataclasses import replace

        return replace(
            spec, name=f"mc-2s{cores}c", sockets=2, cores_per_socket=cores // 2
        )
    return spec.with_cores(cores)


class McExecutor:
    """One booted system under checker control (see module docstring)."""

    def __init__(self, scope: McScope, variant: str = "primary"):
        self.scope = scope
        self.variant = variant
        self.errors: List[str] = []
        self._is_mech = variant.startswith("mech:")
        self.mutation = (
            mutation_spec(scope.mutate)
            if scope.mutate is not None and not self._is_mech
            else None
        )
        self._boot()
        self.program = generate_program(scope.cores, scope.pages, scope.ops)
        self.core_ops = per_core_programs(self.program, scope.cores)
        self.pc = [0] * scope.cores
        #: core -> (McOp, Process); insertion order == op start order.
        self.in_flight: Dict[int, Tuple[McOp, object]] = {}
        #: page slot -> live VirtRange (None while unmapped).
        self.slots: List[Optional[VirtRange]] = [None] * scope.pages
        #: (core id, include_derived) -> (tlb entries_version, pickled
        #: canonical fragment); see _canonical_state.
        self._tlb_canon: Dict[Tuple[int, bool], Tuple[int, bytes]] = {}
        #: (allocator version, pickled canonical fragment) or None.
        self._frames_canon: Optional[Tuple[int, bytes]] = None
        #: ((page table version, host table version), pickled canonical
        #: fragment) or None; the host version is -1 for native mms.
        self._pt_canon: Optional[Tuple[Tuple[int, int], bytes]] = None
        #: LATR queues sorted by core id (the set is fixed at boot), or
        #: None for non-LATR mechanisms / before first use.
        self._latr_queues: Optional[List[Tuple[int, Any]]] = None
        #: int core mask -> ascending core ids (see _bits_of).
        self._mask_bits: Dict[int, List[int]] = {}
        self._init_slots()

    # ------------------------------------------------------------------ boot

    def _boot(self) -> None:
        scope, variant = self.scope, self.variant
        if variant == "revheap":
            sim = Simulator(choice_hook=lambda ready: len(ready) - 1)
        else:
            # Front-first through the ready-set hook: deterministic heap
            # order, but dispatched through the controllable scheduler path.
            sim = Simulator(choice_hook=lambda ready: 0)

        if self._is_mech:
            coherence = make_mechanism(variant.split(":", 1)[1])
        else:
            coherence_cls = LatrCoherence
            if self.mutation is not None and self.mutation.coherence_cls is not None:
                coherence_cls = self.mutation.coherence_cls
            coherence = coherence_cls(
                queue_depth=scope.queue_depth,
                reclaim_delay_ticks=0,
                sweep_on_context_switch=False,
                sweep_on_tick=False,
                use_sweep_index=(variant != "sweepidx"),
            )
        machine = Machine(
            sim,
            _build_spec(scope.cores),
            use_tlb_index=(False if variant == "tlbidx" else None),
        )
        if self.mutation is not None and self.mutation.machine_patch is not None:
            self.mutation.machine_patch(machine)
        kernel = Kernel(
            machine, coherence, frames_per_node=scope.frames_per_node, seed=1
        )
        if self.mutation is not None and self.mutation.kernel_patch is not None:
            self.mutation.kernel_patch(kernel)
        AutoNuma.install(kernel)  # fault side; the checker posts its own hints
        monitor = InvariantMonitor.install(kernel)
        # NOTE: kernel.start() is deliberately NOT called -- no periodic
        # ticks, no background reclaim daemon. Sweeps and reclaim rounds
        # fire only when the checker schedules them, so the interleaving
        # space is exactly the action sequences the explorer enumerates.
        self.sim = sim
        self.machine = machine
        self.kernel = kernel
        self.coherence = coherence
        self.monitor = monitor
        self.proc = kernel.create_process("mc")
        self.tasks = [
            kernel.spawn_thread(self.proc, f"mc.t{c}", c) for c in range(scope.cores)
        ]
        self.is_latr = isinstance(coherence, LatrCoherence)
        self._eager_reclaim = (
            self.mutation is not None and self.mutation.name == "reclaim_delay_zero"
        )

    def _init_slots(self) -> None:
        """Map every page slot from core 0 and read it from every other
        core, so all cores hold translations (full-bitmask FREE states and
        cross-core sweep races from the very first op)."""
        sys_, sched = self.kernel.syscalls, self.kernel.scheduler
        for page in range(self.scope.pages):
            def body(page=page) -> Generator:
                core0, task0 = self.machine.core(0), self.tasks[0]
                vr = yield from sys_.mmap(task0, core0, PAGE_SIZE)
                self.slots[page] = vr
                yield from sys_.write_with_content(
                    task0, core0, vr.start, f"init{page}"
                )
                for c in range(1, self.scope.cores):
                    yield from sched.run_on(
                        self.machine.core(c),
                        self.tasks[c],
                        sys_.touch_pages(
                            self.tasks[c], self.machine.core(c), vr, write=False
                        ),
                    )

            proc = self.sim.spawn(
                sched.run_on(self.machine.core(0), self.tasks[0], body()),
                name=f"init.p{page}",
            )
            self._drain()
            if proc.alive:
                raise RuntimeError(f"init of page slot {page} did not complete")
        if self.monitor.violations:
            raise RuntimeError(f"init violated invariants: {self.monitor.violations}")

    # --------------------------------------------------------------- actions

    def enabled_actions(self) -> List[str]:
        """All schedulable actions at the current state, in canonical
        (sorted-key) order. Daemon actions are enabled only when they can
        make progress, so every enabled action strictly changes state."""
        actions: List[str] = []
        for c in range(self.scope.cores):
            if c in self.in_flight:
                continue
            if self.pc[c] < len(self.core_ops[c]):
                actions.append(self.core_ops[c][self.pc[c]].key)
        if self.is_latr:
            co = self.coherence
            # OR the live masks of the active slots.
            union = 0
            for queue in co._queue_list:
                if not queue.active_count:
                    continue
                flags = queue._flags_a
                for idx, mask in enumerate(co.live_masks(queue)):
                    if mask and flags[idx] & SOA_ACTIVE:
                        union |= mask
            actions.extend(f"sweep:c{c}" for c in self._bits_of(union))
            pending = co._pending_reclaim
            if self._eager_reclaim:
                reclaimable = bool(pending)
            else:
                reclaimable = any(not s.active for s in pending)
            if reclaimable:
                actions.append("reclaim")
        return sorted(actions)

    def _op_for_key(self, key: str) -> McOp:
        idx = int(key.split(":")[2][1:])
        return self.program[idx]

    def execute(self, key: str) -> None:
        """Fire one action and drain the simulator to quiescence."""
        if key.startswith("op:"):
            op = self._op_for_key(key)
            core_pos = self.pc[op.core]
            if op.core in self.in_flight or (
                core_pos >= len(self.core_ops[op.core])
                or self.core_ops[op.core][core_pos].idx != op.idx
            ):
                raise RuntimeError(f"action {key} is not schedulable here")
            self.pc[op.core] += 1
            proc = self.sim.spawn(self._run_op(op), name=key)
            self.in_flight[op.core] = (op, proc)
        elif key.startswith("sweep:c"):
            self.coherence.sweep(self.machine.core(int(key[len("sweep:c"):])))
        elif key == "reclaim":
            self.coherence._reclaim_round()
        else:
            raise RuntimeError(f"unknown action key {key!r}")
        self._drain()

    def apply(self, key: str, tolerant: bool = True) -> bool:
        """Replay-side ``execute``: fire the action if it is applicable in
        the current state, else skip it (shrunken counterexample traces and
        cross-mechanism projections contain actions whose preconditions
        lapsed). Returns whether the action ran."""
        if key.startswith("op:"):
            op = self._op_for_key(key)
            pos = self.pc[op.core]
            applicable = (
                op.core not in self.in_flight
                and pos < len(self.core_ops[op.core])
                and self.core_ops[op.core][pos].idx == op.idx
            )
            if not applicable:
                if not tolerant:
                    raise RuntimeError(f"replay action {key} not applicable")
                return False
            self.execute(key)
            return True
        if not self.is_latr:
            return False  # daemon actions do not exist under sync mechanisms
        if key not in self.enabled_actions():
            # A sweep with no matching states or a reclaim with nothing
            # reclaimable would be a silent no-op; shrunken traces skip it.
            if not tolerant:
                raise RuntimeError(f"replay action {key} not applicable")
            return False
        self.execute(key)
        return True

    def _run_op(self, op: McOp) -> Generator:
        core, task = self.machine.core(op.core), self.tasks[op.core]
        yield from self.kernel.scheduler.run_on(core, task, self._op_body(op))

    def _op_body(self, op: McOp) -> Generator:
        sys_ = self.kernel.syscalls
        core, task = self.machine.core(op.core), self.tasks[op.core]
        vr = self.slots[op.page]
        if op.kind == "mmap":
            if vr is not None:
                return  # slot occupied: PC-advance skip
            new = yield from sys_.mmap(task, core, PAGE_SIZE)
            self.slots[op.page] = new
            yield from sys_.write_with_content(task, core, new.start, f"op{op.idx}")
            return
        if vr is None:
            return  # slot torn down before this op ran: skip
        if op.kind == "touch_w":
            yield from sys_.write_with_content(task, core, vr.start, f"op{op.idx}")
        elif op.kind == "touch_r":
            yield from sys_.touch_pages(task, core, vr, write=False)
        elif op.kind == "munmap":
            self.slots[op.page] = None
            yield from sys_.munmap(task, core, vr)
        elif op.kind == "madvise":
            yield from sys_.madvise_dontneed(task, core, vr)
        elif op.kind == "migrate":
            yield from self._post_hints(op, core, task, vr)
        else:  # pragma: no cover - generate_program only emits known kinds
            raise RuntimeError(f"unknown op kind {op.kind}")

    def _post_hints(self, op: McOp, core, task, vr: VirtRange) -> Generator:
        """The task_numa_work scanner side for one slot (posts MIGRATION
        states under LATR, applies hints synchronously elsewhere)."""
        kernel = self.kernel
        mm = task.mm
        yield mm.mmap_sem.acquire()
        try:
            vpns = [v for v in vr.vpns() if kernel.autonuma._samplable(mm, v)]
            if not vpns:
                return

            def apply_change(mm=mm, vpns=tuple(vpns)) -> None:
                for vpn in vpns:
                    pte = mm.page_table.walk(vpn)
                    if pte is not None and pte.present:
                        mm.page_table.update_pte(vpn, pte.make_numa_hint())

            yield from kernel.coherence.migration_unmap(core, mm, vr, apply_change)
        finally:
            mm.mmap_sem.release()

    def _drain(self) -> None:
        executed = self.sim.run(max_events=DRAIN_CAP)
        if executed >= DRAIN_CAP:
            self.errors.append(
                f"drain executed {executed} events without quiescing (runaway)"
            )
        for core in list(self.in_flight):
            _op, proc = self.in_flight[core]
            if not proc.alive:
                del self.in_flight[core]

    # -------------------------------------------------------------- findings

    def findings(self) -> List[str]:
        """Safety findings accumulated so far (monitor + harness errors)."""
        return [str(v) for v in self.monitor.violations] + list(self.errors)

    def pending_lazy(self) -> int:
        if not self.is_latr:
            return 0
        return self.coherence.pending_lazy_operations()

    def program_complete(self) -> bool:
        return not self.in_flight and all(
            self.pc[c] >= len(self.core_ops[c]) for c in range(self.scope.cores)
        )

    def quiescent_findings(self) -> List[str]:
        before = len(self.monitor.violations)
        self.monitor.check_quiescent()
        return [str(v) for v in self.monitor.violations[before:]]

    # ------------------------------------------------------------ state hash

    def state_hash(self, include_derived: Optional[bool] = None) -> str:
        """Canonical hash of the functional machine state (see module
        docstring for what is included/excluded and why)."""
        if include_derived is None:
            include_derived = self.mutation is not None
        h = hashlib.blake2b(digest_size=16)
        for piece in self._canonical_state(include_derived):
            h.update(piece)
        return h.hexdigest()

    def _canonical_state(self, include_derived: bool) -> List[bytes]:
        # A fixed-length list of pickled fragments. Each piece is one
        # complete pickle stream (self-delimiting, so the concatenation the
        # hash sees is injective), built from sorted lists so the encoding
        # is deterministic; hashes are never persisted, so it only needs to
        # be stable within one process. Fragments guarded by a version
        # counter are cached as *bytes*: while the subsystem is untouched
        # (or a backtracking restore rewound it, versions travel with
        # content), both the canonical rebuild and the re-pickling are
        # skipped -- the model checker hashes every node, so this is its
        # hottest path.
        dumps = pickle.dumps
        mm = self.proc.mm
        pieces: List[bytes] = []
        canon_cache = self._tlb_canon
        for core in self.machine.cores:
            tlb = core.tlb
            # The fragment depends only on the resident entry set (sorted,
            # so LRU order is irrelevant), hence the entries_version key.
            version = tlb._entries_version
            cache_key = (core.id, include_derived)
            hit = canon_cache.get(cache_key)
            if hit is None or hit[0] != version:
                row = (core.id, tlb.canonical_rows(), tlb.canonical_huge_rows())
                if include_derived and tlb.use_index:
                    row += (
                        sorted((k, sorted(v)) for k, v in tlb._index.items()),
                    )
                hit = canon_cache[cache_key] = (version, dumps(row, 4))
            pieces.append(hit[1])

        page_table = mm.page_table
        host = mm.host_table
        pt_version = (
            page_table._version,
            -1 if host is None else host._version,
        )
        cached_pt = self._pt_canon
        if cached_pt is None or cached_pt[0] != pt_version:
            rows = sorted(
                (vpn, pte.pfn, int(pte.flags), pte.swap_slot)
                for vpn, pte in page_table.all_entries()
            )
            replicas = getattr(page_table, "_replicas", None)
            if replicas:
                # numaPTE: replicas are functional state (walks descend
                # them), so fold each one in -- a stale replica (the
                # broken_replica mutation) desyncs the hash. The facade
                # version covers replica contents and pending counts, so
                # the version-keyed cache stays sound.
                frag: object = (
                    rows,
                    sorted(
                        (node, vpn, pte.pfn, int(pte.flags), pte.swap_slot)
                        for node, replica in replicas.items()
                        for vpn, pte in replica.all_entries()
                    ),
                    sorted(page_table._pending_updates.items()),
                )
            else:
                frag = rows
            if host is not None:
                # Two-level translation: host (EPT) rows are functional
                # state (guest 2D walks compose through them), so fold
                # them in -- a stale host entry (the broken_ept_shootdown
                # mutation) desyncs the hash. The host table mints its own
                # version (it reuses PageTable storage), and every aux-dict
                # mutation co-occurs with a set_pte/clear_pte bump, so the
                # two-version cache key stays sound.
                frag = (
                    frag,
                    sorted(
                        (gfn, pte.pfn, int(pte.flags))
                        for gfn, pte in host.all_entries()
                    ),
                    sorted(host.generation_of_gfn.items()),
                    host.next_gfn,
                )
            cached_pt = self._pt_canon = (pt_version, dumps(frag, 4))
        pieces.append(cached_pt[1])
        vmas = sorted(
            (v.range.start, v.range.end, int(v.prot), v.kind.name, v.huge)
            for v in mm.vmas
        )
        mm_piece = (
            vmas,
            sorted(mm.cpumask),
            [(r.start, r.end) for r in mm.lazy_vranges],
            list(mm.lazy_frames),
            mm.map_generation,
            mm._bump,
            [(r.start, r.end) for r in mm._free_ranges],
        )

        frames = self.kernel.frames
        # Allocator fragment cached on the allocator's version (same
        # contract as the TLB fragments); page_contents is kernel-owned
        # state with no version, so it stays outside the cached part.
        frames_version = frames._version
        cached_alloc = self._frames_canon
        if cached_alloc is None or cached_alloc[0] != frames_version:
            cached_alloc = self._frames_canon = (
                frames_version,
                dumps((
                    # Each free list's exact state (watermark segments +
                    # tail) without materializing the lazy ranges per hash.
                    [q.state() for q in frames._free],
                    sorted(frames._refcount.items()),
                    sorted(frames._generation.items()),
                ), 4),
            )
        pieces.append(cached_alloc[1])

        # The remaining fragments are never cache-hits (something among
        # them changes on essentially every action), so they share one
        # pickle stream instead of paying per-fragment pickler setup; the
        # enclosing tuple keeps the encoding injective, and the constant
        # ``()`` placeholder for non-LATR mechanisms keeps the hash domain
        # identical across variants.
        pieces.append(dumps((
            mm_piece,
            sorted(self.kernel.page_contents.items()),
            self._canonical_latr(include_derived) if self.is_latr else (),
            list(self.pc),
            [op.key for (op, _proc) in self.in_flight.values()],
            [s if s is None else (s.start, s.end) for s in self.slots],
        ), 4))
        return pieces

    def _canonical_latr(self, include_derived: bool):
        co = self.coherence
        sorted_queues = self._latr_queues
        if sorted_queues is None:
            # The queue set is fixed at boot; sort it once per executor.
            sorted_queues = self._latr_queues = [
                (core_id, co.queues[core_id]) for core_id in sorted(co.queues)
            ]
        # Normalize the process-global state seq to per-system posting rank:
        # raw seqs differ between otherwise-identical replays. A slot holds
        # a state iff its seq is nonzero.
        seqs = [seq for _cid, q in sorted_queues for seq in q._seq_a if seq]
        if not seqs and not co._pending_reclaim:
            # All slots empty (the common state between munmap bursts): the
            # per-slot walk collapses to cursors and depths. The encoding
            # (an int instead of a slot tuple) cannot collide with the
            # populated form.
            queues = [
                (core_id, q._cursor, len(q._slots)) for core_id, q in sorted_queues
            ]
            out = (tuple(queues), ())
            if include_derived:
                out += (
                    tuple((c, 0) for c, _cur in sorted(co._sweep_cursor.items())),
                    self._canonical_inboxes(),
                )
            return out
        seqs.sort()
        rank = dict(zip(seqs, range(len(seqs))))
        queues = [
            (core_id, queue._cursor, self._slot_rows(queue, rank))
            for core_id, queue in sorted_queues
        ]
        pending = tuple(
            (s.queue.core_id if s.queue is not None else -1, s.slot_idx)
            for s in co._pending_reclaim
        ) if co._pending_reclaim else ()
        out = (tuple(queues), pending)
        if include_derived:
            cursors = tuple(
                (c, bisect_right(seqs, cur))
                for c, cur in sorted(co._sweep_cursor.items())
            )
            out += (cursors, self._canonical_inboxes())
        return out

    def _slot_rows(self, queue, rank: Dict[int, int]) -> tuple:
        """One canonical row per slot of ``queue``, read from its arrays
        (masks through one ``live_masks`` pass)."""
        seq_a = queue._seq_a
        rows = [None] * len(seq_a)
        if not any(seq_a):
            return tuple(rows)
        slots = queue._slots
        flags_a = queue._flags_a
        masks = self.coherence.live_masks(queue)
        mask_bits = self._mask_bits
        for idx, seq in enumerate(seq_a):
            if not seq:
                continue
            state = slots[idx]
            flags = flags_a[idx]
            ids = mask_bits.get(masks[idx])
            if ids is None:
                ids = self._bits_of(masks[idx])
            vrange = state.vrange
            to_free = state.vrange_to_free
            rows[idx] = (
                idx,
                rank[seq],
                _MIGRATION if flags & SOA_MIGRATION else _FREE,
                flags & SOA_ACTIVE != 0,
                tuple(ids),
                (vrange.start, vrange.end),
                tuple(state.pfns),
                None if to_free is None else (to_free.start, to_free.end),
                flags & SOA_PTE_APPLIED != 0,
                flags & SOA_RECLAIMED != 0,
            )
        return tuple(rows)

    def _bits_of(self, mask: int) -> List[int]:
        """Ascending core ids of ``mask``, memoized: at checker scope a
        handful of masks recur at every node. Callers copy the list into a
        fresh tuple per row, because pickle writes a repeated object as a
        memo reference, which would change the hashed bytes."""
        ids = self._mask_bits.get(mask)
        if ids is None:
            ids = self._mask_bits[mask] = [
                core_id for core_id in range(mask.bit_length()) if mask >> core_id & 1
            ]
        return ids

    def _canonical_inboxes(self):
        """The inbox sweep's own bookkeeping (empty under the full scan),
        in global slot ids -- (owner, slot), seq-free: each core's inbox,
        the wide log, each core's exclusions, and every slot's remaining
        count."""
        co = self.coherence
        return (
            tuple(tuple(sorted(inbox)) for inbox in co._inboxes),
            tuple(co._wide_gids),
            tuple(sorted((c, tuple(sorted(g))) for c, g in co._excluded.items())),
            tuple(tuple(q._remaining_a) for q in co._queue_list),
        )

    # ------------------------------------------------------------- snapshots

    def fork(self):
        """Capture a restorable snapshot of this executor's whole world
        (engine + kernel + checker bookkeeping). Only legal with no op in
        flight: a blocked op is a suspended generator, which cannot be
        captured (see :mod:`repro.snapshot`)."""
        if self.in_flight:
            raise SnapshotError("cannot fork with ops in flight")
        return (
            snapshot_kernel(self.kernel),
            list(self.pc),
            list(self.slots),
            list(self.errors),
        )

    def restore(self, snap) -> None:
        """Rewind to a :meth:`fork` snapshot, in place (O(state), not
        O(trace): no replay is involved)."""
        # Close abandoned in-flight ops *before* rewinding, while the world
        # they hold locks in is still consistent: their ``finally`` clauses
        # (cpu-lock / mmap_sem release) must run against the state they
        # actually mutated, not the restored one. Everything they touch on
        # the way out is overwritten by the restore below.
        if self.in_flight:
            for _op, proc in list(self.in_flight.values()):
                proc.interrupt()
            self.in_flight.clear()
        kernel_snap, pc, slots, errors = snap
        restore_kernel(self.kernel, kernel_snap)
        self.pc[:] = pc
        self.slots[:] = slots
        self.errors[:] = errors

    def mech_snapshot(self, racy_pages: frozenset = frozenset()) -> Dict[str, object]:
        """Mechanism-comparable end state, normalized further than the
        fuzzer's snapshot: NUMA node and the hint/present distinction are
        dropped, because at small scope both legitimately depend on when a
        deferred hint PTE lands relative to the next touch -- which is the
        schedule freedom under test, not a bug. What must agree: which
        pages are mapped, their content tags, their writability, and the
        global allocation/lazy accounting.

        ``racy_pages`` (see :func:`racy_free_pages`) names slots whose end
        state is legitimately mechanism-dependent: a cross-core touch in a
        free operation's staleness window lands on the doomed frame under
        lazy coherence but refaults under an eager one. Those slots' rows
        are masked and the frames backing them discounted, identically on
        every leg, so equal states stay equal and only the genuinely racy
        check is dropped."""
        mm = self.proc.mm
        rows = []
        discount = 0
        for page, slot in enumerate(self.slots):
            if page in racy_pages:
                rows.append("racy")
                if slot is not None:
                    discount += sum(
                        1
                        for vpn in slot.vpns()
                        for pte in [mm.page_table.walk(vpn)]
                        if pte is not None and pte.present
                    )
                continue
            if slot is None:
                rows.append("unmapped")
                continue
            pages = []
            for vpn in slot.vpns():
                pte = mm.page_table.walk(vpn)
                if pte is None:
                    pages.append("absent")
                elif pte.swapped:
                    pages.append("swapped")
                else:
                    tag = self.kernel.page_contents.get(pte.pfn, "")
                    rw = "w" if pte.writable else "r"
                    pages.append(f"mapped:{rw}:{tag}")
            rows.append(tuple(pages))
        return {
            "slots": tuple(rows),
            "frames_allocated": self.kernel.frames.allocated_count() - discount,
            "lazy_frames": len(mm.lazy_frames),
            "lazy_vranges": len(mm.lazy_vranges),
            "vmas": len(mm.vmas),
        }


def diff_mech_snapshots(base: Dict[str, object], other: Dict[str, object]) -> List[str]:
    """Human-readable differences between normalized snapshots."""
    return [
        f"{key}: baseline={base[key]} other={other.get(key)}"
        for key in base
        if base[key] != other.get(key)
    ]


def racy_free_pages(op_keys) -> frozenset:
    """Page slots whose end state legitimately differs between lazy and
    synchronous coherence on this op sequence.

    After ``madvise`` returns on the initiating core, every *other* core
    may still hold a TLB entry for the slot until its next sweep -- the
    paper's bounded staleness window. A touch from such a core legally
    lands on the doomed frame: the write is lost at reclamation and the
    slot ends unmapped. An eager mechanism invalidated remote TLBs inside
    the madvise, so the identical touch refaults and the slot ends mapped
    with the written content. Both outcomes are correct; comparing them
    is the one check the differential oracle must drop (the initiator's
    own later touches always refault -- its local entry died inside the
    free op -- so same-core sequences stay fully checked). ``mmap`` ends
    a slot's window: the fresh range has never been in any TLB.
    ``munmap`` needs no entry here: it tears the slot down, and later
    touches skip. The set is a pure function of the program-op projection,
    so the primary and every replayed mechanism leg mask identically --
    over-approximating (a sweep may have closed the window before the
    touch) only drops a comparison, never invents a divergence."""
    initiator: Dict[int, str] = {}
    racy = set()
    for key in op_keys:
        _op, core, _idx, kind, page = key.split(":")
        slot = int(page[1:])
        if kind == "madvise":
            initiator[slot] = core
        elif kind == "mmap":
            initiator.pop(slot, None)
        elif kind in ("touch_w", "touch_r") and initiator.get(slot, core) != core:
            racy.add(slot)
    return frozenset(racy)
