"""Equivalence tests for the LATR sweep index.

The inbox sweep (`LatrCoherence._sweep_inbox`) must charge the exact
modelled costs of the original full scan (`_sweep_full`) -- every counter,
latency and rate bit-for-bit identical -- while doing asymptotically less
simulator work. The strongest check replays full differential-fuzzer plans
with both implementations and compares complete ``StatsRegistry.summary()``
dicts.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from helpers import count_calls, drain, make_proc, run_to_completion
from hypothesis import given, settings

from repro import build_system
from repro.coherence.latr import LatrCoherence
from repro.coherence.states import LatrFlag, SoaLatrState
from repro.hw.spec import preset
from repro.hw.topology import Topology
from repro.mm.addr import PAGE_SIZE, VirtRange
from repro.mm.mmstruct import MmStruct
from repro.sim.engine import Signal, Simulator
from repro.snapshot import restore_kernel, snapshot_kernel
from repro.verify.fuzzer import run_one
from repro.verify.mc.executor import McExecutor, McScope
from repro.verify.plan import generate_plan
from repro.workloads.stress import fleet_fingerprint, run_sweep_stress


class TestFuzzPlanEquivalence:
    """Replay fuzzer plans with and without the index: identical stats."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_indexed_and_full_scan_stats_identical(self, seed):
        plan = generate_plan(seed, 40, n_cores=4, n_procs=2)
        indexed = run_one(
            "latr", plan, latr_kwargs={"use_sweep_index": True}
        )
        full = run_one(
            "latr", plan, latr_kwargs={"use_sweep_index": False}
        )
        assert indexed.clean, (indexed.violations, indexed.errors)
        assert full.clean, (full.violations, full.errors)
        assert indexed.stats_summary == full.stats_summary
        assert indexed.snapshot == full.snapshot
        assert indexed.sim_time_ns == full.sim_time_ns

    @pytest.mark.parametrize("seed", [1, 6, 9])
    def test_multi_state_retirements_and_pending_migrations(self, seed, monkeypatch):
        # Several states retire in one sweep, and sweeps drain migrations
        # whose PTE change is still deferred; both must match the full scan.
        plan = generate_plan(seed, 120)
        seen = {"multi_retire": 0, "pending_migration": 0}
        drain_inbox = LatrCoherence._drain

        def counting_drain(self, core, inbox, cost):
            before = self._active_state_count
            if self._unapplied and not self._unapplied.isdisjoint(inbox):
                seen["pending_migration"] += 1
            cost = drain_inbox(self, core, inbox, cost)
            if before - self._active_state_count >= 2:
                seen["multi_retire"] += 1
            return cost

        monkeypatch.setattr(LatrCoherence, "_drain", counting_drain)
        inbox = run_one("latr", plan)
        assert seen["multi_retire"] > 0 and seen["pending_migration"] > 0
        assert inbox.clean, (inbox.violations, inbox.errors)
        full = run_one("latr", plan, latr_kwargs={"use_sweep_index": False})
        assert full.clean, (full.violations, full.errors)
        assert inbox.stats_summary == full.stats_summary
        assert inbox.snapshot == full.snapshot
        assert inbox.sim_time_ns == full.sim_time_ns


class TestIndexBookkeeping:
    def _munmap_once(self, system, proc, tasks, pages=1):
        kernel = system.kernel
        sc = kernel.syscalls

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            t1, c1 = tasks[1], kernel.machine.core(1)
            vr = yield from sc.mmap(t0, c0, pages * PAGE_SIZE)
            yield from sc.touch_pages(t0, c0, vr, write=True)
            yield from sc.touch_pages(t1, c1, vr)
            yield from sc.munmap(t0, c0, vr)

        run_to_completion(system, body())

    def test_count_matches_full_scan_through_lifecycle(self):
        system = build_system("latr", cores=4)
        proc, tasks = make_proc(system)
        coherence = system.kernel.coherence

        def scan_count():
            return sum(
                1
                for queue in coherence.queues.values()
                for _ in queue.active_states()
            )

        assert coherence.active_state_count() == scan_count() == 0
        self._munmap_once(system, proc, tasks)
        assert coherence.active_state_count() == scan_count() == 1
        # Ticks sweep the state away; reclamation retires it, and the inbox
        # sweep's bookkeeping empties with it.
        drain(system, ms=6)
        assert coherence.active_state_count() == scan_count() == 0
        assert not any(coherence._inboxes) and not coherence._wide_gids
        assert not coherence._excluded and not any(coherence._socket_seqs)

    def test_empty_sweep_costs_exactly_base(self):
        system = build_system("latr", cores=4)
        make_proc(system)
        coherence = system.kernel.coherence
        lat = system.machine.latency
        cost = coherence.sweep(system.machine.core(0))
        assert cost == lat.latr_sweep_base_ns

    def test_repeat_sweep_skips_already_cleared_states(self):
        system = build_system("latr", cores=4)
        proc, tasks = make_proc(system)
        coherence = system.kernel.coherence
        lat = system.machine.latency
        self._munmap_once(system, proc, tasks)
        core1 = system.machine.core(1)
        first = coherence.sweep(core1)
        # The state stays active (other cores' bits remain) and is charged
        # per-entry in both sweeps, but the second sweep starts beyond the
        # cursor: no re-pull, no matching work -- only base + per-entry.
        assert coherence.active_state_count() == 1
        second = coherence.sweep(core1)
        assert first > second
        assert second == lat.latr_sweep_base_ns + lat.latr_sweep_per_entry_ns

    def test_deactivation_via_direct_assignment_updates_counts(self):
        # Fallback paths and fuzzer mutations retire states by assigning
        # ``active = False`` directly; the notifying property must keep the
        # queue and global counts exact anyway.
        system = build_system("latr", cores=2)
        proc, tasks = make_proc(system)
        self._munmap_once(system, proc, tasks)
        coherence = system.kernel.coherence
        (state,) = [
            s for q in coherence.queues.values() for s in q.active_states()
        ]
        queue = state.queue
        assert queue.active_count == 1
        state.active = False
        assert queue.active_count == 0
        assert coherence.active_state_count() == 0
        state.active = False  # idempotent: no double-decrement
        assert coherence.active_state_count() == 0

    def test_full_scan_flag_disables_index_path(self):
        system = build_system("latr", cores=4, use_sweep_index=False)
        proc, tasks = make_proc(system)
        assert system.kernel.coherence.use_sweep_index is False
        self._munmap_once(system, proc, tasks)
        drain(system, ms=6)
        assert system.stats.counter("latr.sweeps").value > 0
        assert system.stats.counter("latr.entries_invalidated").value >= 1

    @pytest.mark.parametrize("n_threads", [2, None], ids=["narrow", "wide"])
    def test_many_states_one_sweep_matches_full_scan(self, n_threads):
        # More states than the full-flush threshold in one sweep: the sweep
        # decides on a full flush from the count alone, and the last target
        # deactivates them all. Two threads make every state narrow (one
        # target, an inbox entry); one per core makes them wide (three
        # targets, the wide log).
        results = {}
        for use_sweep_index in (True, False):
            system = build_system("latr", cores=4, use_sweep_index=use_sweep_index)
            proc, tasks = make_proc(system, n_threads=n_threads)
            kernel = system.kernel
            sc = kernel.syscalls
            threshold = system.machine.spec.full_flush_threshold

            def body():
                c0, c1 = kernel.machine.core(0), kernel.machine.core(1)
                ranges = []
                for _ in range(threshold + 8):
                    vr = yield from sc.mmap(tasks[0], c0, PAGE_SIZE)
                    yield from sc.touch_pages(tasks[0], c0, vr, write=True)
                    yield from sc.touch_pages(tasks[1], c1, vr)
                    ranges.append(vr)
                for vr in ranges:
                    yield from sc.munmap(tasks[0], c0, vr)

            run_to_completion(system, body())
            coherence = kernel.coherence
            assert coherence.active_state_count() > threshold
            if use_sweep_index:
                pending = coherence._inboxes[1] if n_threads else coherence._wide_gids
                assert len(pending) > threshold
            results[use_sweep_index] = [
                coherence.sweep(kernel.machine.core(c)) for c in (1, 2, 3, 1)
            ]
            drain(system, ms=6)
            results[use_sweep_index].append(system.stats.summary())
        assert results[True] == results[False]


    def test_queue_full_fallbacks_match_full_scan(self):
        # Fallback rounds IPI the same cores under either sweep: a depth-2
        # queue fills with two frees, then a free and a migration both fall
        # back to synchronous IPIs.
        summaries = []
        for use_sweep_index in (True, False):
            system = build_system(
                "latr", cores=4, queue_depth=2, use_sweep_index=use_sweep_index
            )
            proc, tasks = make_proc(system)
            kernel = system.kernel
            sc = kernel.syscalls

            def body():
                c0, c1 = kernel.machine.core(0), kernel.machine.core(1)
                for _ in range(3):
                    vr = yield from sc.mmap(tasks[0], c0, PAGE_SIZE)
                    yield from sc.touch_pages(tasks[0], c0, vr, write=True)
                    yield from sc.touch_pages(tasks[1], c1, vr)
                    yield from sc.munmap(tasks[0], c0, vr)
                vr = yield from sc.mmap(tasks[0], c0, PAGE_SIZE)
                yield from sc.touch_pages(tasks[0], c0, vr, write=True)
                yield from kernel.coherence.migration_unmap(c0, proc.mm, vr, lambda: None)

            run_to_completion(system, body())
            drain(system, ms=6)
            summary = system.stats.summary()
            assert summary["count.latr.fallback_ipi"] == 2
            summaries.append(summary)
        assert summaries[0] == summaries[1]


class TestCompletionOrder:
    """Several states complete in one sweep at core 0: their ``done``
    signals fire in full-scan order (owner core, then slot) on the inbox
    sweep as on the full scan, although core 0's inbox holds them in
    posting order (narrow states interleaved from owners 2 and 1, wide
    ones from owners 3, 1 and 2). One state's ``done`` resumes a process
    that munmaps again, and another's one that posts a migration state,
    both from inside the sweep."""

    #: (process, owner core) of each post, cycled: the wide process runs
    #: on all four cores (three targets, the wide log), the narrow one on
    #: cores 0-2 (two targets, inbox entries).
    POSTS = (("wide", 3), ("narrow", 2), ("wide", 1), ("narrow", 1), ("wide", 2))

    @pytest.mark.parametrize("n_states", [40, 6], ids=["full_flush", "per_page"])
    def test_done_order_matches_full_scan(self, n_states):
        inbox = self._done_order(n_states, use_sweep_index=True)
        full = self._done_order(n_states, use_sweep_index=False)
        assert inbox == full

    def _done_order(self, n_states, use_sweep_index):
        # Ticks do not sweep: every sweep below is explicit.
        system = build_system(
            "latr", cores=4, sweep_on_tick=False, use_sweep_index=use_sweep_index
        )
        kernel = system.kernel
        coherence = kernel.coherence
        sc = kernel.syscalls
        cores = kernel.machine.cores
        procs = {
            "wide": make_proc(system, name="wide"),
            "narrow": make_proc(system, n_threads=3, name="narrow"),
        }
        order = []

        def record(label):
            return lambda _sig: order.append(label)

        def remunmap(state, task, vrange):
            yield state.done
            order.append("remunmap.resumed")
            yield from sc.munmap(task, cores[task.home_core_id], vrange)
            coherence._pending_reclaim[-1].done.add_callback(record("remunmap.done"))

        def migrate(state, task, vrange):
            yield state.done
            done = yield from coherence.migration_unmap(
                cores[task.home_core_id], task.mm, vrange, lambda: None
            )
            done.add_callback(record("migration.done"))

        def body():
            wide_task = procs["wide"][1][1]
            spare = []
            for _ in range(2):
                vrange = yield from sc.mmap(wide_task, cores[1], PAGE_SIZE)
                spare.append(vrange)
            for i in range(n_states):
                name, owner = self.POSTS[i % len(self.POSTS)]
                task = procs[name][1][owner]
                vrange = yield from sc.mmap(task, cores[owner], PAGE_SIZE)
                yield from sc.munmap(task, cores[owner], vrange)
                state = coherence._pending_reclaim[-1]
                state.done.add_callback(record(i))
                if i == n_states // 2:
                    system.sim.spawn(remunmap(state, wide_task, spare[0]))
                    system.sim.spawn(migrate(state, wide_task, spare[1]))

        run_to_completion(system, body())
        assert coherence.active_state_count() == n_states
        for core_id in (1, 2, 3):
            coherence.sweep(cores[core_id])
        assert order == []
        coherence.sweep(cores[0])
        assert sorted(label for label in order if isinstance(label, int)) == list(
            range(n_states)
        )
        assert "remunmap.resumed" in order
        # The migration was posted inside the sweep; the re-munmap's state
        # once its charges elapsed. Sweeping every core twice retires both.
        drain(system, ms=1)
        assert coherence.active_state_count() == 2
        for _ in range(2):
            for core in cores:
                coherence.sweep(core)
        assert order[-2:] == ["migration.done", "remunmap.done"]
        return order, system.stats.summary()


class TestHealthySweepEntryPoint:
    def test_mutated_run_runs_no_healthy_sweep(self, monkeypatch):
        # Tick and context-switch sweeps share ``sweep``: a subclass that
        # overrides it (the skip_sweep_invalidate mutation) owns every sweep.
        calls = count_calls(
            monkeypatch, (LatrCoherence, "_sweep_inbox"), (LatrCoherence, "_sweep_full")
        )
        plan = generate_plan(1, 60)
        result = run_one("latr", plan, mutate="skip_sweep_invalidate")
        assert result.stats_summary["count.latr.sweeps"] > 0
        assert sum(calls.values()) == 0
        run_one("latr", plan)
        assert sum(calls.values()) > 0


class TestSweepStress:
    """The sweep-stress driver on a 16-core machine, 4 simulated ms."""

    def test_indexed_and_full_scan_agree_on_small_machine(self, monkeypatch):
        calls = count_calls(
            monkeypatch, (LatrCoherence, "_sweep_inbox"), (LatrCoherence, "_sweep_full")
        )
        indexed = run_sweep_stress(4, machine="commodity-2s16c")
        # Work budget: by default every one of the 65 sweeps takes the
        # inbox path.
        assert indexed["count.latr.sweeps"] == 65
        assert calls == {"_sweep_inbox": 65, "_sweep_full": 0}
        full = run_sweep_stress(4, machine="commodity-2s16c", use_sweep_index=False)
        assert indexed == full
        assert indexed["count.shootdown.initiated"] > 0
        # Golden: a change that moves the driver's modelled output (its
        # op sequence, or the names it gives processes and tasks) shows.
        assert fleet_fingerprint(indexed) == "a54ac66b8d62cd3b"


def _inbox_bookkeeping(coherence):
    return (
        [list(inbox) for inbox in coherence._inboxes],
        list(coherence._wide_seqs),
        list(coherence._wide_gids),
        {c: set(gids) for c, gids in coherence._excluded.items()},
        [list(seqs) for seqs in coherence._socket_seqs],
        set(coherence._unapplied),
        list(coherence._remaining),
        dict(coherence._sweep_cursor),
    )


class TestInboxSnapshot:
    def test_mc_restore_with_pending_states_is_hash_exact(self):
        executor = McExecutor(McScope(cores=4, pages=3, ops=5))
        coherence = executor.coherence
        while not coherence._wide_gids:
            executor.execute(
                next(a for a in executor.enabled_actions() if a.startswith("op:"))
            )
        before = executor.state_hash(include_derived=True)
        bookkeeping = _inbox_bookkeeping(coherence)
        snap = executor.fork()

        def run_on():
            hashes = []
            while executor.enabled_actions():
                executor.execute(executor.enabled_actions()[-1])
                hashes.append(executor.state_hash(include_derived=True))
            return hashes

        first = run_on()
        assert not coherence._wide_gids
        executor.restore(snap)
        assert executor.state_hash(include_derived=True) == before
        assert _inbox_bookkeeping(coherence) == bookkeeping
        assert run_on() == first

    def test_restore_mid_run_with_narrow_and_wide_pending(self):
        # One process on two cores (narrow states: inbox entries), one on
        # every core (wide states: the wide log), restored mid-run.
        system = build_system("latr", cores=8)
        kernel = system.kernel
        _, narrow_tasks = make_proc(system, n_threads=2, name="narrow")
        _, wide_tasks = make_proc(system, name="wide")
        sc = kernel.syscalls

        def body():
            for tasks in (narrow_tasks, wide_tasks):
                c0, c1 = kernel.machine.core(0), kernel.machine.core(1)
                for _ in range(3):
                    vr = yield from sc.mmap(tasks[0], c0, 2 * PAGE_SIZE)
                    yield from sc.touch_pages(tasks[0], c0, vr, write=True)
                    yield from sc.touch_pages(tasks[1], c1, vr)
                    yield from sc.munmap(tasks[0], c0, vr)

        run_to_completion(system, body())
        coherence = kernel.coherence
        assert any(coherence._inboxes) and coherence._wide_gids
        bookkeeping = _inbox_bookkeeping(coherence)
        machine = kernel.machine
        lazy = machine.lazy_cores
        snap = snapshot_kernel(kernel)
        drain(system, ms=6)
        after = (system.stats.summary(), _inbox_bookkeeping(coherence))
        assert coherence.active_state_count() == 0
        for core in machine.cores:
            core.lazy_tlb_mode = not lazy >> core.id & 1
        restore_kernel(kernel, snap)
        assert _inbox_bookkeeping(coherence) == bookkeeping
        assert machine.lazy_cores == lazy
        assert lazy == sum(1 << core.id for core in machine.cores if core.lazy_tlb_mode)
        drain(system, ms=6)
        assert (system.stats.summary(), _inbox_bookkeeping(coherence)) == after


_LIVE_MASK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("post"), st.integers(0, 7), st.integers(1, 255)),
        st.tuples(st.just("sweep"), st.integers(0, 7)),
        st.tuples(st.just("clear"), st.integers(0, 63), st.integers(0, 7)),
        st.tuples(st.just("shrink"), st.integers(0, 63), st.integers(0, 255)),
        st.tuples(st.just("deactivate"), st.integers(0, 63)),
    ),
    max_size=40,
)


def _apply_live_mask_op(system, mm, posted, op):
    """One step of :class:`TestLiveMasks` on one leg; returns whether a
    post was accepted."""
    coherence = system.kernel.coherence
    kind = op[0]
    if kind == "post":
        _, owner, mask = op
        state = SoaLatrState(
            vrange=VirtRange.from_pages(0x100 + 4 * len(posted), 2),
            mm=mm,
            cpu_bitmask=mask,
            flag=LatrFlag.FREE,
            owner_core=owner,
            posted_at=system.sim.now,
            done=Signal(system.sim),
            reclaimed=True,
        )
        if not coherence.queues[owner].post(state):
            return False
        posted.append(state)
        return True
    if kind == "sweep":
        coherence.sweep(system.machine.core(op[1]))
        return True
    if not posted:
        return True
    state = posted[op[1] % len(posted)]
    if kind == "clear":
        state.clear_cpu(op[2], system.sim.now)
    elif kind == "shrink":
        state.cpu_bitmask = {c for c in state.cpu_bitmask if op[2] >> c & 1}
    else:
        state.active = False
    return True


def _read_masks(system, posted):
    """Every slot's cpu mask (None for an empty slot) and every posted
    state's, as core-id sets; slots are read through one ``live_masks``
    pass per queue, which per-slot ``live_mask`` agrees with."""
    coherence = system.kernel.coherence
    slots = []
    for queue in coherence._queue_list:
        masks = coherence.live_masks(queue)
        assert masks == [coherence.live_mask(queue, i) for i in range(queue.depth)]
        slots.append([
            None if state is None else {c for c in range(8) if mask >> c & 1}
            for state, mask in zip(queue._slots, masks)
        ])
    return slots, [set(state.cpu_bitmask) for state in posted]


class TestLiveMasks:
    """The inbox sweep's one-pass masks (``LatrCoherence.live_masks``,
    which the model checker's hash and enabled actions read, derived from
    the sweep cursors) against the full scan's, which clears each bit as
    its core sweeps, in lockstep through posts, sweeps, ``clear_cpu`` /
    ``set_live_mask`` shrinks and deactivations, over narrow (at most 4 of
    8 cores) and wide states."""

    @settings(max_examples=40, deadline=None)
    @given(ops=_LIVE_MASK_OPS)
    def test_one_pass_masks_match_full_scan(self, ops):
        legs = []
        for use_sweep_index in (True, False):
            system = build_system(
                "latr", cores=8, queue_depth=4, use_sweep_index=use_sweep_index
            )
            legs.append((system, system.kernel.create_process("p").mm, []))
        for op in ops:
            accepted = [_apply_live_mask_op(*leg, op) for leg in legs]
            assert accepted[0] == accepted[1], op
            inbox_masks, full_masks = (
                _read_masks(system, posted) for system, _mm, posted in legs
            )
            assert inbox_masks == full_masks, op


def _old_target_ids(machine, cpumask, initiator_id, counter):
    """The per-core loop ``select_targets`` replaced (reference model),
    over ``cpumask`` as a set of core ids."""
    targets = []
    for core_id in sorted(c for c in cpumask if c != initiator_id):
        core = machine.cores[core_id]
        if core.lazy_tlb_mode:
            core.needs_flush_on_wake = True
            counter[0] += 1
            continue
        targets.append(core_id)
    return targets


def _old_sharer_hop_counts(topology, core_id, sharers):
    counts = {}
    for other in sorted(sharers):
        if other != core_id:
            hops = topology.core_hops(core_id, other)
            counts[hops] = counts.get(hops, 0) + 1
    return counts


def _old_abis_targets(machine, sharers, cpumask, initiator_id):
    """ABIS's sharer filter as the loop over id sets it replaced."""
    targets = []
    for core_id in sorted((sharers - {initiator_id}) & cpumask):
        core = machine.cores[core_id]
        if core.lazy_tlb_mode:
            core.needs_flush_on_wake = True
            continue
        targets.append(core_id)
    return targets


def _posted_mask(coherence, core, mm):
    """The cpu mask of the state ``shootdown_free`` posts for one page of
    ``mm`` (None when it posts none), read before any sweep. The state is
    then retired, so the next call finds its slot free."""
    pending = coherence._pending_reclaim
    posted = len(pending)
    # The yielded Timeouts are the initiator's charges: no simulated time
    # has to pass for the post itself.
    for _ in coherence.shootdown_free(core, mm, VirtRange.from_pages(0x100, 1), [], None):
        pass
    if len(pending) == posted:
        return None
    state = pending.pop()
    mask = state.queue._mask_a[state.slot_idx]
    state.active = False
    state.reclaimed = True
    return mask


def _wake_flags(machine):
    flags = [core.needs_flush_on_wake for core in machine.cores]
    for core in machine.cores:
        core.needs_flush_on_wake = False
    return flags


_TARGET_MACHINES = ("commodity-2s16c", "large-numa-8s120c", "fleet-16s960c")


@pytest.fixture(scope="module")
def target_systems():
    """One LATR and one ABIS system per machine, built once: each example
    sets every lazy flag and clears every wake flag it reads."""
    return {
        name: (build_system("latr", machine=name), build_system("abis", machine=name))
        for name in _TARGET_MACHINES
    }


def _core_sets(data, n):
    """A sparse or a dense (complemented) set of core ids below ``n``: the
    fleet's posted states target about 900 of its 960 cores."""
    ids = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    return set(range(n)) - ids if data.draw(st.booleans()) else ids


class TestTargetArithmetic:
    """Int-mask arithmetic on the munmap side equals the per-core loops
    over id sets that it replaced, on random cpumasks, lazy-core and
    sharer sets, up to the fleet box's 960-bit masks."""

    @settings(max_examples=60, deadline=None)
    @given(machine_name=st.sampled_from(_TARGET_MACHINES), data=st.data())
    def test_select_targets_and_hop_counts_match_loops(
        self, target_systems, machine_name, data
    ):
        latr_system, abis_system = target_systems[machine_name]
        n = latr_system.machine.n_cores
        cpumask = _core_sets(data, n)
        lazy = _core_sets(data, n)
        sharers = _core_sets(data, n)
        initiator = data.draw(st.integers(min_value=0, max_value=n - 1))
        mm = MmStruct(Simulator())
        for core_id in cpumask:
            mm.mark_running_on(core_id)
        assert mm.cpumask == sum(1 << c for c in cpumask)
        assert mm.shootdown_targets(initiator) == sorted(cpumask - {initiator})
        for system in (latr_system, abis_system):
            for core in system.machine.cores:
                core.lazy_tlb_mode = core.id in lazy
                core.needs_flush_on_wake = False
            assert system.machine.lazy_cores == sum(1 << c for c in lazy)

        machine = latr_system.machine
        counter = [0]
        expected = _old_target_ids(machine, cpumask, initiator, counter)
        expected_flags = _wake_flags(machine)
        skipped = latr_system.stats.counter("shootdown.idle_skipped")
        before = skipped.value
        coherence = latr_system.kernel.coherence
        targets = coherence.select_targets(machine.cores[initiator], mm)
        assert [t.id for t in targets] == expected
        assert skipped.value - before == counter[0]
        assert _wake_flags(machine) == expected_flags
        posted = _posted_mask(coherence, machine.cores[initiator], mm)
        assert posted == (sum(1 << c for c in expected) if expected else None)
        assert _wake_flags(machine) == expected_flags

        topology = machine.topology
        counts = topology.sharer_hop_counts(initiator, mm.cpumask)
        assert list(counts.items()) == list(
            _old_sharer_hop_counts(topology, initiator, cpumask).items()
        )

        machine = abis_system.machine
        abis = abis_system.kernel.coherence
        vrange = VirtRange.from_pages(0x100, 1)
        abis._sharers[(mm.mm_id, vrange.vpn_start)] = set(sharers)
        expected = _old_abis_targets(machine, sharers, cpumask, initiator)
        expected_flags = _wake_flags(machine)
        targets = abis._targets_for_range(machine.cores[initiator], mm, vrange)
        assert [t.id for t in targets] == expected
        assert _wake_flags(machine) == expected_flags

    def test_hop_counts_cover_one_and_two_hops(self):
        topology = Topology(preset("large-numa-8s120c"))
        counts = topology.sharer_hop_counts(0, (1 << 120) - 1)
        assert counts == _old_sharer_hop_counts(topology, 0, range(120))
        assert set(counts) == {0, 1, 2}
