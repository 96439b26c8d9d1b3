"""Replicated per-NUMA-node page tables (numaPTE) test suite.

Covers the replica-coherence policy layer end to end:

* the ``use_pt_replication`` escape hatch: off-mode numaPTE degenerates to
  the Linux baseline *byte-identically* (stats summaries and canonical end
  states, across fuzz seeds),
* a hypothesis shadow-model property: after any mutation sequence, every
  materialized replica agrees entry-by-entry with a flat shadow dict,
* snapshot/restore round-trips the whole replica set hash-exactly,
* the ``broken_replica`` mutation is caught by the invariant monitor (the
  fuzzer leg; the model-checker leg lives in test_mc's mutation audit),
* walk-placement accounting: replication eliminates remote hardware walks
  for numaPTE while single-table mechanisms with hop-aware charging pay
  for them,
* a work budget: exact walk, materialization and mirror counts on the
  sweep-stress driver.
"""

from __future__ import annotations

import hashlib
import pickle

import hypothesis.strategies as st
import pytest
from helpers import count_calls, make_proc, run_to_completion
from hypothesis import HealthCheck, given, settings

from repro import build_system
from repro.mm.addr import HUGE_PAGE_PAGES, PAGE_SIZE, VirtRange
from repro.mm.pagetable import PageTable, ReplicatedPageTable
from repro.mm.pte import make_huge_pte, make_present_pte
from repro.snapshot import restore_kernel, snapshot_kernel
from repro.verify import generate_plan, run_one
from repro.workloads.stress import run_sweep_stress


# ---------------------------------------------------------------------------
# Escape hatch: off-mode is byte-identical to the Linux baseline
# ---------------------------------------------------------------------------


#: The 50-op plans of seeds 1-3, and seed 1's 60-op plan (the scope of
#: the mutation tests below).
_PLANS = [(1, 50), (2, 50), (3, 50), (1, 60)]


class TestEscapeHatch:
    @pytest.mark.parametrize("seed, ops", _PLANS, ids=["1", "2", "3", "1-60ops"])
    def test_numapte_off_degenerates_to_linux_exactly(self, seed, ops):
        """With replication forced off, numaPTE is LinuxShootdown plus a
        facade that is never built: event schedule, stats, and end state
        must all be bit-identical to the Linux baseline."""
        plan = generate_plan(seed, ops)
        base = run_one("linux", plan)
        off = run_one("numapte", plan, use_pt_replication=False)
        assert base.clean and off.clean
        assert off.stats_summary == base.stats_summary
        assert off.snapshot == base.snapshot
        assert off.sim_time_ns == base.sim_time_ns

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_replication_on_preserves_functional_end_state(self, seed):
        """Replication changes timing (fan-out charge, local walks), never
        the functional outcome: the canonical end state must match the
        baseline on every seed."""
        plan = generate_plan(seed, 50)
        base = run_one("linux", plan)
        on = run_one("numapte", plan)
        assert base.clean and on.clean
        assert on.snapshot == base.snapshot

    def test_on_mode_actually_replicates(self):
        for ops in (50, 60):
            on = run_one("numapte", generate_plan(1, ops))
            counters = {
                k: v for k, v in on.stats_summary.items() if k.startswith("count.pt.")
            }
            assert counters.get("count.pt.replica.updates", 0) > 0, ops
            assert counters.get("count.pt.walk.local", 0) > 0, ops
            # The whole point: replicated walks are never remote.
            assert "count.pt.walk.remote" not in counters, ops

    def test_off_mode_run_has_no_replication_counters(self):
        for ops in (50, 60):
            off = run_one("numapte", generate_plan(1, ops), use_pt_replication=False)
            assert not any(k.startswith("count.pt.") for k in off.stats_summary), ops


# ---------------------------------------------------------------------------
# Hypothesis shadow-model property
# ---------------------------------------------------------------------------


_VPNS = st.integers(min_value=0, max_value=4 * HUGE_PAGE_PAGES - 1)
_HUGE_BASES = st.sampled_from([0, HUGE_PAGE_PAGES, 2 * HUGE_PAGE_PAGES])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _VPNS, st.integers(1, 1 << 20)),
        st.tuples(st.just("clear"), _VPNS),
        st.tuples(st.just("update"), _VPNS, st.integers(1, 1 << 20)),
        st.tuples(st.just("set_huge"), _HUGE_BASES, st.integers(1, 1 << 20)),
        st.tuples(st.just("clear_huge"), _HUGE_BASES),
        st.tuples(st.just("walk_from"), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=60,
)


class TestShadowModel:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_every_replica_agrees_with_flat_shadow(self, ops):
        pt = ReplicatedPageTable(nodes=4)
        shadow = {}  # vpn (or ("huge", base)) -> Pte

        def huge_covering(vpn):
            base = (vpn // HUGE_PAGE_PAGES) * HUGE_PAGE_PAGES
            return ("huge", base) if ("huge", base) in shadow else None

        for op in ops:
            kind = op[0]
            if kind == "set":
                vpn, pfn = op[1], op[2]
                if huge_covering(vpn):
                    continue  # set_pte under a huge mapping raises
                pte = make_present_pte(pfn)
                pt.set_pte(vpn, pte)
                shadow[vpn] = pte
            elif kind == "clear":
                vpn = op[1]
                pt.clear_pte(vpn)
                shadow.pop(vpn, None)
            elif kind == "update":
                vpn, pfn = op[1], op[2]
                key = huge_covering(vpn)
                if key is not None:
                    pte = make_huge_pte(pfn)
                    pt.update_pte(vpn, pte)
                    shadow[key] = pte
                elif vpn in shadow:
                    pte = make_present_pte(pfn)
                    pt.update_pte(vpn, pte)
                    shadow[vpn] = pte
            elif kind == "set_huge":
                base, pfn = op[1], op[2]
                covered = range(base, base + HUGE_PAGE_PAGES)
                if any(v in shadow for v in covered):
                    continue  # 4K entries block the huge install
                pte = make_huge_pte(pfn)
                pt.set_huge_pte(base, pte)
                shadow[("huge", base)] = pte
            elif kind == "clear_huge":
                base = op[1]
                pt.clear_huge_pte(base)
                shadow.pop(("huge", base), None)
            else:  # walk_from: materializes that node's replica
                pt.local_table(op[1])

            expected = sorted(
                (k[1] if isinstance(k, tuple) else k, pte)
                for k, pte in shadow.items()
            )
            assert sorted(pt.all_entries()) == expected
            for node, replica in pt.replicas().items():
                assert sorted(replica.all_entries()) == expected, f"node {node}"

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_pending_counts_cover_every_mirrored_update(self, ops):
        """Drained pending counts must sum to the lifetime fan-out count."""
        pt = ReplicatedPageTable(nodes=2)
        pt.local_table(1)
        drained = 0
        for i, op in enumerate(ops):
            if op[0] == "set":
                pt.set_pte(op[1], make_present_pte(op[2]))
            elif op[0] == "clear":
                pt.clear_pte(op[1])
            if i % 7 == 0:
                drained += sum(n for _node, n in pt.take_pending_updates())
        drained += sum(n for _node, n in pt.take_pending_updates())
        assert drained == pt.replica_updates
        assert pt.take_pending_updates() == ()


# ---------------------------------------------------------------------------
# Snapshot/restore round-trip
# ---------------------------------------------------------------------------


def _facade_sig(kernel) -> str:
    mm = next(iter(kernel.mm_registry.values()))
    pt = mm.page_table
    repl = {
        node: (sorted(r.all_entries()), len(r), r.table_pages_allocated)
        for node, r in pt.replicas().items()
    }
    blob = pickle.dumps(
        (
            sorted(pt.all_entries()),
            dict(pt._pending_updates),
            pt.replica_updates,
            pt.replica_materializations,
            repl,
        ),
        4,
    )
    return hashlib.blake2b(blob).hexdigest()


class TestSnapshotRoundTrip:
    def _touch(self, system, task, core_id, vrange, write):
        core = system.kernel.machine.core(core_id)
        sc = system.kernel.syscalls
        return run_to_completion(
            system,
            system.kernel.scheduler.run_on(
                core, task, sc.touch_pages(task, core, vrange, write=write)
            ),
        )

    def test_replica_set_round_trips_hash_exact(self):
        system = build_system("numapte", machine="commodity-2s16c")
        k = system.kernel
        proc, tasks = make_proc(system)
        core0 = k.machine.core(0)

        def body():
            vr = yield from k.syscalls.mmap(tasks[0], core0, 16 * PAGE_SIZE)
            yield from k.syscalls.touch_pages(tasks[0], core0, vr, write=True)
            return vr

        vr = run_to_completion(
            system, k.scheduler.run_on(core0, tasks[0], body())
        )
        # A read from the remote socket materializes node 1's replica.
        self._touch(system, tasks[8], 8, vr, write=False)
        pt = proc.mm.page_table
        assert isinstance(pt, ReplicatedPageTable)
        assert pt.replica_materializations == 1 and list(pt.replicas()) == [1]

        sig0 = _facade_sig(k)
        snap = snapshot_kernel(k)

        def unmap():
            half = VirtRange(vr.start, vr.start + 8 * PAGE_SIZE)
            yield from k.syscalls.munmap(tasks[0], core0, half)

        run_to_completion(system, k.scheduler.run_on(core0, tasks[0], unmap()))
        assert _facade_sig(k) != sig0

        restore_kernel(k, snap)
        assert _facade_sig(k) == sig0
        # Restore is identity-preserving: same facade and replica objects.
        assert proc.mm.page_table is pt
        # And the restored world still runs: replay the unmap.
        run_to_completion(system, k.scheduler.run_on(core0, tasks[0], unmap()))
        assert _facade_sig(k) != sig0

    def test_replica_materialized_after_snapshot_is_dropped_on_restore(self):
        system = build_system("numapte", machine="commodity-2s16c")
        k = system.kernel
        proc, tasks = make_proc(system, n_threads=1)
        core0 = k.machine.core(0)

        def body():
            vr = yield from k.syscalls.mmap(tasks[0], core0, 4 * PAGE_SIZE)
            yield from k.syscalls.touch_pages(tasks[0], core0, vr, write=True)

        run_to_completion(system, k.scheduler.run_on(core0, tasks[0], body()))
        pt = proc.mm.page_table
        snap = snapshot_kernel(k)
        assert pt.replicas() == {}
        pt.local_table(1)  # materialize after the snapshot
        assert list(pt.replicas()) == [1]
        restore_kernel(k, snap)
        assert pt.replicas() == {}
        assert pt.replica_materializations == 0


# ---------------------------------------------------------------------------
# Mutation detection (fuzzer leg; MC leg: test_mc TestMutationAudit)
# ---------------------------------------------------------------------------


class TestBrokenReplicaDetection:
    def test_monitor_flags_broken_replica(self):
        plan = generate_plan(1, 60)
        result = run_one("latr", plan, mutate="broken_replica")
        assert result.violations
        assert any(v.check == "replica_coherence" for v in result.violations)

    def test_healthy_numapte_same_plan_is_clean(self):
        plan = generate_plan(1, 60)
        result = run_one("numapte", plan)
        assert result.violations == []
        assert result.errors == []


# ---------------------------------------------------------------------------
# Walk placement accounting
# ---------------------------------------------------------------------------


class TestWalkPlacement:
    def test_single_table_with_hop_charging_pays_remote_walks(self):
        """Force the hop-aware walk model on for plain Linux: the single
        table lives on node 0, so walks from the remote socket show up as
        remote and carry nanoseconds."""
        plan = generate_plan(2, 50)
        res = run_one("linux", plan, use_pt_replication=True)
        assert res.clean
        remote = res.stats_summary.get("count.pt.walk.remote", 0)
        remote_ns = res.stats_summary.get("count.pt.walk.remote_ns", 0)
        assert remote > 0
        assert remote_ns > 0
        # No facade is built for a mechanism that does not want replicas.
        assert res.stats_summary.get("count.pt.replica.updates", 0) == 0

    def test_numapte_eliminates_remote_walks_on_same_plan(self):
        plan = generate_plan(2, 50)
        res = run_one("numapte", plan)
        assert res.clean
        assert res.stats_summary.get("count.pt.walk.remote", 0) == 0
        assert res.stats_summary.get("count.pt.walk.local", 0) > 0


# ---------------------------------------------------------------------------
# Work budget
# ---------------------------------------------------------------------------


class TestReplicationWorkBudget:
    def test_sweep_stress_on_the_120_core_box(self, monkeypatch):
        """Exact replication work on 4 simulated ms of the sweep-stress
        driver: 4 reps of mmap / write touch of 4 pages on core 0 / 4
        remote read touches / munmap. The facade adds no walk over the
        single table and materializes each of the 4 remote nodes that
        walk once. Of its 32 mirrored mutations, the first rep's 4
        installs find no replica yet; the other 12 installs and all 16
        clears fan out, 96 replica updates in all."""
        calls = count_calls(
            monkeypatch,
            (PageTable, "walk"),
            (ReplicatedPageTable, "_materialize"),
            (ReplicatedPageTable, "_mirror"),
        )
        # The mirrored mutations that find a replica to fan out to, by op.
        mirror = ReplicatedPageTable._mirror

        def counting_fan_outs(self, method, *args):
            if self._replicas:
                calls[method] = calls.get(method, 0) + 1
            return mirror(self, method, *args)

        monkeypatch.setattr(ReplicatedPageTable, "_mirror", counting_fan_outs)
        run_sweep_stress(4, mechanism="numapte", use_pt_replication=False)
        single_table = dict(calls)
        summary = run_sweep_stress(4, mechanism="numapte")
        replicated = {
            name: calls[name] - single_table.get(name, 0) for name in calls
        }
        assert single_table == {"walk": 176, "_materialize": 0, "_mirror": 0}
        assert replicated == {
            "walk": 176, "_materialize": 4, "_mirror": 32, "set_pte": 12,
            "clear_pte": 16,
        }
        assert summary["count.pt.replica.updates"] == 96
        assert "count.pt.walk.remote" not in summary
