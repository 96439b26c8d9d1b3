"""Two-level translation (virtualization) test suite.

Covers the virtualization axis end to end:

* the ``use_virtualization`` escape hatch: off-mode runs are
  *byte-identical* to flat runs (stats summaries, canonical end states,
  and simulated time, across fuzz seeds) and carry no ``virt.*`` counters,
* a hypothesis shadow-model property: after any populate/invalidate
  sequence the host (EPT) table agrees entry-by-entry with a pair of flat
  shadow dicts, and every 2D walk composes to the same host frame,
* the 2D walk-cost model: step counts and charged nanoseconds match the
  latency table, parameterized across hugepage short-circuits,
* snapshot/restore round-trips host-table state hash-exactly,
* the ``broken_ept_shootdown`` mutation is caught by the invariant
  monitor (the fuzzer leg) and by the model checker's mutation audit.
"""

from __future__ import annotations

import hashlib
import pickle

import hypothesis.strategies as st
import pytest
from helpers import make_proc, run_to_completion
from hypothesis import HealthCheck, given, settings

from repro import build_system
from repro.hw.latency import LatencyModel
from repro.mm.addr import PAGE_SIZE
from repro.mm.pagetable import LEVELS, HostPageTable
from repro.snapshot import restore_kernel, snapshot_kernel
from repro.verify import generate_plan, run_one
from repro.verify.mc import McConfig, McScope, run_mc


# ---------------------------------------------------------------------------
# Escape hatch: off-mode is byte-identical to the flat baseline
# ---------------------------------------------------------------------------


#: The 50-op plans of seeds 1-3, and seed 1's 60-op plan (the scope of
#: the mutation tests below).
_PLANS = [(1, 50), (2, 50), (3, 50), (1, 60)]


class TestEscapeHatch:
    @pytest.mark.parametrize("seed, ops", _PLANS, ids=["1", "2", "3", "1-60ops"])
    def test_virtualization_off_is_flat_exactly(self, seed, ops):
        """With virtualization forced off, every added charge site returns
        zero and no host table exists: event schedule, stats, and end
        state must all be bit-identical to the flat baseline."""
        plan = generate_plan(seed, ops)
        base = run_one("linux", plan)
        off = run_one("linux", plan, use_virtualization=False)
        assert base.clean and off.clean
        assert off.stats_summary == base.stats_summary
        assert off.snapshot == base.snapshot
        assert off.sim_time_ns == base.sim_time_ns

    @pytest.mark.parametrize("mech", ["linux", "latr", "hatric"])
    def test_on_mode_pays_2d_walks_and_host_invalidations(self, mech):
        plan = generate_plan(1, 60)
        on = run_one(mech, plan, use_virtualization=True)
        assert on.clean
        s = on.stats_summary
        assert s.get("count.virt.ept.populations", 0) > 0
        assert s.get("count.virt.walk.2d", 0) > 0
        assert s.get("count.virt.walk.2d_ns", 0) > 0
        assert s.get("count.virt.host_inval.entries", 0) > 0

    def test_off_mode_run_has_no_virt_counters(self):
        for ops in (50, 60):
            off = run_one("latr", generate_plan(1, ops), use_virtualization=False)
            assert not any(k.startswith("count.virt.") for k in off.stats_summary), ops

    def test_lazy_host_invalidation_defers_cost(self):
        """LATR's host policy writes one state synchronously and charges
        the per-entry invalidation off the critical path."""
        plan = generate_plan(1, 60)
        on = run_one("latr", plan, use_virtualization=True)
        assert on.stats_summary.get("count.virt.host_inval.deferred_ns", 0) > 0


# ---------------------------------------------------------------------------
# Hypothesis shadow-model property
# ---------------------------------------------------------------------------


_PFNS = st.integers(min_value=1, max_value=24)
_HOST_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("populate"), _PFNS, st.integers(0, 3)),
        st.tuples(st.just("invalidate"), _PFNS),
    ),
    min_size=1,
    max_size=80,
)


class TestShadowModel:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_HOST_OPS)
    def test_host_table_agrees_with_flat_shadow(self, ops):
        host = HostPageTable()
        gfn_shadow = {}  # pfn -> gfn
        gen_shadow = {}  # gfn -> generation
        minted = 0
        for op in ops:
            if op[0] == "populate":
                _kind, pfn, gen = op
                created = host.populate(pfn, gen)
                if pfn not in gfn_shadow:
                    assert created
                    gfn_shadow[pfn] = minted
                    gen_shadow[minted] = gen
                    minted += 1
                else:
                    assert not created  # idempotent on refill
            else:
                pfn = op[1]
                gfn = host.invalidate_pfn(pfn)
                assert gfn == gfn_shadow.pop(pfn, None)
                if gfn is not None:
                    gen_shadow.pop(gfn)
            # The table mirrors the shadow both ways at every step, and
            # every 2D walk composes to the same host frame the shadow
            # composition yields.
            assert dict(host.gfn_of_pfn) == gfn_shadow
            assert dict(host.generation_of_gfn) == gen_shadow
            assert host.next_gfn == minted
            for pfn, gfn in gfn_shadow.items():
                pte = host.walk_gfn(gfn)
                assert pte is not None and pte.pfn == pfn
            # Invalidated gfns walk to nothing.
            for gfn in range(minted):
                if gfn not in gen_shadow:
                    assert host.walk_gfn(gfn) is None

    def test_system_2d_walks_compose_through_live_host_entries(self):
        """End-to-end composition: after real guest activity, every
        present guest translation's host frame resolves through the host
        table to itself (the 2D walk and the direct walk agree)."""
        system = build_system(
            "latr", machine="commodity-2s16c", use_virtualization=True
        )
        k = system.kernel
        proc, tasks = make_proc(system, n_threads=2)
        core0 = k.machine.core(0)

        def body():
            vr = yield from k.syscalls.mmap(tasks[0], core0, 12 * PAGE_SIZE)
            yield from k.syscalls.touch_pages(tasks[0], core0, vr, write=True)
            yield from k.syscalls.munmap(
                tasks[0], core0,
                type(vr)(vr.start, vr.start + 4 * PAGE_SIZE),
            )

        run_to_completion(system, k.scheduler.run_on(core0, tasks[0], body()))
        host = proc.mm.host_table
        assert host is not None
        checked = 0
        for _vpn, pte in proc.mm.page_table.all_entries():
            if pte.swapped:
                continue
            gfn = host.gfn_of_pfn.get(pte.pfn)
            assert gfn is not None, f"guest frame {pte.pfn} has no host entry"
            assert host.walk_gfn(gfn).pfn == pte.pfn
            assert host.generation_of_gfn[gfn] == k.frames.generation(pte.pfn)
            checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# 2D walk-cost model
# ---------------------------------------------------------------------------


class TestWalkCost:
    @pytest.mark.parametrize(
        "guest,host",
        [(LEVELS, LEVELS), (LEVELS - 1, LEVELS), (LEVELS, LEVELS - 1), (2, 2)],
    )
    def test_step_count_and_charge_match_latency_table(self, guest, host):
        """steps(n, m) = n*m + n + m (each of the n guest refs pays an
        m-step host walk, plus the n guest refs themselves, plus the final
        m-step gPA->hPA translation of the data address); the *extra* over
        a native walk drops the n guest refs already charged as
        tlb_miss_walk_ns."""
        lat = LatencyModel()
        steps = lat.twod_walk_steps(guest, host)
        assert steps == guest * host + guest + host
        assert lat.twod_walk_extra(guest, host) == (
            (steps - guest) * lat.ept_walk_step_ns
        )

    def test_canonical_4_over_4_walk(self):
        lat = LatencyModel()
        assert lat.twod_walk_steps(LEVELS, LEVELS) == 24
        assert lat.twod_walk_extra(LEVELS, LEVELS) == 20 * lat.ept_walk_step_ns

    @pytest.mark.parametrize("huge", [False, True])
    def test_hw_walk_charges_huge_short_circuit(self, huge):
        """A guest hugepage walk skips one guest level, so its 2D extra is
        the (n-1, m) cost; pt_hw_walk must pick the right one per PTE."""
        from repro.mm.pte import make_huge_pte, make_present_pte

        system = build_system(
            "linux", machine="commodity-2s16c", use_virtualization=True
        )
        k = system.kernel
        proc, _tasks = make_proc(system, n_threads=1)
        mm = proc.mm
        lat = k.machine.latency
        if huge:
            mm.page_table.set_huge_pte(0, make_huge_pte(512))
            expected = lat.twod_walk_extra(LEVELS - 1, LEVELS)
        else:
            mm.page_table.set_pte(0, make_present_pte(7))
            expected = lat.twod_walk_extra(LEVELS, LEVELS)
        before = k.stats.counter("virt.walk.2d_ns").value
        pte, extra = k.pt_hw_walk(k.machine.core(0), mm, 0)
        assert pte is not None
        assert extra == expected
        assert k.stats.counter("virt.walk.2d_ns").value - before == expected

    def test_interconnect_invept_matches_hop_table(self):
        """The per-node INVEPT kick API composes the hop matrix with the
        per-hop latency row, like pt_walk_cost does for walks."""
        system = build_system("linux", machine="large-numa-8s120c")
        ic = system.machine.interconnect
        lat = system.machine.latency
        topo = system.machine.topology
        for dst in range(system.machine.spec.sockets):
            assert ic.ept_invept_cost(0, dst) == lat.ept_invept_vcpu(
                topo.socket_hops(0, dst)
            )
        # Same-node kicks still pay the local (0-hop) cost, never zero.
        assert ic.ept_invept_cost(2, 2) == lat.ept_invept_vcpu(0) > 0

    def test_flat_walk_charges_nothing(self):
        from repro.mm.pte import make_present_pte

        system = build_system("linux", machine="commodity-2s16c")
        k = system.kernel
        proc, _tasks = make_proc(system, n_threads=1)
        proc.mm.page_table.set_pte(0, make_present_pte(7))
        _pte, extra = k.pt_hw_walk(k.machine.core(0), proc.mm, 0)
        assert extra == 0
        assert not any(
            name.startswith("virt.") for name in k.stats.counters_snapshot()
        )


# ---------------------------------------------------------------------------
# Snapshot/restore round-trip
# ---------------------------------------------------------------------------


def _host_sig(kernel) -> str:
    mm = next(
        m for m in kernel.mm_registry.values() if m.host_table is not None
    )
    host = mm.host_table
    blob = pickle.dumps(
        (
            sorted(host.all_entries()),
            sorted(host.gfn_of_pfn.items()),
            sorted(host.generation_of_gfn.items()),
            host.next_gfn,
            len(host),
            host.table_pages_allocated,
        ),
        4,
    )
    return hashlib.blake2b(blob).hexdigest()


class TestSnapshotRoundTrip:
    def test_host_table_round_trips_hash_exact(self):
        system = build_system(
            "linux", machine="commodity-2s16c", use_virtualization=True
        )
        k = system.kernel
        proc, tasks = make_proc(system, n_threads=1)
        core0 = k.machine.core(0)

        def body():
            vr = yield from k.syscalls.mmap(tasks[0], core0, 8 * PAGE_SIZE)
            yield from k.syscalls.touch_pages(tasks[0], core0, vr, write=True)
            return vr

        vr = run_to_completion(system, k.scheduler.run_on(core0, tasks[0], body()))
        host = proc.mm.host_table
        assert host is not None and host.next_gfn > 0

        sig0 = _host_sig(k)
        snap = snapshot_kernel(k)

        def unmap():
            yield from k.syscalls.munmap(tasks[0], core0, vr)

        run_to_completion(system, k.scheduler.run_on(core0, tasks[0], unmap()))
        # The unmap freed frames, so host entries were detached.
        assert _host_sig(k) != sig0

        restore_kernel(k, snap)
        assert _host_sig(k) == sig0
        # Restore is identity-preserving and the world still runs.
        assert proc.mm.host_table is host
        run_to_completion(system, k.scheduler.run_on(core0, tasks[0], unmap()))
        assert _host_sig(k) != sig0


# ---------------------------------------------------------------------------
# Mutation detection (fuzzer and MC legs)
# ---------------------------------------------------------------------------


class TestBrokenEptDetection:
    def test_monitor_flags_broken_ept_shootdown(self):
        plan = generate_plan(1, 60)
        result = run_one("latr", plan, mutate="broken_ept_shootdown")
        assert result.violations
        assert any(v.check == "ept_coherence" for v in result.violations)

    def test_healthy_virtualized_run_same_plan_is_clean(self):
        plan = generate_plan(1, 60)
        result = run_one("latr", plan, use_virtualization=True)
        assert result.violations == []
        assert result.errors == []

    def test_mc_audit_catches_broken_ept_shootdown(self):
        audit = run_mc(
            McConfig(
                scope=McScope(
                    cores=2, pages=2, ops=5, mutate="broken_ept_shootdown"
                )
            )
        )
        assert audit.verdict == "violation"
        ce = audit.counterexample
        assert ce is not None and ce.shrunk is not None
        assert any("ept_coherence" in f for f in ce.findings)
