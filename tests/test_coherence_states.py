"""Unit tests for LATR state records and the per-core cyclic queue."""

import pytest

from repro.coherence.states import (
    DEFAULT_QUEUE_DEPTH,
    STATE_BYTES,
    LatrFlag,
    SoaLatrQueue,
    SoaLatrState,
)
from repro.mm.addr import VirtRange
from repro.mm.mmstruct import MmStruct
from repro.sim.engine import Signal, Simulator


def make_state(sim=None, cpus=(1, 2), flag=LatrFlag.FREE, reclaimed_ok=True):
    sim = sim or Simulator()
    mm = MmStruct(sim)
    state = SoaLatrState(
        vrange=VirtRange.from_pages(10, 1),
        mm=mm,
        cpu_bitmask=set(cpus),
        flag=flag,
        owner_core=0,
        posted_at=0,
        done=Signal(sim),
    )
    return state


class TestLatrState:
    def test_paper_constants(self):
        assert DEFAULT_QUEUE_DEPTH == 64
        assert STATE_BYTES == 68

    def test_clear_cpu_progression(self):
        state = make_state(cpus=(1, 2))
        assert state.clear_cpu(1, now=5) is False
        assert state.active
        assert state.clear_cpu(2, now=9) is True
        assert not state.active
        assert state.completed_at == 9
        assert state.done.triggered

    def test_clear_unknown_cpu_harmless(self):
        state = make_state(cpus=(1,))
        state.clear_cpu(7, now=1)
        assert state.active

    def test_done_fires_once(self):
        state = make_state(cpus=(1,))
        state.clear_cpu(1, now=1)
        # A second clear of an empty mask must not re-trigger.
        state.clear_cpu(1, now=2)
        assert state.completed_at == 1


class TestLatrStateQueue:
    def test_post_and_iterate(self):
        q = SoaLatrQueue(core_id=0, depth=4)
        s = make_state()
        assert q.post(s)
        assert list(q.active_states()) == [s]
        assert q.posts == 1

    def test_full_queue_rejects(self):
        """Paper section 8: full queue -> fall back to IPIs."""
        q = SoaLatrQueue(core_id=0, depth=2)
        assert q.post(make_state())
        assert q.post(make_state())
        assert not q.post(make_state())
        assert q.full_rejections == 1

    def test_inactive_but_unreclaimed_slot_not_reusable(self):
        """A FREE state must survive until the reclaim daemon ran."""
        q = SoaLatrQueue(core_id=0, depth=1)
        s = make_state(cpus=(1,))
        assert q.post(s)
        s.clear_cpu(1, now=1)
        assert not s.active
        assert not q.post(make_state())  # still pinned: not reclaimed
        s.reclaimed = True
        assert q.post(make_state())

    def test_cyclic_reuse(self):
        q = SoaLatrQueue(core_id=0, depth=2)
        states = [make_state(cpus=(1,)) for _ in range(4)]
        for i, s in enumerate(states):
            s.reclaimed = True  # pretend reclamation is instant
            s.active = False
        for s in states:
            assert q.post(s)
        assert q.posts == 4

    def test_occupancy(self):
        q = SoaLatrQueue(core_id=0, depth=4)
        s1, s2 = make_state(), make_state(cpus=(1,))
        q.post(s1)
        q.post(s2)
        assert q.occupancy() == 2
        s2.clear_cpu(1, now=1)
        s2.reclaimed = True
        assert q.occupancy() == 1

    def test_footprint_matches_paper(self):
        q = SoaLatrQueue(core_id=0)
        assert q.footprint_bytes() == 64 * 68

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            SoaLatrQueue(0, depth=0)


class TestQueueDepthBoundary:
    """The cyclic ring at its depth limit."""

    def test_overflow_rejected_at_depth(self):
        q = SoaLatrQueue(core_id=0, depth=3)
        sim = Simulator()
        for _ in range(3):
            assert q.post(make_state(sim)) is True
        assert q.occupancy() == 3
        assert q.active_count == 3
        overflow = make_state(sim)
        assert q.post(overflow) is False
        assert q.full_rejections == 1
        assert q.posts == 3
        # The rejected state never joined the ring.
        assert overflow not in list(q.all_states())

    def test_slot_reuse_after_deactivate_and_reclaim(self):
        q = SoaLatrQueue(core_id=0, depth=2)
        sim = Simulator()
        first = make_state(sim, cpus=(1,))
        second = make_state(sim, cpus=(1,))
        q.post(first)
        q.post(second)
        # Inactive alone is not reusable (FREE records must outlive the
        # reclamation daemon); the cursor slot still blocks the post.
        first.clear_cpu(1, now=5)
        assert q.post(make_state(sim)) is False
        first.reclaimed = True
        replacement = make_state(sim)
        assert q.post(replacement) is True
        assert replacement.slot_idx == first.slot_idx
        # The recycled state keeps its exact final values off-ring.
        assert not first.active
        assert first.reclaimed
        assert first.completed_at == 5
        assert sorted(first.cpu_bitmask) == []

    def test_occupancy_counts_unreclaimed_inactive(self):
        q = SoaLatrQueue(core_id=0, depth=4)
        sim = Simulator()
        s1 = make_state(sim, cpus=(1,))
        s2 = make_state(sim, cpus=(2,))
        q.post(s1)
        q.post(s2)
        assert q.occupancy() == 2
        s1.clear_cpu(1, now=1)
        assert q.active_count == 1
        # Still occupied: inactive but not yet reclaimed.
        assert q.occupancy() == 2
        s1.reclaimed = True
        assert q.occupancy() == 1

    def test_footprint_independent_of_occupancy(self):
        q = SoaLatrQueue(core_id=0, depth=8)
        assert q.footprint_bytes() == 8 * STATE_BYTES
        q.post(make_state())
        assert q.footprint_bytes() == 8 * STATE_BYTES
