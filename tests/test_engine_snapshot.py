"""Engine fork/restore and pending() bookkeeping tests.

Covers the satellite regressions that ride with the snapshot work:

* ``EventHandle.cancel()`` racing a generator-bodied ``every()`` -- the
  series must stop even when the cancel lands while the body process is
  mid-flight, and ``pending()`` must stay exact throughout.
* The ``_pending_live`` audit across cancellation and
  :meth:`Simulator.fork` / :meth:`Simulator.restore`, including a
  hypothesis property test interleaving schedule/cancel/fork/restore
  against a shadow model.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sim.engine import SimulationError, Simulator, Timeout

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _sim(hooked: bool) -> Simulator:
    """A simulator on the plain dispatch loop, or on the ready-set loop a
    choice hook selects (a hook returning None keeps the default order)."""
    return Simulator(choice_hook=(lambda ready: None) if hooked else None)


class TestCancelVsEvery:
    """Satellite: EventHandle.cancel() vs generator-bodied every()."""

    @pytest.mark.parametrize("hooked", [True, False])
    def test_cancel_from_inside_plain_callback(self, hooked):
        sim = _sim(hooked)
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 3:
                handle.cancel()

        handle = sim.every(100, tick)
        assert sim.pending() == 1
        sim.run(until=10_000)
        assert fired == [100, 200, 300]
        assert sim.pending() == 0

    @pytest.mark.parametrize("hooked", [True, False])
    def test_cancel_from_inside_generator_body(self, hooked):
        # The body runs as a Process at each firing; a cancel issued from
        # *inside* the body must suppress the re-arm that happens when the
        # body completes, with no further firings afterwards.
        sim = _sim(hooked)
        fired = []

        def body():
            fired.append(sim.now)
            yield Timeout(10)
            if len(fired) == 2:
                handle.cancel()
            yield Timeout(10)

        handle = sim.every(100, body)
        sim.run(until=10_000)
        # Firing 1 at t=100, body completes at 120, re-arm for 220.
        # Firing 2 at t=220, cancel lands at 230, body completes at 240,
        # the done-callback re-arm sees the cancel and stands down.
        assert fired == [100, 220]
        assert sim.pending() == 0

    def test_cancel_during_body_keeps_pending_exact(self):
        # While the body runs, the series handle is not resident in any
        # queue; cancel() must not double-decrement the live count (the
        # handle's own pending slot was already consumed by the firing).
        sim = Simulator()
        observed = []

        def body():
            yield Timeout(5)
            handle.cancel()
            handle.cancel()  # idempotent: second cancel is a no-op
            observed.append(sim.pending())

        handle = sim.every(50, body)
        assert sim.pending() == 1
        sim.run(until=400)
        assert observed == [0]
        assert sim.pending() == 0

    def test_cancel_between_firings_stops_series(self):
        sim = Simulator()
        fired = []
        handle = sim.every(100, lambda: fired.append(sim.now))
        sim.run(until=250)
        assert fired == [100, 200]
        assert sim.pending() == 1  # re-armed for t=300
        handle.cancel()
        assert sim.pending() == 0
        sim.run(until=1_000)
        assert fired == [100, 200]


class TestPendingBookkeepingAudit:
    """Satellite: _pending_live across cancellation and fork/restore."""

    @pytest.mark.parametrize("hooked", [True, False])
    def test_fork_restore_roundtrip_counts(self, hooked):
        sim = _sim(hooked)
        log = []
        handles = [sim.after(10 * (i + 1), log.append, i) for i in range(6)]
        sim.run(until=25)
        assert log == [0, 1]
        snap = sim.fork()
        base = sim.pending()
        assert base == 4
        handles[2].cancel()
        for i in range(5):
            sim.after(1_000 + i, log.append, 100 + i)
        assert sim.pending() == base - 1 + 5
        sim.restore(snap)
        assert sim.pending() == base
        assert sim.now == 25
        sim.run()
        assert log == [0, 1, 2, 3, 4, 5]

    def test_snapshot_restorable_more_than_once(self):
        sim = Simulator()
        fired = []
        sim.after(10, fired.append, "a")
        snap = sim.fork()
        for _ in range(3):
            sim.run()
            assert sim.pending() == 0
            sim.restore(snap)
            assert sim.pending() == 1
        assert fired == ["a", "a", "a"]

    def test_fork_refuses_mid_run(self):
        sim = Simulator()
        failures = []

        def try_fork():
            try:
                sim.fork()
            except SimulationError:
                failures.append("refused")

        sim.after(5, try_fork)
        sim.run()
        assert failures == ["refused"]

    def test_fork_refuses_live_process_continuation(self):
        sim = Simulator()

        def proc():
            yield Timeout(100)

        sim.spawn(proc())
        sim.run(until=10)  # process now parked on the Timeout
        with pytest.raises(SimulationError, match="generator continuation"):
            sim.fork()


class TestScheduleCancelForkRestoreProperty:
    """Hypothesis audit: pending() must track a shadow model under any
    interleaving of schedule, cancel, run, fork and restore."""

    @SETTINGS
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("sched"),
                    st.one_of(
                        st.integers(0, 12_288),
                        st.integers(0, 4_194_304),
                    ),
                ),
                st.tuples(st.just("cancel"), st.integers(0, 1_000)),
                st.tuples(st.just("run"), st.integers(0, 8_192)),
                st.tuples(st.just("fork"), st.just(0)),
                st.tuples(st.just("restore"), st.just(0)),
            ),
            max_size=40,
        ),
    )
    def test_pending_matches_shadow_model(self, ops):
        sim = Simulator()
        fired = []
        live = {}  # handle -> None: the shadow model of live one-shots
        snap = None  # (engine snapshot, shadow copy)
        for op, arg in ops:
            if op == "sched":
                live[sim.after(arg, fired.append, None)] = None
            elif op == "cancel" and live:
                ordered = sorted(live, key=lambda h: (h.time, h.seq))
                victim = ordered[arg % len(ordered)]
                victim.cancel()
                del live[victim]
            elif op == "run":
                sim.run(until=sim.now + arg)
                for h in [h for h in live if h.time <= sim.now]:
                    del live[h]
            elif op == "fork":
                snap = (sim.fork(), dict(live))
            elif op == "restore" and snap is not None:
                sim.restore(snap[0])
                live = dict(snap[1])
            assert sim.pending() == len(live)
        # Drain: every live handle fires exactly once, nothing else does.
        assert sim.run() == len(live)
        assert sim.pending() == 0
