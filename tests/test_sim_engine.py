"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    MSEC,
    SEC,
    USEC,
    AllOf,
    Signal,
    SimulationError,
    Simulator,
    Timeout,
)


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.after(30, order.append, "c")
        sim.after(10, order.append, "a")
        sim.after(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.after(5, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.after(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_absolute_scheduling(self):
        sim = Simulator()
        sim.after(10, lambda: None)
        sim.run()
        sim.at(100, lambda: None)
        sim.run()
        assert sim.now == 100

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.after(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.after(10, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.after(10, fired.append, 1)
        sim.after(100, fired.append, 2)
        sim.run(until=50)
        assert fired == [1]
        assert sim.now == 50
        sim.run()
        assert fired == [1, 2]

    def test_run_until_exact_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.after(50, fired.append, 1)
        sim.run(until=50)
        assert fired == [1]

    def test_max_events_limit(self):
        sim = Simulator()
        fired = []
        for _ in range(10):
            sim.after(1, fired.append, 1)
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_pending_counts_uncancelled(self):
        sim = Simulator()
        h1 = sim.after(10, lambda: None)
        sim.after(20, lambda: None)
        h1.cancel()
        assert sim.pending() == 1

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.after(5, order.append, "nested")

        sim.after(10, first)
        sim.run()
        assert order == ["first", "nested"]
        assert sim.now == 15

    def test_time_constants(self):
        assert USEC == 1_000
        assert MSEC == 1_000_000
        assert SEC == 1_000_000_000


class TestSignal:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        sig = sim.signal()
        got = []
        sig.add_callback(lambda s: got.append(s.value))
        sig.succeed(42)
        assert got == [42]

    def test_callback_after_trigger_fires_immediately(self):
        sim = Simulator()
        sig = sim.signal()
        sig.succeed("x")
        got = []
        sig.add_callback(lambda s: got.append(s.value))
        assert got == ["x"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        sig = sim.signal()
        sig.succeed()
        with pytest.raises(SimulationError):
            sig.succeed()

    def test_timeout_signal_fires_after_delay(self):
        sim = Simulator()
        sig = sim.timeout_signal(25, "done")
        sim.run()
        assert sig.triggered and sig.value == "done"
        assert sim.now == 25


class TestProcess:
    def test_timeout_sequence(self):
        sim = Simulator()
        trace = []

        def body():
            trace.append(sim.now)
            yield Timeout(10)
            trace.append(sim.now)
            yield Timeout(5)
            trace.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert trace == [0, 10, 15]

    def test_return_value_and_done_signal(self):
        sim = Simulator()

        def body():
            yield Timeout(1)
            return "result"

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == "result"
        assert proc.done.triggered
        assert not proc.alive

    def test_wait_on_signal_receives_value(self):
        sim = Simulator()
        sig = sim.signal()
        got = []

        def body():
            value = yield sig
            got.append((sim.now, value))

        sim.spawn(body())
        sim.after(30, sig.succeed, "hello")
        sim.run()
        assert got == [(30, "hello")]

    def test_wait_on_child_process(self):
        sim = Simulator()

        def child():
            yield Timeout(20)
            return 7

        def parent():
            value = yield sim.spawn(child())
            return value + 1

        proc = sim.spawn(parent())
        sim.run()
        assert proc.value == 8

    def test_allof_waits_for_all(self):
        sim = Simulator()
        s1, s2 = sim.signal(), sim.signal()
        done_at = []

        def body():
            values = yield AllOf([s1, s2, Timeout(5)])
            done_at.append((sim.now, values[:2]))

        sim.spawn(body())
        sim.after(10, s1.succeed, "a")
        sim.after(40, s2.succeed, "b")
        sim.run()
        assert done_at == [(40, ["a", "b"])]

    def test_allof_empty(self):
        sim = Simulator()

        def body():
            yield AllOf([])
            return "ok"

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == "ok"

    def test_yield_from_composition(self):
        sim = Simulator()

        def inner():
            yield Timeout(5)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        proc = sim.spawn(outer())
        sim.run()
        assert proc.value == 20
        assert sim.now == 10

    def test_interrupt_kills_process(self):
        sim = Simulator()
        trace = []

        def body():
            trace.append("start")
            yield Timeout(100)
            trace.append("never")

        proc = sim.spawn(body())
        sim.run(until=10)
        proc.interrupt()
        sim.run()
        assert trace == ["start"]
        assert proc.done.triggered

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def body():
            yield 42

        sim.spawn(body())
        with pytest.raises(SimulationError):
            sim.run()


class TestChoiceHook:
    """The ready-set choice hook the model checker drives dispatch through."""

    @staticmethod
    def _race(sim, log):
        for tag in "abc":
            sim.at(100, log.append, tag)
        sim.at(50, log.append, "early")
        sim.after(200, log.append, "late")

    def test_none_choice_matches_default_order(self):
        plain = Simulator()
        plain_log = []
        self._race(plain, plain_log)
        plain.run()

        hooked = Simulator(choice_hook=lambda ready: None)
        hooked_log = []
        self._race(hooked, hooked_log)
        hooked.run()
        assert hooked_log == plain_log == ["early", "a", "b", "c", "late"]

    def test_hook_sees_full_ready_set_each_dispatch(self):
        sizes = []

        def hook(ready):
            sizes.append(len(ready))
            return 0

        sim = Simulator(choice_hook=hook)
        log = []
        self._race(sim, log)
        sim.run()
        # Singletons dispatch alone; the t=100 race shrinks 3 -> 2 -> 1.
        assert sizes == [1, 3, 2, 1, 1]

    def test_choice_permutes_same_instant_events(self):
        sim = Simulator(choice_hook=lambda ready: len(ready) - 1)
        log = []
        self._race(sim, log)
        sim.run()
        assert log == ["early", "c", "b", "a", "late"]

    def test_step_uses_hook(self):
        sim = Simulator(choice_hook=lambda ready: len(ready) - 1)
        log = []
        sim.at(1, log.append, "x")
        sim.at(1, log.append, "y")
        assert sim.step() and log == ["y"]
        assert sim.step() and log == ["y", "x"]
        assert not sim.step()
        assert sim.pending() == 0

    def test_out_of_range_choice_raises(self):
        sim = Simulator(choice_hook=lambda ready: 7)
        sim.at(1, lambda: None)
        with pytest.raises(SimulationError):
            sim.run()

    def test_cancelled_events_never_reach_hook(self):
        seen = []
        sim = Simulator(choice_hook=lambda ready: seen.append(len(ready)))
        log = []
        keep = sim.at(10, log.append, "keep")
        victim = sim.at(10, log.append, "victim")
        victim.cancel()
        sim.run()
        assert log == ["keep"]
        assert seen == [1]
        assert keep.time == 10

    def test_until_respected_with_hook(self):
        sim = Simulator(choice_hook=lambda r: None)
        log = []
        sim.at(10, log.append, "in")
        sim.at(500, log.append, "out")
        sim.run(until=100)
        assert log == ["in"]
        assert sim.now == 100
        sim.run()
        assert log == ["in", "out"]


class TestEvery:
    """sim.every(): one reusable handle, classic daemon cadence."""

    def test_callback_fires_every_interval(self):
        sim = Simulator()
        fired = []
        sim.every(100, lambda: fired.append(sim.now))
        sim.run(until=350)
        assert fired == [100, 200, 300]

    def test_start_offset(self):
        sim = Simulator()
        fired = []
        sim.every(100, lambda: fired.append(sim.now), start=5)
        sim.run(until=300)
        assert fired == [5, 105, 205]
        sim2 = Simulator()
        fired2 = []
        sim2.every(100, lambda: fired2.append(sim2.now), start=0)
        sim2.run(until=250)
        assert fired2 == [0, 100, 200]

    def test_args_are_passed_each_firing(self):
        sim = Simulator()
        seen = []
        sim.every(10, lambda a, b: seen.append((a, b)), "x", 7)
        sim.run(until=25)
        assert seen == [("x", 7), ("x", 7)]

    def test_cancel_stops_the_series(self):
        sim = Simulator()
        fired = []
        handle = sim.every(100, lambda: fired.append(sim.now))
        sim.run(until=250)
        handle.cancel()
        sim.run(until=1000)
        assert fired == [100, 200]
        assert sim.pending() == 0

    def test_cancel_from_inside_the_callback(self):
        sim = Simulator()
        fired = []
        def cb():
            fired.append(sim.now)
            if len(fired) == 3:
                handle.cancel()
        handle = sim.every(50, cb)
        sim.run()
        assert fired == [50, 100, 150]

    def test_generator_body_rearms_after_completion(self):
        # The old daemons did `while True: yield Timeout(p); <body>`:
        # the next period starts when the body *finishes*. The generator
        # flavour of every() must keep that cadence.
        sim = Simulator()
        windows = []

        def body():
            started = sim.now
            yield Timeout(30)
            windows.append((started, sim.now))

        sim.every(100, body)
        sim.run(until=400)
        assert windows == [(100, 130), (230, 260), (360, 390)]

    def test_periodic_reuses_one_handle(self):
        sim = Simulator()
        handle = sim.every(100, lambda: None)
        for expected in (100, 200, 300):
            sim.run(max_events=1)
            assert sim.now == expected
            assert sim.pending() == 1  # the same handle, re-armed

    def test_rejects_bad_intervals(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(100, lambda: None, start=-1)


class TestCancellation:
    """cancel() keeps pending() O(1)-exact; cancelled events never fire."""

    def test_pending_counts_exactly(self):
        sim = Simulator()
        handles = [sim.after(1000 + 7 * i, lambda: None) for i in range(100)]
        assert sim.pending() == 100
        for h in handles[::2]:
            h.cancel()
        assert sim.pending() == 50
        executed = sim.run()
        assert executed == 50
        assert sim.pending() == 0

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        h = sim.after(500, lambda: None)
        h.cancel()
        h.cancel()
        assert sim.pending() == 0

    def test_cancelled_events_never_fire(self):
        sim = Simulator()
        fired = []
        keep = [sim.after(10_000 + i, fired.append, i) for i in range(0, 20, 2)]
        drop = [sim.after(10_001 + i, fired.append, -i) for i in range(0, 20, 2)]
        for h in drop:
            h.cancel()
        sim.run()
        assert fired == list(range(0, 20, 2))
        assert all(h.cancelled for h in drop) and keep


class TestOrderingEdges:
    """Clock edges: long idle gaps, zero delays, draining before ``until``."""

    def test_jump_over_long_empty_gap(self):
        sim = Simulator()
        fired = []
        sim.after(100, fired.append, "first")
        sim.after(2_097_152_000, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2_097_152_000

    def test_same_time_fifo_by_seq(self):
        # Ties at one instant break by seq whichever call scheduled them;
        # an event added at that instant by a running one queues last.
        sim = Simulator()
        fired = []
        sim.at(1_000, fired.append, "a")
        sim.after(1_000, lambda: (fired.append("b"), sim.after(0, fired.append, "d")))
        sim.at(1_000, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c", "d"]
        assert sim.now == 1_000

    def test_schedule_now_executes(self):
        sim = Simulator()
        fired = []
        sim.after(500, lambda: sim.after(0, fired.append, sim.now))
        sim.run()
        assert fired == [500]

    def test_run_until_advances_clock_when_drained(self):
        sim = Simulator()
        sim.after(100, lambda: None)
        sim.run(until=10_000)
        assert sim.now == 10_000


class TestRunStop:
    """``run(stop=signal)`` ends right after the event that fires it."""

    @staticmethod
    def _race(sim, stop, fired):
        for tag in "abc":
            sim.at(100, fired.append, tag)
        sim.at(100, stop.succeed)
        sim.at(100, fired.append, "same-instant")
        sim.at(200, fired.append, "later")

    def test_stops_after_the_firing_event_and_keeps_its_clock(self):
        sim = Simulator()
        stop, fired = sim.signal(), []
        self._race(sim, stop, fired)
        assert sim.run(until=1_000, stop=stop) == 4
        assert fired == ["a", "b", "c"] and sim.now == 100
        assert sim.pending() == 2
        sim.run()
        assert fired == ["a", "b", "c", "same-instant", "later"]
        assert sim.events_executed == 6

    def test_matches_a_step_loop(self):
        runs = []
        for stepped in (False, True):
            sim = Simulator()
            sim.order_log = []
            stop, fired = sim.signal(), []
            self._race(sim, stop, fired)
            sim.every(30, fired.append, "tick")
            if stepped:
                while not stop.triggered and sim.step():
                    pass
            else:
                sim.run(until=10_000, stop=stop)
            runs.append((fired, sim.now, sim.pending(), sim.order_log))
        assert runs[0] == runs[1]

    def test_unfired_stop_is_disarmed_when_the_run_ends(self):
        sim = Simulator()
        stop, fired = sim.signal(), []
        sim.at(50, fired.append, "x")
        sim.run(until=80, stop=stop)
        assert sim.now == 80  # drained before until: the clock advances
        sim.at(90, stop.succeed)
        sim.at(90, fired.append, "y")
        sim.run()  # a later run without stop is not halted by it
        assert fired == ["x", "y"] and sim.pending() == 0

    def test_fired_stop_returns_at_once(self):
        sim = Simulator()
        stop = sim.signal()
        stop.succeed()
        sim.at(10, lambda: None)
        assert sim.run(until=100, stop=stop) == 0
        assert sim.now == 0 and sim.pending() == 1

    def test_max_events_break_disarms_the_sentinel(self):
        sim = Simulator()
        stop, fired = sim.signal(), []
        sim.at(10, stop.succeed)
        sim.at(10, fired.append, "after")
        assert sim.run(stop=stop, max_events=1) == 1
        assert sim.pending() == 1
        sim.run()  # not halted by the sentinel left queued
        assert fired == ["after"] and sim.pending() == 0

    def test_choice_hook_path_stops_too(self):
        sim = Simulator(choice_hook=lambda ready: None)
        stop, fired = sim.signal(), []
        self._race(sim, stop, fired)
        assert sim.run(until=1_000, stop=stop) == 4
        assert fired == ["a", "b", "c"] and sim.now == 100
