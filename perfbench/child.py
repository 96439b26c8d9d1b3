"""One benchmark run in a fresh process; ``run.py`` starts it.

Prints one JSON line: the modelled-output digest, the failed output
checks, ``setup_s`` (from before ``import repro`` to the first simulated
event), ``wall_s`` (from the first simulated event to the checked output),
``slices`` (``wall_s`` cut at every slice end) and ``peak_rss_mb`` (this
process's ``ru_maxrss``, which is why every run needs its own process).
A slice ends at every simulated millisecond that a ``Simulator.run(until=)``
call passes, and wherever the workload marks one (``workloads.py``), so it
is the same work in every run of the same input. ``--trace`` makes this a
traced run: the tracer wraps the layers before the first boot and the line
carries the per-layer metrics; ``--trace-out PATH`` also writes the
raw-span window to PATH as Chrome trace-event JSON.
"""

import time

STARTED = time.perf_counter()  # before anything imports repro

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _time_engine(first: list, marks: list, on_first) -> None:
    """Append the host time of the first simulated event to ``first`` and
    call ``on_first``; from then on, run every ``Simulator.run(until=T)`` to
    T one simulated millisecond at a time and append the host time after
    each to ``marks``. The events and their order do not change: ``run``
    executes every event up to ``until`` and then sets the clock to it."""
    from repro.sim.engine import MSEC, Simulator

    run, step = Simulator.run, Simulator.step

    def started() -> None:
        if not first:
            first.append(time.perf_counter())
            on_first()

    def run_by_ms(sim, until=None, max_events=None):
        started()
        if until is None or max_events is not None:
            return run(sim, until, max_events)
        executed = 0
        while True:
            end = min(until, sim.now + MSEC)
            executed += run(sim, end)
            marks.append(time.perf_counter())
            if end >= until:
                return executed

    def first_step(sim):
        started()
        Simulator.step = step
        return step(sim)

    Simulator.run = run_by_ms
    Simulator.step = first_step


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import repro  # noqa: F401  (the first import; setup_s includes it)
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.sim.engine import Simulator

    first, marks = [], []

    def start_recording() -> None:
        if tracer is not None:
            tracer.recording[0] = True

    _time_engine(first, marks, start_recording)
    events = Simulator.total_events_executed
    if tracer is not None:
        tracer.started = time.perf_counter()
    outcome = WORKLOADS[args.workload](args.seed, marks)
    digest = outcome.digest
    ended = time.perf_counter()
    bounds = [first[0], *marks, ended]
    result = {
        "digest": digest,
        "problems": outcome.problems,
        "setup_s": first[0] - STARTED,
        "wall_s": ended - first[0],
        "slices": [end - start for start, end in zip(bounds, bounds[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.ended = ended
        events = Simulator.total_events_executed - events
        result["layers"] = layer_metrics(tracer, outcome.facts, events)
        result["top"] = tracer.top_entries(12)
        result["spans_written"] = len(tracer.raw)
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
