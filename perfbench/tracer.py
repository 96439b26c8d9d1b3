"""Per-layer host-time tracing for the benchmark's traced run.

The tracer wraps each layer's public entry points on their classes (and
on every subclass that overrides them) before the first boot, so bound
methods that hot paths cache at attach time are the wrapped ones too. Each
call is a span; a generator entry point (``yield from core.execute(ns)``)
is one span per resume, and its wrapper forwards ``send``/``throw``/
``close``. Every generator passed to ``Simulator.spawn`` is wrapped the
same way and billed to ``workloads``, so workload closures are not billed
to the engine.

A span's self time is its duration minus the time its child spans cover.
Self time, calls and resumes are aggregated per entry point in memory;
raw spans (name, layer, start, end, parent) are kept only for a bounded
window that opens at the first simulated event, and export as Chrome
trace-event JSON for Perfetto. Work a caller inlines counts toward the
caller, and so does the wrappers' own overhead outside a span's interval.
A call that re-enters the entry point it is already inside (a ``super()``
chain) is not a new span.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter
from types import GeneratorType
from typing import Dict, List, Optional, Tuple

#: (layer, module, class or None for module functions, entry points).
#: ``check_`` stands for every ``check_*`` function of the module.
SPANS = (
    ("sim.engine", "repro.sim.engine", "Simulator", ("run", "at", "every")),
    ("sim.engine", "repro.sim.engine", "EventHandle", ("cancel",)),
    ("kernel", "repro.kernel.syscalls", "Syscalls",
     ("mmap", "munmap", "madvise_dontneed", "touch_pages", "access")),
    ("kernel", "repro.kernel.pagefault", "PageFaultHandler", ("handle",)),
    ("kernel", "repro.kernel.scheduler", "Scheduler", ("run_on", "_tick")),
    ("kernel", "repro.kernel.kernel", "Kernel",
     ("__init__", "start", "create_process", "spawn_thread")),
    ("mm", "repro.mm.pagetable", "PageTable", ("walk", "set_pte", "clear_pte")),
    ("mm", "repro.mm.frames", "FrameAllocator", ("alloc", "put", "free_batch")),
    ("mm", "repro.mm.vma", "VmaSet", ("insert", "remove_range")),
    ("mm", "repro.mm.mmstruct", "MmStruct", ("find_free_range",)),
    ("mm", "repro.mm.pagecache", "PageCache", ("get_or_fill",)),
    ("hw", "repro.hw.tlb", "Tlb",
     ("lookup", "fill", "fill_new", "invalidate_range", "flush")),
    ("hw", "repro.hw.core", "Core", ("execute",)),
    ("hw", "repro.hw.interconnect", "Interconnect", ("multicast_ipi",)),
    ("hw", "repro.hw.machine", "Machine", ("__init__",)),
    ("coherence", "repro.coherence.base", "TLBCoherence",
     ("shootdown_free", "shootdown_sync", "migration_unmap", "on_tick",
      "on_context_switch", "on_tlb_fill")),
    ("coherence", "repro.coherence.latr", "LatrCoherence", ("sweep", "_reclaim_round")),
    ("sim.stats", "repro.sim.stats", "StatsRegistry",
     ("counter", "latency", "rate", "summary")),
    ("sim.stats", "repro.sim.stats", "LatencyRecorder", ("record",)),
    ("verify", "repro.verify.mc.explorer", None, ("run_mc",)),
    ("verify", "repro.verify.mc.executor", "McExecutor",
     ("apply", "execute", "enabled_actions", "state_hash", "findings")),
    ("verify", "repro.verify.monitor", "InvariantMonitor", ("notify",)),
    ("verify", "repro.kernel.invariants", None, ("check_",)),
    ("snapshot", "repro.snapshot", None, ("snapshot_kernel", "restore_kernel")),
    ("snapshot", "repro.verify.mc.executor", "McExecutor", ("fork", "restore")),
    ("snapshot", "repro.snapshot", "BootPool", ("acquire",)),
)

LAYERS = ("sim.engine", "workloads", "kernel", "mm", "hw", "coherence",
          "sim.stats", "verify", "snapshot")

_APACHE = "wall_s on apache-9cell; flat on mc-4c3p5o"
_FLEET_HW = "wall_s on fleet-latr-960c and apache-9cell"
_FLEET_COH = "wall_s on fleet-latr-960c; flat on apache-9cell"
_MC = "wall_s on mc-4c3p5o; zero elsewhere"
_SNAP = "wall_s on mc-4c3p5o; flat on fleet-latr-960c"

#: Every per-layer metric and the end-to-end metric and workload it should
#: move. Units and direction are in ``BENCHMARK.json``'s ``per_layer``,
#: which must list the same names; ``run.py`` checks that it does.
LAYER_METRICS: Dict[str, str] = {
    "sim.engine.self_s": _APACHE,
    "sim.engine.events": _APACHE,
    "sim.engine.scheduled": _APACHE,
    "sim.engine.cancels": _APACHE,
    "sim.engine.us_per_event": _APACHE,
    "workloads.self_s": "wall_s on apache-9cell (small)",
    "workloads.process_steps": "wall_s on apache-9cell (small)",
    "kernel.self_s": "wall_s on apache-9cell; setup_s on fleet-latr-960c; flat on mc-4c3p5o",
    "kernel.syscalls": _APACHE,
    "kernel.faults": _APACHE,
    "kernel.ticks": _FLEET_HW,
    "kernel.threads_spawned": "setup_s on fleet-latr-960c",
    "mm.self_s": _APACHE,
    "mm.pt_walks": _APACHE,
    "mm.pte_writes": _APACHE,
    "mm.frame_ops": _APACHE,
    "hw.self_s": _FLEET_HW,
    "hw.tlb_lookups": _FLEET_HW,
    "hw.tlb_hit_ratio": _FLEET_HW,
    "hw.tlb_invalidations": _FLEET_HW,
    "hw.execute_calls": _FLEET_HW,
    "hw.ipis": _FLEET_HW,
    "coherence.self_s": _FLEET_COH,
    "coherence.shootdowns": _FLEET_COH,
    "coherence.sweeps": _FLEET_COH,
    "coherence.entries_examined": _FLEET_COH,
    "coherence.sweep_useful_ratio": _FLEET_COH,
    "sim.stats.self_s": "wall_s on mc-4c3p5o (~5%); flat on fleet-latr-960c",
    "sim.stats.records": "wall_s on mc-4c3p5o; flat on fleet-latr-960c",
    "verify.self_s": _MC,
    "verify.mc_nodes": _MC,
    "verify.mc_states": _MC,
    "verify.mc_useful_ratio": _MC,
    "verify.hash_pruned": _MC,
    "verify.sleep_skipped": _MC,
    "snapshot.self_s": _SNAP,
    "snapshot.snapshots": _SNAP,
    "snapshot.restores": _SNAP,
    "snapshot.replays": _SNAP,
    "snapshot.boot_reuse_ratio": "setup_s and wall_s on apache-9cell",
    "unattributed.self_s": "coverage of the trace itself",
    "trace.overhead_ratio": "cost of the trace itself",
}


class Tracer:
    """Span wrappers plus their in-memory aggregates (one per process)."""

    def __init__(self, window: int = 20_000):
        self.window = window
        #: Per entry point, by index: (layer, qualified name, method).
        self.entries: List[Tuple[str, str, str]] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.resumes: List[int] = []
        #: Raw spans [entry, start, end, span id, parent id] in the window.
        self.raw: List[list] = []
        #: Open spans, innermost last: [child time, span id, group, raw].
        self.root = [0.0, 0, None, None]
        self.stack = [self.root]
        #: Set at the first simulated event, cleared once the window is full.
        self.recording = [False]
        self.kernels: list = []
        self.spawn_idx = -1
        #: The root span: set around the traced workload by its caller.
        self.started = 0.0
        self.ended = 0.0

    # ---- wrappers -------------------------------------------------------

    def _entry(self, layer: str, name: str, method: str) -> int:
        self.entries.append((layer, name, method))
        self.self_s.append(0.0)
        self.calls.append(0)
        self.resumes.append(0)
        return len(self.entries) - 1

    def _open(self, parent_id: int, idx: int, start: float) -> Tuple[int, Optional[list]]:
        """Keep a raw span while the window has room."""
        if len(self.raw) >= self.window:
            self.recording[0] = False
            return 0, None
        sid = len(self.raw) + 1
        rec = [idx, start, start, sid, parent_id]
        self.raw.append(rec)
        return sid, rec

    def _resumed(self, gen, idx: int, group: object):
        """Drive ``gen`` one span per resume, forwarding send/throw/close."""
        stack, self_s, resumes, clock = self.stack, self.self_s, self.resumes, perf_counter
        recording, opener = self.recording, self._open
        value = None
        error: Optional[BaseException] = None
        while True:
            parent = stack[-1]
            resumes[idx] += 1
            frame = [0.0, 0, group, None]
            stack.append(frame)
            start = clock()
            if recording[0]:
                frame[1], frame[3] = opener(parent[1], idx, start)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                end = clock()
                stack.pop()
                span = end - start
                self_s[idx] += span - frame[0]
                parent[0] += span
                if frame[3] is not None:
                    frame[3][2] = end
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                error, value = exc, None

    def _wrap(self, fn, layer: str, name: str, method: str, group: object):
        idx = self._entry(layer, name, method)
        stack, self_s, calls, clock = self.stack, self.self_s, self.calls, perf_counter
        recording, opener, resumed = self.recording, self._open, self._resumed

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[2] is group:
                return fn(*args, **kwargs)
            calls[idx] += 1
            frame = [0.0, 0, group, None]
            stack.append(frame)
            start = clock()
            if recording[0]:
                frame[1], frame[3] = opener(parent[1], idx, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                self_s[idx] += span - frame[0]
                parent[0] += span
                if frame[3] is not None:
                    frame[3][2] = end
            if type(result) is GeneratorType:
                return resumed(result, idx, group)
            return result

        traced.__name__ = getattr(fn, "__name__", method)
        traced.__qualname__ = name
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ---- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in SPANS, the spawn hook and the kernel
        registry, for the rest of the process. Call after the imports and
        before the first boot."""
        for layer, module_name, class_name, names in SPANS:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._install_functions(layer, module, names)
                continue
            base = getattr(module, class_name)
            for method in names:
                group = object()
                for cls in [base] + _subclasses(base):
                    fn = cls.__dict__.get(method)
                    if fn is None:
                        continue
                    if method == "__init__" and class_name == "Kernel":
                        fn = self._registering(fn)
                    name = f"{cls.__name__}.{method}"
                    setattr(cls, method, self._wrap(fn, layer, name, method, group))
        self._install_spawn()

    def _registering(self, init):
        kernels = self.kernels

        def __init__(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            kernels.append(kernel)

        return __init__

    def _install_functions(self, layer: str, module, names) -> None:
        """Wrap module-level functions and rebind every alias of them in
        the loaded ``repro`` modules and in the invariant monitor's check
        tables, which hold the functions themselves."""
        from repro.verify import monitor

        for attr, fn in sorted(vars(module).items()):
            if not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
                continue
            if not any(attr == n or (n.endswith("_") and attr.startswith(n)) for n in names):
                continue
            wrapped = self._wrap(fn, layer, attr, attr, object())
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and mod is not None:
                    for alias, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, alias, wrapped)
            for table in (monitor.CONTINUOUS_CHECKS, monitor.QUIESCENT_CHECKS):
                for key, value in list(table.items()):
                    if value is fn:
                        table[key] = wrapped

    def _install_spawn(self) -> None:
        from repro.sim.engine import Simulator

        idx = self.spawn_idx = self._entry("workloads", "spawned process", "resume")
        group = object()
        spawn, resumed = Simulator.__dict__["spawn"], self._resumed

        def traced_spawn(sim, gen, name=""):
            name = name or getattr(gen, "__name__", "process")
            return spawn(sim, resumed(gen, idx, group), name)

        Simulator.spawn = traced_spawn

    # ---- results --------------------------------------------------------

    def calls_of(self, layer: str, *methods: str) -> int:
        return sum(
            n for (lay, _name, method), n in zip(self.entries, self.calls)
            if lay == layer and method in methods
        )

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _name, _method), spent in zip(self.entries, self.self_s):
            out[layer] += spent
        return out

    def top_entries(self, n: int) -> List[Tuple[str, str, float, int]]:
        """The ``n`` entry points with the most self time."""
        rows = [
            (layer, name, spent, max(calls, resumes))
            for (layer, name, _m), spent, calls, resumes
            in zip(self.entries, self.self_s, self.calls, self.resumes)
            if spent
        ]
        rows.sort(key=lambda row: -row[2])
        return rows[:n]

    def write_chrome_trace(self, path: str) -> None:
        """The raw-span window as Chrome trace-event JSON (Perfetto)."""
        base = self.raw[0][1] if self.raw else 0.0
        events = []
        for idx, start, end, sid, parent in self.raw:
            layer, name, _method = self.entries[idx]
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - base) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": sid, "parent": parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def layer_metrics(tracer: Tracer, facts: Dict[str, float], events: int) -> Dict[str, float]:
    """Every LAYER_METRICS value of one traced run but ``trace.overhead_ratio``,
    which needs the untraced runs."""
    import repro

    counters: Dict[str, int] = {}
    hits = lookups = 0
    for kernel in tracer.kernels:
        for name, value in kernel.stats.counters_snapshot().items():
            counters[name] = counters.get(name, 0) + value
        for core in kernel.machine.cores:
            stats = core.tlb.stats()
            hits += stats["hits"]
            lookups += stats["hits"] + stats["misses"]
    selfs = tracer.layer_self()
    examined = counters.get("latr.entries_examined", 0)
    nodes = facts.get("mc_nodes", 0)
    acquires = tracer.calls_of("snapshot", "acquire")
    pool = repro._BOOT_POOL
    out: Dict[str, float] = {f"{layer}.self_s": spent for layer, spent in selfs.items()}
    out.update({
        "sim.engine.events": events,
        "sim.engine.scheduled": tracer.calls_of("sim.engine", "at", "every"),
        "sim.engine.cancels": tracer.calls_of("sim.engine", "cancel"),
        "sim.engine.us_per_event": selfs["sim.engine"] / events * 1e6 if events else 0.0,
        "workloads.process_steps": tracer.resumes[tracer.spawn_idx],
        "kernel.syscalls": tracer.calls_of(
            "kernel", "mmap", "munmap", "madvise_dontneed", "touch_pages", "access"),
        "kernel.faults": counters.get("faults.total", 0),
        "kernel.ticks": counters.get("sched.ticks", 0),
        "kernel.threads_spawned": tracer.calls_of("kernel", "spawn_thread"),
        "mm.pt_walks": tracer.calls_of("mm", "walk"),
        "mm.pte_writes": tracer.calls_of("mm", "set_pte", "clear_pte"),
        "mm.frame_ops": tracer.calls_of("mm", "alloc", "put", "free_batch"),
        "hw.tlb_lookups": tracer.calls_of("hw", "lookup"),
        "hw.tlb_hit_ratio": hits / lookups if lookups else 0.0,
        "hw.tlb_invalidations": tracer.calls_of("hw", "invalidate_range", "flush"),
        "hw.execute_calls": tracer.calls_of("hw", "execute"),
        "hw.ipis": counters.get("ipi.sent", 0),
        "coherence.shootdowns": counters.get("shootdown.initiated", 0),
        "coherence.sweeps": counters.get("latr.sweeps", 0),
        "coherence.entries_examined": examined,
        "coherence.sweep_useful_ratio": (
            counters.get("latr.entries_invalidated", 0) / examined if examined else 0.0),
        "sim.stats.records": tracer.calls_of("sim.stats", "record"),
        "verify.mc_nodes": nodes,
        "verify.mc_states": facts.get("mc_states", 0),
        "verify.mc_useful_ratio": facts.get("mc_states", 0) / nodes if nodes else 0.0,
        "verify.hash_pruned": facts.get("hash_pruned", 0),
        "verify.sleep_skipped": facts.get("sleep_skipped", 0),
        "snapshot.snapshots": tracer.calls_of("snapshot", "snapshot_kernel"),
        "snapshot.restores": tracer.calls_of("snapshot", "restore_kernel"),
        "snapshot.replays": facts.get("replays", 0),
        "snapshot.boot_reuse_ratio": (
            pool.restores / acquires if acquires and pool is not None else 0.0),
        "unattributed.self_s": (tracer.ended - tracer.started) - tracer.root[0],
    })
    return out
