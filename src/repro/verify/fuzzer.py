"""The differential, schedule-randomizing coherence fuzzer.

One :class:`~repro.verify.plan.FuzzPlan` is replayed against several
coherence mechanisms on identically-built systems. Each run:

* perturbs the schedule (random per-core tick phases, synthetic context
  switches at pre-drawn times, randomized reclaim delay and LATR queue
  depth),
* keeps a :class:`~repro.verify.monitor.InvariantMonitor` attached so the
  safety invariants are checked at every sweep, reclaim, IPI round, PTE
  change, and frame free,
* drains all lazy work, runs the quiescent checks, and takes a canonical
  end-state snapshot.

The snapshots of the lazy mechanisms are then compared against the
synchronous Linux baseline. Absolute addresses and frame numbers are *not*
comparable across mechanisms (LATR delays virtual-range reuse, and frame
recycling order differs), so snapshots are region-relative: per-page
(state, NUMA node, writability, content tag) plus global allocator/swap
accounting.

On any failure -- invariant violation, harness exception, or differential
mismatch -- the failing plan is shrunk ddmin-style to a minimal reproducer
and the relevant tracer window is dumped.

Determinism contract (what makes the differential comparison sound): the
op driver is serial, and operations whose *functional* outcome could
depend on lazy-apply timing are preceded by a fixed-length settle barrier
(identical across mechanisms). Operations that race lazy work in
timing-only ways (munmap/madvise over still-cooling ranges, overlapping
swap-outs) deliberately do NOT settle -- those interleavings are the
interesting ones, and their end state is order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..coherence import make_mechanism
from ..coherence.latr import LatrCoherence
from ..hw.machine import Machine
from ..hw.spec import preset
from ..kernel.autonuma import AutoNuma
from ..kernel.kernel import Kernel
from ..kernel.swapd import SwapDevice
from ..mm.addr import PAGE_SIZE, VirtRange
from ..sim.engine import Simulator, Timeout
from ..sim.trace import Tracer
from .monitor import InvariantMonitor, Violation
from .mutations import mutation_spec
from .plan import FuzzPlan, Op, generate_plan
from .shrink import ddmin

#: Mechanisms a fuzz run exercises against the synchronous baseline.
FUZZ_MECHANISMS = ("latr", "abis", "didi", "unitd")
DEFAULT_BASELINE = "linux"

#: Small enough to build fast, large enough that per-node frame pools
#: never run dry (which would make allocation placement schedule-timing
#: dependent and break the differential comparison).
FRAMES_PER_NODE = 4096

#: Settle barrier length in ticks. Every running core sweeps within one
#: tick interval, the reclaim delay is at most 3 ticks, and swap-finisher
#: device writes fit well inside one more.
SETTLE_TICKS = 4


# ---------------------------------------------------------------------------
# System construction
# ---------------------------------------------------------------------------


@dataclass
class FuzzSystem:
    """One booted machine+kernel ready to replay a plan."""

    sim: Simulator
    machine: Machine
    kernel: Kernel
    monitor: InvariantMonitor
    tracer: Optional[Tracer]
    procs: list
    #: tasks[proc_index][core_index]
    tasks: list


def build_fuzz_system(
    mechanism: str,
    plan: FuzzPlan,
    mutate: Optional[str] = None,
    with_tracer: bool = False,
    frames_per_node: int = FRAMES_PER_NODE,
    monitor_stride: int = 1,
    latr_kwargs: Optional[Dict[str, object]] = None,
    use_tlb_index: Optional[bool] = None,
    use_pt_replication: Optional[bool] = None,
    use_virtualization: Optional[bool] = None,
) -> FuzzSystem:
    """Boot a system for one fuzz run, with every schedule knob applied
    *before* the kernel starts (tick offsets matter from the first tick)."""
    mutation = mutation_spec(mutate) if mutate is not None else None
    sim = Simulator()
    spec = preset("commodity-2s16c")
    if plan.n_cores >= 2 and plan.n_cores % 2 == 0:
        # Keep two NUMA nodes regardless of core count so migration and
        # remote-socket traffic stay exercised at small core counts.
        spec = replace(
            spec,
            name=f"fuzz-2s{plan.n_cores}c",
            sockets=2,
            cores_per_socket=plan.n_cores // 2,
        )
    else:
        spec = spec.with_cores(plan.n_cores)

    if mutation is not None:
        coherence_cls = mutation.coherence_cls or LatrCoherence
        coherence = coherence_cls(
            queue_depth=plan.schedule.queue_depth,
            reclaim_delay_ticks=plan.schedule.reclaim_delay_ticks,
            **(latr_kwargs or {}),
        )
    elif mechanism == "latr":
        coherence = LatrCoherence(
            queue_depth=plan.schedule.queue_depth,
            reclaim_delay_ticks=plan.schedule.reclaim_delay_ticks,
            **(latr_kwargs or {}),
        )
    else:
        coherence = make_mechanism(mechanism)

    machine = Machine(sim, spec, use_tlb_index=use_tlb_index)
    if mutation is not None and mutation.machine_patch is not None:
        mutation.machine_patch(machine)
    kernel = Kernel(
        machine,
        coherence,
        frames_per_node=frames_per_node,
        seed=plan.seed,
        use_pt_replication=use_pt_replication,
        use_virtualization=use_virtualization,
    )
    if mutation is not None and mutation.kernel_patch is not None:
        mutation.kernel_patch(kernel)
    kernel.scheduler.tick_offsets = dict(plan.schedule.tick_offsets)
    AutoNuma.install(kernel)  # fault side only; the fuzzer posts its own hints
    SwapDevice.install(kernel)
    tracer = None
    if with_tracer:
        tracer = Tracer(sim)
        kernel.tracer = tracer
    monitor = InvariantMonitor.install(kernel, stride=monitor_stride)
    kernel.start()

    procs = [kernel.create_process(f"fuzz{p}") for p in range(plan.n_procs)]
    tasks = [
        [
            kernel.spawn_thread(proc, f"fuzz{p}.t{c}", c)
            for c in range(plan.n_cores)
        ]
        for p, proc in enumerate(procs)
    ]
    return FuzzSystem(sim, machine, kernel, monitor, tracer, procs, tasks)


# ---------------------------------------------------------------------------
# The op driver
# ---------------------------------------------------------------------------


class _Region:
    """A live mapping plus its staleness bookkeeping."""

    __slots__ = ("vrange", "proc", "cooling")

    def __init__(self, vrange: VirtRange, proc: int):
        self.vrange = vrange
        self.proc = proc
        #: True while remote TLBs may still cache entries this region's
        #: last free/migration-class op invalidated lazily.
        self.cooling = False


class OpDriver:
    """Serially replays a plan's ops on a booted system.

    Runs as one simulation process; concurrency comes from the schedule
    (ticks, sweeps, reclaim, swap finishers, synthetic context switches),
    not from overlapping syscalls -- that is what keeps the end state
    mechanism-independent and the differential comparison meaningful.
    """

    def __init__(self, system: FuzzSystem, plan: FuzzPlan):
        self.system = system
        self.plan = plan
        self.kernel = system.kernel
        self.sched = system.kernel.scheduler
        self.sc = system.kernel.syscalls
        self.tick = system.machine.spec.tick_interval_ns
        self.settle_ns = SETTLE_TICKS * self.tick
        self.regions: List[_Region] = []
        #: Per-proc flag: a migration-class PTE change (swap-out) may still
        #: be lazily pending on this mm.
        self.mm_cooling = [False] * plan.n_procs
        self.errors: List[str] = []
        self.executed = 0
        self.settles = 0
        self.done = False

    # ---- main loop -----------------------------------------------------------

    def run(self) -> Generator:
        try:
            for op in self.plan.ops:
                yield from self._execute(op)
                self.executed += 1
        except Exception as exc:  # harness failure == fuzz finding
            self.errors.append(f"op {self.executed} ({self.plan.ops[self.executed]}): "
                               f"{type(exc).__name__}: {exc}")
        finally:
            self.done = True

    def _execute(self, op: Op) -> Generator:
        if op.kind == "mmap":
            yield from self._op_mmap(op)
        elif op.kind == "settle":
            yield from self._settle()
        else:
            region = self._pick_region(op)
            if region is None:
                return
            if op.kind == "munmap":
                yield from self._op_munmap(op, region)
            elif op.kind == "madvise":
                yield from self._op_madvise(op, region)
            elif op.kind == "touch":
                yield from self._op_touch(op, region)
            elif op.kind == "migrate":
                yield from self._op_migrate(op, region)
            elif op.kind == "swap":
                yield from self._op_swap(op, region)
            else:
                raise ValueError(f"unknown op kind {op.kind!r}")

    # ---- helpers -------------------------------------------------------------

    def _pick_region(self, op: Op) -> Optional[_Region]:
        if not self.regions:
            return None
        return self.regions[op.region % len(self.regions)]

    def _task(self, op: Op, region: Optional[_Region] = None):
        """The (core, task) pair an op runs on. Region ops must run as a
        task of the owning process (regions live in that mm)."""
        proc_idx = region.proc if region is not None else op.proc % self.plan.n_procs
        core = self.system.machine.core(op.core % self.plan.n_cores)
        return core, self.system.tasks[proc_idx][core.id]

    def _settle(self) -> Generator:
        """Fixed-length barrier: long enough that every lazily-posted PTE
        change has been applied and every stale TLB entry invalidated,
        identical across mechanisms so it never perturbs the differential."""
        self.settles += 1
        yield Timeout(self.settle_ns)
        for region in self.regions:
            region.cooling = False
        self.mm_cooling = [False] * self.plan.n_procs

    def _window(self, op: Op, region: _Region, max_pages: int = 16) -> VirtRange:
        n_pages = region.vrange.n_pages
        off = op.offset % n_pages
        width = max(1, min(op.pages, max_pages, n_pages - off))
        return VirtRange.from_pages(region.vrange.vpn_start + off, width)

    # ---- op implementations ----------------------------------------------------

    def _op_mmap(self, op: Op) -> Generator:
        core, task = self._task(op)
        vrange = yield from self.sched.run_on(
            core, task, self.sc.mmap(task, core, op.pages * PAGE_SIZE)
        )
        region = _Region(vrange, op.proc % self.plan.n_procs)
        self.regions.append(region)
        if op.write:
            yield from self.sched.run_on(
                core, task, self.sc.touch_pages(task, core, vrange, write=True)
            )

    def _op_munmap(self, op: Op, region: _Region) -> Generator:
        # Deliberately no settle: unmapping a still-cooling range races the
        # lazy machinery in exactly the ways the invariants must survive.
        core, task = self._task(op, region)
        self.regions.remove(region)
        yield from self.sched.run_on(
            core, task, self.sc.munmap(task, core, region.vrange)
        )

    def _op_madvise(self, op: Op, region: _Region) -> Generator:
        core, task = self._task(op, region)
        yield from self.sched.run_on(
            core, task, self.sc.madvise_dontneed(task, core, region.vrange)
        )
        region.cooling = True

    def _op_touch(self, op: Op, region: _Region) -> Generator:
        # A touch observes page *contents* (tags), so its outcome must not
        # depend on lazy-apply timing: settle first if this region cools.
        if region.cooling:
            yield from self._settle()
        core, task = self._task(op, region)
        window = self._window(op, region)
        if op.write and op.tag:
            for i, vpn in enumerate(window.vpns()):
                yield from self.sched.run_on(
                    core,
                    task,
                    self.sc.write_with_content(
                        task, core, vpn * PAGE_SIZE, f"{op.tag}.{i}"
                    ),
                )
        else:
            yield from self.sched.run_on(
                core, task, self.sc.touch_pages(task, core, window, write=op.write)
            )

    def _op_migrate(self, op: Op, region: _Region) -> Generator:
        """AutoNUMA two-touch migration, driven deterministically: post
        PROT_NONE hints over a window (the lazy migration-class unmap),
        settle, touch from the chosen core; then repeat, so the second
        hint fault sees a matching last-node and migrates remote pages."""
        if self.mm_cooling[region.proc] or region.cooling:
            # A lazily-pending PTE change (swap apply) could interleave
            # with the hint apply in a core-id-ordered sweep, which is NOT
            # the op order the synchronous baseline uses -- settle first.
            yield from self._settle()
        for _ in range(2):
            yield from self._post_hints(op, region)
            yield from self._settle()
            core, task = self._task(op, region)
            window = self._window(op, region, max_pages=8)
            yield from self.sched.run_on(
                core, task, self.sc.touch_pages(task, core, window)
            )

    def _post_hints(self, op: Op, region: _Region) -> Generator:
        """The scanner side of AutoNUMA (task_numa_work) for one window."""
        kernel = self.kernel
        core, task = self._task(op, region)
        mm = task.mm
        window = self._window(op, region, max_pages=8)

        def body() -> Generator:
            yield mm.mmap_sem.acquire()
            try:
                vpns = [
                    vpn
                    for vpn in window.vpns()
                    if kernel.autonuma._samplable(mm, vpn)
                ]
                if not vpns:
                    return
                kernel.stats.counter("numa.pages_sampled").add(len(vpns))

                def apply_change(mm=mm, vpns=tuple(vpns)) -> None:
                    for vpn in vpns:
                        pte = mm.page_table.walk(vpn)
                        if pte is not None and pte.present:
                            mm.page_table.update_pte(vpn, pte.make_numa_hint())

                yield from kernel.coherence.migration_unmap(
                    core, mm, window, apply_change
                )
            finally:
                mm.mmap_sem.release()

        yield from self.sched.run_on(core, task, body())

    def _op_swap(self, op: Op, region: _Region) -> Generator:
        # No settle: overlapping swap-outs and swap-over-madvise converge
        # to the same end state regardless of lazy-apply order (the apply
        # callbacks re-check PTEs), so let them race.
        core, task = self._task(op, region)
        window = self._window(op, region)
        yield from self.sched.run_on(
            core, task, self.kernel.swap.swap_out_pages(task, core, window)
        )
        region.cooling = True
        self.mm_cooling[region.proc] = True


def _perturber(system: FuzzSystem, core, gaps: Tuple[int, ...], flags: dict) -> Generator:
    """Synthetic context switches at pre-drawn times: the switch instants
    depend only on the plan, never on workload progress, so they perturb
    the schedule without perturbing the differential."""
    i = 0
    while not flags["stop"]:
        yield Timeout(gaps[i % len(gaps)])
        i += 1
        if flags["stop"]:
            return
        system.kernel.scheduler.synthetic_context_switch(core)


# ---------------------------------------------------------------------------
# Snapshots + differential comparison
# ---------------------------------------------------------------------------


def snapshot_state(system: FuzzSystem, driver: OpDriver) -> Dict[str, object]:
    """Canonical, mechanism-independent end state.

    Region-relative on purpose: absolute vpns differ across mechanisms
    (LATR delays vrange reuse) and pfns differ (recycling order), but the
    per-page state, its NUMA node, and its content tag must agree."""
    kernel = system.kernel
    region_rows = []
    for region in driver.regions:
        mm = system.procs[region.proc].mm
        pages = []
        for vpn in region.vrange.vpns():
            pte = mm.page_table.walk(vpn)
            if pte is None:
                pages.append("absent")
            elif pte.swapped:
                pages.append("swapped")
            else:
                node = kernel.frames.node_of(pte.pfn)
                tag = kernel.page_contents.get(pte.pfn, "")
                kind = "hint" if pte.numa_hint else "page"
                rw = "w" if pte.writable else "r"
                pages.append(f"{kind}@{node}:{rw}:{tag}")
        region_rows.append((region.proc, tuple(pages)))
    mms = [proc.mm for proc in system.procs]
    nodes = system.machine.spec.sockets
    return {
        "regions": tuple(region_rows),
        "frames_allocated": kernel.frames.allocated_count(),
        "frames_per_node": tuple(
            kernel.frames.frames_per_node - kernel.frames.free_count(n)
            for n in range(nodes)
        ),
        "swap_slots": kernel.swap.slots_in_use,
        "lazy_frames": sum(len(mm.lazy_frames) for mm in mms),
        "lazy_vranges": sum(len(mm.lazy_vranges) for mm in mms),
        "vmas": tuple(len(mm.vmas) for mm in mms),
    }


def diff_snapshots(base: Dict[str, object], other: Dict[str, object]) -> List[str]:
    """Human-readable differences (empty == states agree)."""
    diffs: List[str] = []
    for key in base:
        if base[key] == other.get(key):
            continue
        if key != "regions":
            diffs.append(f"{key}: baseline={base[key]} other={other.get(key)}")
            continue
        b_regions, o_regions = base[key], other.get(key, ())
        if len(b_regions) != len(o_regions):
            diffs.append(
                f"region count: baseline={len(b_regions)} other={len(o_regions)}"
            )
            continue
        for idx, (b_row, o_row) in enumerate(zip(b_regions, o_regions)):
            if b_row == o_row:
                continue
            for page, (b_pg, o_pg) in enumerate(zip(b_row[1], o_row[1])):
                if b_pg != o_pg:
                    diffs.append(
                        f"region {idx} page {page}: baseline={b_pg} other={o_pg}"
                    )
                    if len(diffs) >= 20:
                        diffs.append("... (diff truncated)")
                        return diffs
    return diffs


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Outcome of one plan replay on one mechanism."""

    mechanism: str
    mutate: Optional[str]
    snapshot: Optional[Dict[str, object]]
    violations: List[Violation]
    errors: List[str]
    ops_executed: int
    checks_run: int
    sim_time_ns: int
    tracer: Optional[Tracer] = field(default=None, repr=False)
    #: StatsRegistry.summary() at end of run -- the sweep-index equivalence
    #: tests assert this is bit-for-bit identical across implementations.
    stats_summary: Dict[str, object] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.errors


def run_one(
    mechanism: str,
    plan: FuzzPlan,
    mutate: Optional[str] = None,
    with_tracer: bool = False,
    frames_per_node: int = FRAMES_PER_NODE,
    monitor_stride: int = 1,
    latr_kwargs: Optional[Dict[str, object]] = None,
    use_tlb_index: Optional[bool] = None,
    use_pt_replication: Optional[bool] = None,
    use_virtualization: Optional[bool] = None,
    pool=None,
) -> RunResult:
    """Replay ``plan`` once on ``mechanism``; never raises -- harness
    exceptions come back as errors (they are findings, not crashes).

    ``pool`` (a :class:`repro.snapshot.BootPool`) enables warm-boot reuse:
    identical boot parameters restore the post-boot snapshot instead of
    rebuilding. Mutated and traced runs always boot cold (a mutation may
    carry state the snapshot layer does not model; tracers are refused by
    the snapshot layer)."""

    def build() -> FuzzSystem:
        return build_fuzz_system(
            mechanism,
            plan,
            mutate=mutate,
            with_tracer=with_tracer,
            frames_per_node=frames_per_node,
            monitor_stride=monitor_stride,
            latr_kwargs=latr_kwargs,
            use_tlb_index=use_tlb_index,
            use_pt_replication=use_pt_replication,
            use_virtualization=use_virtualization,
        )

    if pool is not None and mutate is None and not with_tracer:
        # The boot key: everything applied before (or at) kernel start.
        # Plan *ops* are deliberately absent -- replays of different op
        # subsequences (the shrink loop) share one boot.
        key = (
            mechanism, plan.seed, plan.n_cores, plan.n_procs,
            plan.schedule.queue_depth, plan.schedule.reclaim_delay_ticks,
            tuple(sorted(plan.schedule.tick_offsets.items())),
            frames_per_node, monitor_stride,
            tuple(sorted((latr_kwargs or {}).items())),
            use_tlb_index, use_pt_replication, use_virtualization,
        )
        system = pool.acquire(key, build)
    else:
        system = build()
    sim, kernel = system.sim, system.kernel
    tick = system.machine.spec.tick_interval_ns
    driver = OpDriver(system, plan)
    flags = {"stop": False}
    spawned = []
    for core in system.machine.cores:
        gaps = plan.schedule.ctx_switch_gaps.get(core.id)
        if gaps:
            spawned.append(
                sim.spawn(_perturber(system, core, gaps, flags), name=f"perturb{core.id}")
            )
    spawned.append(sim.spawn(driver.run(), name="fuzz-driver"))

    errors: List[str] = []
    snapshot = None
    try:
        guard = 0
        while not driver.done:
            sim.run(until=sim.now + 20 * tick)
            guard += 1
            if guard > 2000:
                errors.append("driver stalled: plan did not finish in 40k ticks")
                break
        # Drain: all lazy work must complete, then swap finishers land.
        for _ in range(60):
            if kernel.coherence.pending_lazy_operations() == 0:
                break
            sim.run(until=sim.now + tick)
        sim.run(until=sim.now + 3 * tick)
        if kernel.coherence.pending_lazy_operations() != 0:
            errors.append(
                f"drain failed: {kernel.coherence.pending_lazy_operations()} "
                "lazy operations still pending after 60 ticks"
            )
        flags["stop"] = True
        system.monitor.check_quiescent()
        if driver.done and not errors:
            snapshot = snapshot_state(system, driver)
    except Exception as exc:  # daemon/engine crash is a finding too
        errors.append(f"engine: {type(exc).__name__}: {exc}")
    errors.extend(driver.errors)
    # Tear down the run's processes while their world is still consistent
    # (lock-release finallys must not fire later against a restored one);
    # this is what leaves a pooled system reusable.
    for proc in spawned:
        if proc.alive:
            proc.interrupt()
    return RunResult(
        mechanism=mechanism,
        mutate=mutate,
        snapshot=snapshot,
        violations=list(system.monitor.violations),
        errors=errors,
        ops_executed=driver.executed,
        checks_run=system.monitor.checks_run,
        sim_time_ns=sim.now,
        tracer=system.tracer,
        stats_summary=kernel.stats.summary(),
    )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def shrink_plan(
    plan: FuzzPlan,
    still_fails: Callable[[FuzzPlan], bool],
    budget: int = 80,
) -> Tuple[FuzzPlan, int]:
    """ddmin over the op sequence: remove chunks while the failure
    reproduces. Plans are symbolic (region slots resolve modulo the live
    count), so every subsequence is executable. Returns (minimal plan,
    runs spent)."""
    ops, runs = ddmin(
        plan.ops, lambda candidate: still_fails(plan.with_ops(candidate)), budget
    )
    return plan.with_ops(ops), runs


# ---------------------------------------------------------------------------
# The full differential campaign
# ---------------------------------------------------------------------------


@dataclass
class FuzzConfig:
    """One fuzz campaign: a plan replayed across mechanisms."""

    seed: int = 1
    n_ops: int = 200
    n_cores: int = 4
    n_procs: int = 2
    mechanisms: Tuple[str, ...] = FUZZ_MECHANISMS
    baseline: str = DEFAULT_BASELINE
    #: Inject a known-bad LATR variant (see repro.verify.mutations); the
    #: mutation applies to the 'latr' entry of ``mechanisms``.
    mutate: Optional[str] = None
    shrink: bool = True
    shrink_budget: int = 60
    frames_per_node: int = FRAMES_PER_NODE
    monitor_stride: int = 1
    #: Tracer window (in ticks) dumped around the first violation.
    trace_window_ticks: int = 3
    #: Warm-boot reuse: boot each distinct configuration once, restore its
    #: post-boot snapshot for every further replay (big win in the shrink
    #: loop). False is the bit-identical cold-boot escape hatch, gated by
    #: the replay-vs-restore differential test.
    use_snapshots: bool = True


@dataclass
class FuzzReport:
    """Everything one campaign learned."""

    config: FuzzConfig
    plan: FuzzPlan
    results: Dict[str, RunResult]
    mismatches: Dict[str, List[str]]
    failures: List[str]
    runs: int
    shrunk_plan: Optional[FuzzPlan] = None
    shrink_runs: int = 0
    trace_dump: str = ""
    #: Warm-boot accounting (0/0 when snapshots are off).
    warm_boots: int = 0
    warm_restores: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"coherence fuzz: seed={self.plan.seed} ops={len(self.plan.ops)} "
            f"cores={self.plan.n_cores} procs={self.plan.n_procs} "
            f"queue_depth={self.plan.schedule.queue_depth} "
            f"reclaim_delay={self.plan.schedule.reclaim_delay_ticks} ticks"
        ]
        if self.config.mutate:
            lines.append(f"mutation injected: {self.config.mutate}")
        for name, res in self.results.items():
            status = "ok"
            if res.violations:
                status = f"{len(res.violations)} INVARIANT VIOLATION(S)"
            elif res.errors:
                status = f"ERROR: {res.errors[0]}"
            elif name in self.mismatches:
                status = f"DIFFERENTIAL MISMATCH ({len(self.mismatches[name])} diffs)"
            lines.append(
                f"  {name:<10} {status}  "
                f"[{res.ops_executed} ops, {res.checks_run} checks, "
                f"{res.sim_time_ns / 1e6:.1f} ms sim]"
            )
        for name, diffs in self.mismatches.items():
            lines.append(f"  {name} vs {self.config.baseline}:")
            lines.extend(f"    {d}" for d in diffs[:8])
        for name in self.failures:
            res = self.results.get(name)
            if res and res.violations:
                lines.append(f"  first violation ({name}): {res.violations[0]}")
        if self.shrunk_plan is not None:
            lines.append(
                f"  minimal reproducer ({len(self.shrunk_plan.ops)} ops, "
                f"{self.shrink_runs} shrink runs): {self.shrunk_plan.describe()}"
            )
        if self.trace_dump:
            lines.append("  trace window around failure:")
            lines.extend(f"    {line}" for line in self.trace_dump.splitlines())
        if self.warm_boots or self.warm_restores:
            lines.append(
                f"warm boots: {self.warm_boots} cold, {self.warm_restores} restored"
            )
        lines.append(
            f"verdict: {'PASS' if self.ok else 'FAIL'} ({self.runs} runs total)"
        )
        return "\n".join(lines)


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """One full differential campaign: baseline + every mechanism, then
    shrink + trace-dump the first failure."""
    plan = generate_plan(
        config.seed, config.n_ops, n_cores=config.n_cores, n_procs=config.n_procs
    )
    runs = 0
    pool = None
    if config.use_snapshots:
        from ..snapshot import BootPool, snapshots_enabled

        if snapshots_enabled():
            pool = BootPool()

    def replay(mech: str, p: FuzzPlan, mutate=None, with_tracer=False) -> RunResult:
        nonlocal runs
        runs += 1
        return run_one(
            mech,
            p,
            mutate=mutate,
            with_tracer=with_tracer,
            frames_per_node=config.frames_per_node,
            monitor_stride=config.monitor_stride,
            pool=pool,
        )

    results: Dict[str, RunResult] = {}
    base = replay(config.baseline, plan)
    results[config.baseline] = base

    failures: List[str] = []
    mismatches: Dict[str, List[str]] = {}
    if not base.clean:
        failures.append(config.baseline)

    for mech in config.mechanisms:
        mutate = config.mutate if mech == "latr" else None
        res = replay(mech, plan, mutate=mutate)
        results[mech] = res
        diffs: List[str] = []
        if base.snapshot is not None and res.snapshot is not None:
            diffs = diff_snapshots(base.snapshot, res.snapshot)
        elif res.snapshot is None and not res.errors:
            diffs = ["no snapshot taken"]
        if diffs:
            mismatches[mech] = diffs
        if not res.clean or diffs:
            failures.append(mech)

    report = FuzzReport(
        config=config,
        plan=plan,
        results=results,
        mismatches=mismatches,
        failures=failures,
        runs=runs,
    )

    def finish() -> FuzzReport:
        if pool is not None:
            report.warm_boots = pool.boots
            report.warm_restores = pool.restores
        return report

    target = next((m for m in failures if m != config.baseline), None)
    if target is None or not config.shrink:
        return finish()

    mutate = config.mutate if target == "latr" else None
    differential_only = results[target].clean and target in mismatches

    def still_fails(p: FuzzPlan) -> bool:
        nonlocal runs
        res = replay(target, p, mutate=mutate)
        if res.violations or res.errors:
            return True
        if not differential_only:
            return False
        b = replay(config.baseline, p)
        if b.snapshot is None or res.snapshot is None:
            return False
        return bool(diff_snapshots(b.snapshot, res.snapshot))

    report.shrunk_plan, report.shrink_runs = shrink_plan(
        plan, still_fails, budget=config.shrink_budget
    )

    # Replay the minimal reproducer with a tracer and dump the window
    # around the first violation (or the tail, for differential failures).
    traced = replay(target, report.shrunk_plan, mutate=mutate, with_tracer=True)
    if traced.tracer is not None:
        tick = 1_000_000
        if traced.violations:
            since = max(0, traced.violations[0].time_ns - config.trace_window_ticks * tick)
        else:
            since = max(0, traced.sim_time_ns - config.trace_window_ticks * tick)
        report.trace_dump = traced.tracer.dump(limit=60, since_ns=since)
    report.runs = runs
    return finish()
