"""Exhaustive small-scope exploration with dynamic partial-order reduction.

The explorer enumerates every schedulable action sequence of a
:class:`~repro.verify.mc.executor.McExecutor` scope by depth-first search,
backtracking between siblings via in-place world snapshots
(:meth:`McExecutor.fork` / ``restore`` -- O(state) per sibling instead of
an O(depth) cold-boot replay; ``McConfig(use_snapshots=False)`` keeps the
replay path as a bit-identical escape hatch), pruned two ways:

* **Sleep sets** over an independence relation. The relation is
  deliberately conservative -- only pairs proven to commute in *every*
  state are independent: two sweeps on distinct cores (each clears its
  own bitmask bit and invalidates its own core's TLB; the deferred
  migration-PTE apply and the ``done`` resume fire exactly once in either
  order), and a program op that is a guaranteed PC-advance skip against
  any action on another core. Everything touching the shared allocator,
  the state queues, or ``mmap_sem`` is treated as dependent and left to:
* **State hashing**. A canonical functional-state hash identifies
  convergent interleavings; a revisit is pruned only when a previously
  recorded sleep set is a subset of the current one (re-arriving with a
  smaller sleep set means more obligations, so the state is re-explored
  -- the classic sleep-set/state-caching soundness condition).

Every action must strictly change the canonical state (enabledness
guards guarantee it for healthy systems), so a *stutter* -- an enabled
action whose post-state hashes identically -- is reported as a livelock
finding; this is how sweep-cache staleness shows up exhaustively.

Complete (maximal, drained) traces run through the differential oracle:
replayed with each fast-path escape hatch toggled (TLB index, sweep
index -- end state must be hash-identical), with the
engine's same-instant event order reversed through the ready-set hook
(normalized end state must match), and under each synchronous mechanism
(normalized end state must match). Counterexample traces are shrunk with
the suite-wide ddmin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..shrink import ddmin
from .executor import (
    McExecutor,
    McScope,
    TOGGLE_VARIANTS,
    diff_mech_snapshots,
    racy_free_pages,
)

#: Deterministic drain extension bound for truncated (ddmin) traces.
EXTEND_CAP = 128


@dataclass(frozen=True)
class McConfig:
    """Scope plus exploration knobs."""

    scope: McScope = field(default_factory=McScope)
    #: Per-cell node budget (deterministic, unlike wall-clock budgets).
    max_nodes: int = 200_000
    #: Stop a cell at its first counterexample (mutation audits); healthy
    #: sweeps leave it on too -- a clean space never triggers it.
    stop_on_first: bool = True
    #: Run the differential oracle at every complete leaf.
    differential: bool = True
    #: Disable both reductions (brute-force reference for the soundness
    #: regression test; exponential -- tiny scopes only).
    no_reduction: bool = False
    #: Record every distinct state hash reached (soundness tests assert
    #: reduced and brute-force runs cover the same state set).
    collect_hashes: bool = False
    shrink_budget: int = 60
    #: Backtrack via in-place world snapshots (O(1) per sibling) instead of
    #: replaying every prefix from a cold boot (O(depth)). False is the
    #: bit-identical escape hatch, same pattern as the TLB and sweep
    #: indexes; mutated scopes force the replay path because a mutation
    #: may carry broken state the snapshot layer does not model.
    use_snapshots: bool = True


@dataclass
class Counterexample:
    cell: int
    trace: Tuple[str, ...]
    findings: Tuple[str, ...]
    shrunk: Optional[Tuple[str, ...]] = None
    shrink_runs: int = 0


@dataclass
class CellResult:
    cell: int
    root_action: str
    nodes: int = 0
    leaves: int = 0
    complete_leaves: int = 0
    hash_pruned: int = 0
    sleep_skipped: int = 0
    replays: int = 0
    restores: int = 0
    max_depth: int = 0
    incomplete: bool = False
    counterexample: Optional[Counterexample] = None
    state_hashes: set = field(default_factory=set)


@dataclass
class McResult:
    config: McConfig
    root_actions: Tuple[str, ...]
    cells: List[CellResult]
    verdict: str  # "ok" | "violation" | "incomplete"
    counterexample: Optional[Counterexample]

    @property
    def nodes(self) -> int:
        return sum(c.nodes for c in self.cells)

    @property
    def leaves(self) -> int:
        return sum(c.leaves for c in self.cells)

    @property
    def hash_pruned(self) -> int:
        return sum(c.hash_pruned for c in self.cells)

    @property
    def sleep_skipped(self) -> int:
        return sum(c.sleep_skipped for c in self.cells)

    def render(self) -> str:
        s = self.config.scope
        lines = [
            f"model-exhaust: cores={s.cores} pages={s.pages} ops={s.ops}"
            + (f" mutate={s.mutate}" if s.mutate else ""),
            f"verdict: {self.verdict.upper()}",
            f"states explored: {self.nodes}  complete traces: "
            f"{sum(c.complete_leaves for c in self.cells)}",
            f"pruned: {self.hash_pruned} by state hash, "
            f"{self.sleep_skipped} by sleep sets (DPOR)",
            f"backtracking: {sum(c.restores for c in self.cells)} restores, "
            f"{sum(c.replays for c in self.cells)} replays",
            f"cells: {len(self.cells)} root branches "
            f"({', '.join(c.root_action for c in self.cells)})",
        ]
        if self.counterexample is not None:
            ce = self.counterexample
            lines.append(f"counterexample (cell {ce.cell}, {len(ce.trace)} actions):")
            lines.extend(f"  {k}" for k in ce.trace)
            lines.extend(f"  finding: {f}" for f in ce.findings)
            if ce.shrunk is not None:
                lines.append(
                    f"shrunk to {len(ce.shrunk)} actions "
                    f"({ce.shrink_runs} replays):"
                )
                lines.extend(f"  {k}" for k in ce.shrunk)
        return "\n".join(lines)


class _CellDone(Exception):
    """Unwinds the DFS when a cell stops early (first counterexample or
    node budget)."""


def _independent(a: str, b: str, executor: McExecutor) -> bool:
    """Conservative commutation check (see module docstring)."""
    if a.startswith("sweep:c") and b.startswith("sweep:c"):
        return a != b
    for op_key, other in ((a, b), (b, a)):
        if not op_key.startswith("op:"):
            continue
        op = executor._op_for_key(op_key)
        other_core = None
        if other.startswith("op:"):
            other_core = executor._op_for_key(other).core
        elif other.startswith("sweep:c"):
            other_core = int(other[len("sweep:c"):])
        if other_core == op.core:
            return False
        # A guaranteed PC-advance skip only touches its own thread state.
        slot = executor.slots[op.page]
        if (op.kind == "mmap" and slot is not None) or (
            op.kind != "mmap" and slot is None
        ):
            return True
    return False


class _CellExplorer:
    def __init__(self, config: McConfig, cell: int, root_action: str,
                 root_sleep: Sequence[str]):
        self.config = config
        self.cell = cell
        self.root_action = root_action
        self.root_sleep = tuple(root_sleep)
        self.result = CellResult(cell=cell, root_action=root_action)
        # Mutations may carry deliberately-broken derived state the snapshot
        # layer does not model; they keep the proven replay path.
        self.use_snapshots = config.use_snapshots and config.scope.mutate is None
        #: DFS-path stack of (trace, world snapshot) for O(1) backtracking.
        self._snaps: List[Tuple[Tuple[str, ...], object]] = []
        #: variant -> (executor, boot snapshot): differential replicas are
        #: booted once per cell and rewound per leaf instead of re-booted.
        self._replicas: Dict[str, Tuple[McExecutor, object]] = {}
        #: hash -> list of sleep sets it was explored with.
        self.visited: Dict[str, List[frozenset]] = {}
        #: mechanism -> {op projection -> normalized snapshot}
        self._mech_cache: Dict[str, Dict[Tuple[str, ...], Dict]] = {}

    # ------------------------------------------------------------------ run

    def run(self) -> CellResult:
        executor = self._executor = self._replay(())
        if self.use_snapshots:
            # Base snapshot of the freshly-booted world: the backtracking
            # floor when a node itself is unsnapshottable (ops in flight).
            self._snaps.append(((), executor.fork()))
        root_hash = executor.state_hash()
        sleep = set()
        if not self.config.no_reduction:
            sleep = {
                z for z in self.root_sleep if _independent(z, self.root_action, executor)
            }
        executor.execute(self.root_action)
        try:
            self._dfs((self.root_action,), sleep, executor, root_hash)
        except _CellDone:
            pass
        return self.result

    def _replay(self, trace: Sequence[str]) -> McExecutor:
        if trace:
            self.result.replays += 1
        executor = McExecutor(self.config.scope)
        for key in trace:
            executor.apply(key, tolerant=False)
        return executor

    def _backtrack(self, trace: Tuple[str, ...]) -> McExecutor:
        """Rewind the shared executor to the state reached by ``trace``:
        restore the nearest ancestor snapshot on the DFS path (usually the
        current node's own -- a pure O(state) restore, no prefix replay)
        and re-apply the unsnapshottable suffix, if any."""
        executor = self._executor
        for snap_trace, snap in reversed(self._snaps):
            if len(snap_trace) <= len(trace):
                executor.restore(snap)
                self.result.restores += 1
                for key in trace[len(snap_trace):]:
                    executor.apply(key, tolerant=False)
                return executor
        return self._replay(trace)

    def _fail(self, trace: Tuple[str, ...], findings: List[str]) -> None:
        if self.result.counterexample is None:
            self.result.counterexample = Counterexample(
                cell=self.cell, trace=trace, findings=tuple(findings)
            )
        if self.config.stop_on_first:
            raise _CellDone()

    # ------------------------------------------------------------------ dfs

    def _dfs(self, trace: Tuple[str, ...], sleep: set, executor: McExecutor,
             parent_hash: str) -> None:
        res = self.result
        res.nodes += 1
        res.max_depth = max(res.max_depth, len(trace))
        if res.nodes > self.config.max_nodes:
            res.incomplete = True
            raise _CellDone()

        findings = executor.findings()
        if findings:
            self._fail(trace, findings)
            return
        h = executor.state_hash()
        if self.config.collect_hashes:
            res.state_hashes.add(h)
        if h == parent_hash:
            self._fail(
                trace,
                [f"stutter: enabled action {trace[-1]!r} changed nothing (livelock)"],
            )
            return
        if not self.config.no_reduction:
            recorded = self.visited.get(h)
            if recorded is not None and any(r <= sleep for r in recorded):
                res.hash_pruned += 1
                return
            self.visited.setdefault(h, []).append(frozenset(sleep))

        enabled = executor.enabled_actions()
        if not enabled:
            self._leaf(trace, executor)
            return

        # Actions actually expanded: the skip set is the *initial* sleep set
        # (actions added during the loop are previously-iterated siblings,
        # which cannot reappear in ``enabled``).
        expand = [action for action in enabled if action not in sleep]
        res.sleep_skipped += len(enabled) - len(expand)
        snap = None
        if len(expand) > 1 and self.use_snapshots and not executor.in_flight:
            # Only branching nodes snapshot: a chain node's world is never
            # backtracked to (its sole child consumes the live executor).
            snap = executor.fork()
            self._snaps.append((trace, snap))
        try:
            live: Optional[McExecutor] = executor
            cur_sleep = set(sleep)
            for action in expand:
                if live is not None:
                    child, live = live, None
                elif self.use_snapshots:
                    child = self._backtrack(trace)
                else:
                    child = self._replay(trace)
                child_sleep = set()
                if not self.config.no_reduction:
                    child_sleep = {z for z in cur_sleep if _independent(z, action, child)}
                child.execute(action)
                self._dfs(trace + (action,), child_sleep, child, h)
                if not self.config.no_reduction:
                    cur_sleep.add(action)
        finally:
            if snap is not None:
                self._snaps.pop()

    # ----------------------------------------------------------------- leaf

    def _leaf(self, trace: Tuple[str, ...], executor: McExecutor) -> None:
        self.result.leaves += 1
        if executor.in_flight:
            stuck = ", ".join(
                op.key for (op, _p) in executor.in_flight.values()
            )
            self._fail(trace, [f"stuck: in-flight ops never completed ({stuck})"])
            return
        if executor.pending_lazy():
            self._fail(
                trace,
                [f"undrained: {executor.pending_lazy()} lazy operations remain "
                 "with no schedulable action"],
            )
            return
        quiescent = executor.quiescent_findings()
        if quiescent:
            self._fail(trace, quiescent)
            return
        self.result.complete_leaves += 1
        if self.config.differential:
            findings = self._differential(trace, executor)
            if findings:
                self._fail(trace, findings)

    def _variant_replica(self, variant: str, trace: Tuple[str, ...]) -> McExecutor:
        """A replica executor for ``variant`` advanced through ``trace``:
        booted once per cell and rewound to its boot snapshot per leaf when
        snapshots are on, else booted cold every time."""
        if not self.use_snapshots:
            replica = McExecutor(self.config.scope, variant=variant)
            self.result.replays += 1
        else:
            pair = self._replicas.get(variant)
            if pair is None:
                replica = McExecutor(self.config.scope, variant=variant)
                self._replicas[variant] = (replica, replica.fork())
                self.result.replays += 1
            else:
                replica, boot_snap = pair
                replica.restore(boot_snap)
                self.result.restores += 1
        for key in trace:
            replica.apply(key)
        return replica

    def _differential(self, trace: Tuple[str, ...],
                      executor: McExecutor) -> List[str]:
        findings: List[str] = []
        base_hash = executor.state_hash(include_derived=False)
        base_snap = executor.mech_snapshot()
        # Fast-path escape hatches: end state must be hash-identical.
        for variant in TOGGLE_VARIANTS:
            replica = self._variant_replica(variant, trace)
            vfind = replica.findings()
            if vfind:
                findings.append(f"toggle {variant}: findings {vfind}")
            elif replica.state_hash(include_derived=False) != base_hash:
                findings.append(
                    f"toggle {variant}: end state diverged from primary schedule"
                )
        # Reversed same-instant event order through the engine's ready-set
        # hook: semantic end state must match.
        replica = self._variant_replica("revheap", trace)
        diffs = diff_mech_snapshots(base_snap, replica.mech_snapshot())
        diffs += [f"revheap findings: {f}" for f in replica.findings()]
        findings.extend(f"revheap: {d}" for d in diffs)
        # Synchronous mechanisms over the program-op projection. Slots a
        # cross-core touch may have hit inside a free operation's staleness
        # window end differently under lazy vs eager invalidation by design;
        # both sides mask them identically (see racy_free_pages).
        projection = tuple(k for k in trace if k.startswith("op:"))
        racy = racy_free_pages(projection)
        mech_base = executor.mech_snapshot(racy) if racy else base_snap
        for mech in self.config.scope.check_mechanisms:
            snap = self._mech_end_state(mech, projection, findings)
            if snap is None:
                continue
            for d in diff_mech_snapshots(mech_base, snap):
                findings.append(f"mechanism {mech}: {d}")
        return findings

    def _mech_end_state(self, mech: str, projection: Tuple[str, ...],
                        findings: List[str]) -> Optional[Dict]:
        cache = self._mech_cache.setdefault(mech, {})
        if projection in cache:
            return cache[projection]
        replica = self._variant_replica(f"mech:{mech}", projection)
        if replica.in_flight or replica.findings():
            findings.append(
                f"mechanism {mech}: replay unhealthy "
                f"(in_flight={sorted(replica.in_flight)}, "
                f"findings={replica.findings()})"
            )
            cache[projection] = None
            return None
        snap = replica.mech_snapshot(racy_free_pages(projection))
        cache[projection] = snap
        return snap


# ---------------------------------------------------------------------------
# Cells, sharding, and the top-level run
# ---------------------------------------------------------------------------


def root_actions(config: McConfig) -> Tuple[str, ...]:
    """The first-level branches; one cell per branch. A pure function of
    the scope, so every worker derives the identical decomposition."""
    return tuple(McExecutor(config.scope).enabled_actions())


def explore_cell(config: McConfig, cell: int) -> CellResult:
    """Explore root branch ``cell`` with the sleep set induced by its
    left siblings -- the standard persistent left-to-right split, which
    makes the concatenation of all cells equal to the serial DFS."""
    roots = root_actions(config)
    result = _CellExplorer(config, cell, roots[cell], roots[:cell]).run()
    if result.counterexample is not None and config.shrink_budget > 0:
        result.counterexample = _shrink(config, result.counterexample)
    return result


def check_trace(config: McConfig, trace: Sequence[str]) -> List[str]:
    """Replay a (possibly truncated) trace and report its findings.

    Truncated traces are drained deterministically first -- remaining
    daemon actions fire in sorted order -- so progress findings (stuck,
    undrained, stutter) are judged against a maximal schedule, not an
    artifact of the cut.
    """
    executor = McExecutor(config.scope)
    prev = executor.state_hash()
    findings: List[str] = []
    for key in trace:
        if not executor.apply(key):
            continue
        cur = executor.state_hash()
        if executor.findings():
            return executor.findings()
        if cur == prev:
            findings.append(f"stutter: enabled action {key!r} changed nothing")
            return findings
        prev = cur
    extension: List[str] = []
    for _ in range(EXTEND_CAP):
        daemon = [a for a in executor.enabled_actions() if not a.startswith("op:")]
        if not daemon:
            break
        before = executor.state_hash()
        executor.execute(daemon[0])
        extension.append(daemon[0])
        if executor.findings():
            return executor.findings()
        if executor.state_hash() == before:
            return [f"stutter: enabled action {daemon[0]!r} changed nothing"]
    if executor.in_flight:
        return ["stuck: in-flight ops never completed"]
    if executor.pending_lazy():
        return [f"undrained: {executor.pending_lazy()} lazy operations remain"]
    findings = executor.quiescent_findings()
    if findings:
        return findings
    if config.differential and executor.program_complete():
        cell = _CellExplorer(config, 0, "", ())
        # The replicas must replay the drain extension too: the primary
        # executor above was drained to a maximal schedule, and comparing
        # it against an undrained replay would report pending lazy work as
        # a divergence.
        return cell._differential(tuple(trace) + tuple(extension), executor)
    return []


def _shrink(config: McConfig, ce: Counterexample) -> Counterexample:
    shrunk, runs = ddmin(
        list(ce.trace),
        lambda candidate: bool(check_trace(config, candidate)),
        budget=config.shrink_budget,
    )
    ce.shrunk = tuple(shrunk)
    ce.shrink_runs = runs
    return ce


def merge_cells(config: McConfig, roots: Tuple[str, ...],
                cells: List[CellResult]) -> McResult:
    """Deterministic merge: the verdict and canonical counterexample come
    from the lowest failing cell, and when a run stops early the counts
    of later cells are discarded -- so ``--jobs 1`` and any sharding
    report byte-identical results."""
    cells = sorted(cells, key=lambda c: c.cell)
    failing = next((c for c in cells if c.counterexample is not None), None)
    if failing is not None and config.stop_on_first:
        cells = [c for c in cells if c.cell <= failing.cell]
    incomplete = any(c.incomplete for c in cells)
    if failing is not None:
        verdict = "violation"
    elif incomplete:
        verdict = "incomplete"
    else:
        verdict = "ok"
    return McResult(
        config=config,
        root_actions=roots,
        cells=cells,
        verdict=verdict,
        counterexample=failing.counterexample if failing is not None else None,
    )


def run_mc(config: McConfig, jobs: int = 1) -> McResult:
    """Explore the full scope: decompose into root-branch cells, explore
    each (optionally across processes), merge deterministically."""
    roots = root_actions(config)
    if not roots:
        return McResult(config, roots, [], "ok", None)
    if jobs <= 1 or len(roots) == 1:
        cells = []
        for i in range(len(roots)):
            cell = explore_cell(config, i)
            cells.append(cell)
            if cell.counterexample is not None and config.stop_on_first:
                break
        return merge_cells(config, roots, cells)
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        cells = list(pool.map(_explore_cell_job, [(config, i) for i in range(len(roots))]))
    return merge_cells(config, roots, cells)


def _explore_cell_job(args: Tuple[McConfig, int]) -> CellResult:
    return explore_cell(*args)
