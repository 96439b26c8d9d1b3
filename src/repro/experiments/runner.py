"""Experiment machinery: result tables, the run-cell model, execution backends.

Each paper table/figure has one module in this package. The CLI
(``python -m repro <id>``) and the tests go through
:func:`run_experiment` / :func:`run_many`.

The cell model
==============

An experiment is a *sweep over independent simulated boots*: every row (or
cell of a row) comes from booting a fresh :func:`repro.build_system` machine
with one ``(machine, mechanism, cores/pages/workload)`` configuration and
measuring it. The registry therefore stores, per experiment id, a pair of
pure functions instead of one opaque callable:

* ``cells(fast) -> list[RunCell]`` -- enumerate the independent units of
  work. A :class:`RunCell` is a picklable declarative record: the dotted
  ``"module:function"`` entry point to execute, its keyword ``params``
  (builder kwargs for ``build_system`` / a workload config), the
  deterministic ``seed``, and the fast-mode flag.
* ``assemble(values, fast) -> ExperimentResult`` -- fold the cell values
  (in cell order) into the rendered table.

Because cells share no state -- each boots its own :class:`Simulator` with
its own seed -- they can execute anywhere: inline in this process
(``jobs=1``, the default, byte-identical to the historical serial code) or
sharded across a :class:`concurrent.futures.ProcessPoolExecutor`
(``jobs=N``). The executor preserves cell order on reassembly, records
per-cell wall-clock and simulator-event counts (:class:`CellOutcome`), and
surfaces worker crashes as :class:`CellExecutionError` naming the cell.

Experiments that are inherently sequential (fig2/fig3 timelines, the fuzz
campaigns, model-check) register through the legacy :func:`experiment`
decorator, which wraps the whole body in a single fallback cell -- the
registry API stays uniform and ``--jobs`` remains valid for every id.
"""

from __future__ import annotations

import copy
import importlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass
class ExperimentResult:
    """A rendered experiment: a table plus provenance."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    #: What the paper reports for this table/figure (for EXPERIMENTS.md).
    paper_expectation: str = ""
    notes: str = ""

    def render(self) -> str:
        cols = len(self.headers)
        widths = [len(str(h)) for h in self.headers]
        formatted_rows = []
        for row in self.rows:
            # Render ragged rows defensively: short rows pad with empty
            # cells, long rows truncate to the header count.
            cells = [self._fmt(cell) for cell in row][:cols]
            cells += [""] * (cols - len(cells))
            formatted_rows.append(cells)
            for i, cell in enumerate(cells):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            f"== {self.exp_id}: {self.title} ==",
            " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(self.headers)),
            sep,
        ]
        for cells in formatted_rows:
            lines.append(" | ".join(cells[i].ljust(widths[i]) for i in range(cols)))
        if self.paper_expectation:
            lines.append(f"paper: {self.paper_expectation}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)

    @staticmethod
    def _fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:,.2f}"
        if isinstance(cell, int):
            return f"{cell:,}"
        return str(cell)

    def to_csv(self) -> str:
        """Comma-separated rows (header first) for plotting pipelines."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        cols = len(self.headers)
        writer.writerow(list(self.headers))
        for row in self.rows:
            # Same pad/truncate-to-headers rule as render(): every CSV row
            # parses with a fixed column count.
            cells = list(row)[:cols]
            cells += [""] * (cols - len(cells))
            writer.writerow(cells)
        return buf.getvalue()

    def to_json(self) -> str:
        """A JSON document that :meth:`from_json` restores to an equal-
        rendering result. Tuples become lists, but :meth:`render` and
        :meth:`to_csv` treat the two identically, so round-tripped results
        diff cleanly against originals."""
        import json

        return json.dumps(
            {
                "exp_id": self.exp_id,
                "title": self.title,
                "headers": list(self.headers),
                "rows": [list(row) for row in self.rows],
                "paper_expectation": self.paper_expectation,
                "notes": self.notes,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        import json

        data = json.loads(text)
        return cls(
            exp_id=data["exp_id"],
            title=data["title"],
            headers=tuple(data["headers"]),
            rows=[tuple(row) for row in data["rows"]],
            paper_expectation=data.get("paper_expectation", ""),
            notes=data.get("notes", ""),
        )


# ---------------------------------------------------------------------------
# Run cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunCell:
    """One independent simulated boot of an experiment sweep.

    Declarative and picklable: nothing here references live simulator
    objects, so a cell can cross a process boundary and execute anywhere.
    """

    #: The experiment this cell belongs to.
    exp_id: str
    #: Stable human-readable id, unique within the experiment
    #: (e.g. ``"cores=8/latr"``).
    cell_id: str
    #: Entry point as ``"package.module:function"``; must be module-level so
    #: worker processes can resolve it by name.
    fn: str
    #: Keyword arguments for ``fn`` -- builder kwargs for ``build_system`` /
    #: the workload config. Every value must be picklable.
    params: Dict[str, Any] = field(default_factory=dict)
    #: Deterministic RNG seed this cell runs under (mirrored inside
    #: ``params`` where the entry point takes one).
    seed: int = 1
    #: Whether the cell was enumerated in fast mode (reduced sweeps).
    fast: bool = False

    def resolve(self) -> Callable[..., object]:
        mod_name, _, fn_name = self.fn.partition(":")
        if not fn_name:
            raise ValueError(f"cell {self.cell_id}: fn must be 'module:function', got {self.fn!r}")
        module = importlib.import_module(mod_name)
        return getattr(module, fn_name)

    def run(self) -> object:
        return self.resolve()(**self.params)


@dataclass
class CellOutcome:
    """A finished cell: its value plus where the time went."""

    cell: RunCell
    value: object
    #: Wall-clock seconds inside the executing process (worker-side when
    #: sharded, so pool queueing does not pollute the timing).
    wall_s: float
    #: Simulator events the cell executed (worker-local counter delta).
    events: int


class CellExecutionError(RuntimeError):
    """A cell raised (or its worker process died) during execution."""

    def __init__(self, cell: RunCell, message: str):
        super().__init__(f"cell {cell.exp_id}/{cell.cell_id} failed: {message}")
        self.cell = cell
        self.message = message

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``args`` (the
        # formatted string) and would crash the pool's result thread;
        # rebuild from the original (cell, message) pair instead.
        return (CellExecutionError, (self.cell, self.message))


class WorkerDiedError(CellExecutionError):
    """A cell's worker process died abruptly (``os._exit``, a signal, the
    OOM killer): the pool broke, and no traceback of the cell exists."""


def execute_cell(cell: RunCell) -> CellOutcome:
    """Run one cell in this process, timing it and counting its simulator
    events. This is the worker entry point for the sharded backend."""
    from ..sim.engine import Simulator

    events_before = Simulator.total_events_executed
    started = time.perf_counter()
    value = cell.run()
    wall = time.perf_counter() - started
    return CellOutcome(
        cell=cell,
        value=value,
        wall_s=wall,
        events=Simulator.total_events_executed - events_before,
    )


def _execute_cell_in_worker(cell: RunCell) -> CellOutcome:
    """Pool target: make failures picklable by flattening the traceback."""
    try:
        return execute_cell(cell)
    except Exception:  # noqa: BLE001 -- re-raised with provenance in the parent
        raise CellExecutionError(cell, traceback.format_exc())


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None``/``<=0`` means one worker per CPU."""
    import os

    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_cells(cells: Sequence[RunCell], jobs: int = 1) -> List[CellOutcome]:
    """Execute cells, returning outcomes in the order the cells were given.

    ``jobs == 1`` runs everything inline in this process -- no pool, no
    pickling, byte-identical to the historical serial path. ``jobs > 1``
    shards the cells across a ``ProcessPoolExecutor``; completion order is
    arbitrary but reassembly order is not. A cell that raises surfaces as
    :class:`CellExecutionError` naming it, with the cell's traceback; one
    whose worker process dies as :class:`WorkerDiedError`.
    """
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(cells) <= 1:
        return [execute_cell(cell) for cell in cells]

    from concurrent.futures.process import BrokenProcessPool

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    with worker_pool(min(jobs, len(cells))) as pool:
        futures = [(i, pool.submit(_execute_cell_in_worker, cell)) for i, cell in enumerate(cells)]
        for i, future in futures:
            try:
                outcomes[i] = future.result()
            except CellExecutionError:
                raise
            except BrokenProcessPool as exc:
                raise WorkerDiedError(
                    cells[i],
                    f"worker process died abruptly ({exc}); "
                    "a sibling cell may have crashed the pool",
                ) from exc
    return [outcome for outcome in outcomes if outcome is not None]


def worker_pool(max_workers: int):
    """A process pool whose workers die at Ctrl-C, which reaches the whole
    process group, instead of each running its queued cells first: an
    interrupted run ends at once."""
    import signal
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_DFL),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


#: Signature of a cell enumerator: fast -> ordered independent cells.
CellsFn = Callable[[bool], List[RunCell]]
#: Signature of an assembler: (cell values in cell order, fast) -> table.
AssembleFn = Callable[[List[object], bool], ExperimentResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: how to decompose and reassemble one experiment."""

    exp_id: str
    cells: CellsFn
    assemble: AssembleFn
    #: False for inherently sequential experiments riding the single-cell
    #: fallback (their one cell still runs under any ``--jobs``).
    parallel: bool = True


#: exp id -> spec. Every experiment, cell-decomposed or legacy, lives here.
_REGISTRY: Dict[str, ExperimentSpec] = {}

#: Monolithic bodies behind the single-cell fallback (legacy registrations).
_LEGACY_BODIES: Dict[str, Callable[[bool], ExperimentResult]] = {}


def cell_experiment(exp_id: str, cells: CellsFn, assemble: AssembleFn) -> None:
    """Register a cell-decomposed experiment."""
    _REGISTRY[exp_id] = ExperimentSpec(exp_id=exp_id, cells=cells, assemble=assemble)


def experiment(exp_id: str):
    """Decorator registering a monolithic ``callable(fast) -> ExperimentResult``.

    The body is wrapped in a single fallback :class:`RunCell`, so sequential
    experiments share the registry API (and the ``--jobs`` plumbing) with
    cell-decomposed ones.
    """

    def wrap(fn: Callable[[bool], ExperimentResult]):
        _LEGACY_BODIES[exp_id] = fn

        def cells(fast: bool) -> List[RunCell]:
            return [
                RunCell(
                    exp_id=exp_id,
                    cell_id="all",
                    fn="repro.experiments.runner:run_legacy_body",
                    params={"exp_id": exp_id, "fast": fast},
                    fast=fast,
                )
            ]

        def assemble(values: List[object], fast: bool) -> ExperimentResult:
            (result,) = values
            assert isinstance(result, ExperimentResult)
            return result

        _REGISTRY[exp_id] = ExperimentSpec(
            exp_id=exp_id, cells=cells, assemble=assemble, parallel=False
        )
        return fn

    return wrap


def run_legacy_body(exp_id: str, fast: bool) -> ExperimentResult:
    """Worker entry point for the single-cell fallback."""
    _load_all()
    return _LEGACY_BODIES[exp_id](fast)


def available_experiments() -> List[str]:
    _load_all()
    return sorted(_REGISTRY)


def experiment_spec(exp_id: str) -> ExperimentSpec:
    _load_all()
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def experiment_cells(exp_id: str, fast: bool = False) -> List[RunCell]:
    """The declarative work list one experiment would run."""
    return experiment_spec(exp_id).cells(fast)


# ---------------------------------------------------------------------------
# Execution layer
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRun:
    """One executed experiment: its table plus per-cell accounting."""

    exp_id: str
    result: ExperimentResult
    outcomes: List[CellOutcome]
    jobs: int

    @property
    def cell_seconds(self) -> float:
        """Aggregate in-cell wall-clock (sums across workers when sharded,
        so it can exceed elapsed time)."""
        return sum(outcome.wall_s for outcome in self.outcomes)

    @property
    def events(self) -> int:
        return sum(outcome.events for outcome in self.outcomes)

    def cell_timings(self) -> List[Tuple[str, float]]:
        return [(o.cell.cell_id, o.wall_s) for o in self.outcomes]


def execute_experiment(exp_id: str, fast: bool = False, jobs: int = 1) -> ExperimentRun:
    """Run one experiment through the cell executor."""
    spec = experiment_spec(exp_id)
    cells = spec.cells(fast)
    outcomes = run_cells(cells, jobs=jobs)
    result = spec.assemble([outcome.value for outcome in outcomes], fast)
    return ExperimentRun(exp_id=exp_id, result=result, outcomes=outcomes, jobs=jobs)


def run_experiment(exp_id: str, fast: bool = False, jobs: int = 1) -> ExperimentResult:
    """Run one experiment by id ('fig6', 'tab5', ...)."""
    return execute_experiment(exp_id, fast=fast, jobs=jobs).result


def run_many(
    exp_ids: Sequence[str], fast: bool = False, jobs: int = 1
) -> List[ExperimentRun]:
    """Run several experiments, sharding the *union* of their cells.

    With ``jobs > 1`` every cell of every experiment goes into one shared
    pool, so single-cell (sequential-fallback) experiments overlap with the
    big sweeps instead of serializing between them -- this is what makes
    ``python -m repro all --fast --jobs N`` scale. Results come back in
    ``exp_ids`` order with tables identical to per-experiment serial runs.

    A cell that several experiments ask for (the same ``fn``, ``params``,
    ``seed`` and ``fast``: fig1's Apache cells are fig9 cells, canneal and
    dedup repeat) runs once; cells are pure, so its value does not depend
    on which experiment ran it. Its wall time and events are billed to the
    first experiment, in ``exp_ids`` order, that asked for it. Every later
    one gets a deep copy of the value, taken before any ``assemble`` runs,
    with 0 s and 0 events, so no ``assemble`` can mutate another
    experiment's input.
    """
    specs = [experiment_spec(exp_id) for exp_id in exp_ids]
    cell_lists = [spec.cells(fast) for spec in specs]
    first: Dict[Tuple[str, str, int, bool], int] = {}
    distinct: List[RunCell] = []
    for cell_list in cell_lists:
        for cell in cell_list:
            key = _cell_key(cell)
            if key not in first:
                first[key] = len(distinct)
                distinct.append(cell)
    outcomes = run_cells(distinct, jobs=jobs)
    billed = [False] * len(distinct)
    chunks: List[List[CellOutcome]] = []
    for cell_list in cell_lists:
        chunk = []
        for cell in cell_list:
            i = first[_cell_key(cell)]
            outcome = outcomes[i]
            if billed[i]:
                outcome = CellOutcome(
                    cell=cell, value=copy.deepcopy(outcome.value), wall_s=0.0, events=0
                )
            billed[i] = True
            chunk.append(outcome)
        chunks.append(chunk)
    return [
        ExperimentRun(
            exp_id=spec.exp_id,
            result=spec.assemble([outcome.value for outcome in chunk], fast),
            outcomes=chunk,
            jobs=jobs,
        )
        for spec, chunk in zip(specs, chunks)
    ]


def _cell_key(cell: RunCell) -> Tuple[str, str, int, bool]:
    """What a cell's value depends on: its entry point and arguments."""
    return (cell.fn, repr(sorted(cell.params.items())), cell.seed, cell.fast)


def _load_all() -> None:
    """Import every experiment module (they self-register)."""
    from . import (  # noqa: F401
        ablations,
        fig_apache,
        fig_microbench,
        fig_numa,
        fig_parsec,
        fig_timelines,
        fuzz,
        mech_compare,
        memoverhead,
        model_check,
        model_exhaust,
        numapte,
        slo,
        tail_latency,
        thp,
        tables,
        virt,
    )
