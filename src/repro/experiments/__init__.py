"""One experiment runner per paper table/figure, plus ablations.

Use ``python -m repro <id>`` or::

    from repro.experiments import run_experiment
    print(run_experiment("fig6", fast=True).render())

Experiments decompose into declarative :class:`RunCell` units that can run
inline or sharded across worker processes::

    from repro.experiments import run_many
    runs = run_many(["fig6", "fig7"], fast=True, jobs=4)
"""

from .runner import (
    CellExecutionError,
    CellOutcome,
    ExperimentResult,
    ExperimentRun,
    RunCell,
    available_experiments,
    execute_experiment,
    experiment_cells,
    iter_runs,
    run_experiment,
    run_many,
)

__all__ = [
    "CellExecutionError",
    "CellOutcome",
    "ExperimentResult",
    "ExperimentRun",
    "RunCell",
    "available_experiments",
    "execute_experiment",
    "experiment_cells",
    "iter_runs",
    "run_experiment",
    "run_many",
]
