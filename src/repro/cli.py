"""Command-line entry point: regenerate any paper table or figure.

Examples::

    python -m repro list
    python -m repro fig6
    python -m repro fig9 --fast
    python -m repro all --fast -o results.txt
    python -m repro all --fast --jobs 4
    python -m repro fuzz --seed 7 --ops 500
    python -m repro ci
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .experiments import available_experiments, iter_runs, run_many
from .experiments.runner import WorkerDiedError

# Tier-1 line-coverage floor enforced by `repro ci` when pytest-cov is
# installed (the `.[dev]` extra). Set to two points below the measured
# suite coverage (see tools/measure_coverage.py); raise it as the suite
# grows, never lower it to paper over a regression.
COVERAGE_FLOOR = 92

# The commands that read each command-specific option. An option given to
# any other command exits 2 rather than being silently ignored, so every
# option's default is one a user cannot type (None, or False for a
# switch) and the command that reads it applies the real default.
# "<experiment>" is any experiment id, or "all".
_EXPERIMENT = "<experiment>"
OPTION_READERS = {
    "--fast": (_EXPERIMENT, "fuzz"),
    "--jobs": (_EXPERIMENT, "mc"),
    "--seed": ("fuzz",),
    "--ops": ("fuzz", "mc"),
    "--mutate": ("fuzz", "mc"),
    "--cores": ("mc",),
    "--pages": ("mc",),
    "--budget": ("mc",),
    "--no-diff": ("mc",),
    "--legacy-latency-stats": (_EXPERIMENT,),
    "--no-snapshots": (_EXPERIMENT, "fuzz", "mc"),
    "--output": (_EXPERIMENT, "fuzz", "mc"),
    "--csv-dir": (_EXPERIMENT,),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="latr-repro",
        description="Reproduce the tables and figures of 'LATR: Lazy Translation "
        "Coherence' (ASPLOS 2018) on the simulated machine.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig6, tab5), 'all', 'list', 'fuzz', 'mc', "
        "or 'ci'; 'run <id>' is accepted as an alias for '<id>'",
    )
    parser.add_argument(
        "run_target",
        nargs="?",
        default=None,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced sweeps/durations (for smoke runs and CI)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="experiments/mc: run cells on N worker processes (0 = one per "
        "CPU); tables are byte-identical to --jobs 1 (default: 1, fully "
        "in-process)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fuzz: RNG seed for the workload+schedule plan (default 1)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        help="fuzz: operations per plan (default 200); "
        "mc: program length (default 5)",
    )
    parser.add_argument(
        "--mutate",
        default=None,
        help="fuzz/mc: inject a known-bad variant (see `python -m repro "
        "fuzz --mutate help`)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        help="mc: cores in the model-checked scope (1-4, default 3)",
    )
    parser.add_argument(
        "--pages",
        type=int,
        default=None,
        help="mc: page slots in the model-checked scope (1-3, default 2)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="mc: per-cell explored-state budget (deterministic; the run "
        "reports 'incomplete' when hit; default 200000)",
    )
    parser.add_argument(
        "--no-diff",
        action="store_true",
        help="mc: skip the differential oracle at complete traces",
    )
    parser.add_argument(
        "--legacy-latency-stats",
        action="store_true",
        help="record latency samples from t=0 instead of gating them on "
        "the measurement window (reproduces the old warmup-polluted "
        "percentiles, for A/B comparison)",
    )
    parser.add_argument(
        "--no-snapshots",
        action="store_true",
        help="disable all snapshot/fork machinery: warm-boot pools boot "
        "cold and the model checker backtracks by prefix replay; results "
        "are byte-identical to snapshot runs (the escape hatch exists to "
        "rule snapshots out when debugging)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="also append rendered tables to this file",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="also write each experiment's rows as <csv-dir>/<id>.csv",
    )
    args = parser.parse_args(argv)

    if args.experiment == "run":
        if args.run_target is None:
            parser.error("'run' needs an experiment id (e.g. 'run slo')")
        args.experiment = args.run_target
    elif args.run_target is not None:
        parser.error(f"unexpected extra argument {args.run_target!r}")

    command = args.experiment
    if command not in ("list", "fuzz", "mc", "ci"):
        command = _EXPERIMENT
    for flag, readers in OPTION_READERS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if command not in readers and value is not None and value is not False:
            print(f"error: {flag} applies only to: {', '.join(readers)}", file=sys.stderr)
            return 2

    if args.no_snapshots:
        from .snapshot import set_snapshots_enabled

        set_snapshots_enabled(False)

    if args.legacy_latency_stats:
        from .sim.stats import set_latency_gating

        set_latency_gating(False)

    if args.experiment == "list":
        for exp_id in available_experiments():
            print(exp_id)
        return 0

    if args.experiment == "fuzz":
        return _run_fuzz_command(args)

    if args.experiment == "mc":
        return _run_mc_command(args)

    if args.experiment == "ci":
        return _run_ci_command(args)

    known = available_experiments()
    if args.experiment != "all" and args.experiment not in known:
        # Checked before --output is opened or anything runs; a KeyError
        # raised inside a run is a bug, not bad input, and keeps its
        # traceback.
        print(
            f"unknown experiment {args.experiment!r}; available: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    exp_ids = known if args.experiment == "all" else [args.experiment]
    sink = open(args.output, "a") if args.output else None
    step = args.experiment
    try:
        if args.jobs is not None and args.jobs != 1:
            step = f"{args.experiment} on {args.jobs or 'auto'} jobs"
            # Sharded backend: the union of every experiment's cells goes
            # into one worker pool; tables come back in experiment order,
            # byte-identical to the serial path.
            started = time.time()
            runs = run_many(exp_ids, fast=args.fast, jobs=args.jobs)
            elapsed = time.time() - started
            for run in runs:
                _emit(run.exp_id, run.result, sink, args.csv_dir)
                print(
                    f"[{run.exp_id} done: {len(run.outcomes)} cell(s), "
                    f"{run.cell_seconds:.1f}s cell time]\n"
                )
            total_cells = sum(len(run.outcomes) for run in runs)
            print(
                f"[{total_cells} cells on {args.jobs or 'auto'} jobs "
                f"in {elapsed:.1f}s wall]"
            )
        else:
            # One experiment at a time, each table printed as it is done; a
            # cell an earlier experiment ran is not run again.
            runs = iter_runs(exp_ids, fast=args.fast)
            for exp_id in exp_ids:
                step = f"experiment {exp_id}"
                started = time.time()
                run = next(runs)
                elapsed = time.time() - started
                _emit(exp_id, run.result, sink, args.csv_dir)
                print(f"[{exp_id} done in {elapsed:.1f}s]\n")
    except WorkerDiedError as exc:
        # A cell that raised keeps its traceback (a bug); a worker that
        # vanished left none to show.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"interrupted: {step}", file=sys.stderr)
        return 2
    finally:
        if sink:
            sink.close()
    return 0


def _emit(exp_id: str, result, sink, csv_dir: Optional[str]) -> None:
    """Print one rendered table and mirror it to the optional sinks."""
    text = result.render()
    print(text)
    if sink:
        sink.write(text + "\n\n")
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        with open(os.path.join(csv_dir, f"{exp_id}.csv"), "w") as csv_file:
            csv_file.write(result.to_csv())


def _run_fuzz_command(args) -> int:
    """``python -m repro fuzz --seed N --ops M [--fast] [--mutate X]``:
    one differential campaign; exit 0 iff every mechanism is clean."""
    from .verify import MUTATIONS, FuzzConfig, run_fuzz

    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(
            f"unknown mutation {args.mutate!r}; have {', '.join(MUTATIONS)}",
            file=sys.stderr,
        )
        return 2
    ops = 200 if args.ops is None else args.ops
    n_ops = min(ops, 120) if args.fast else ops
    config = FuzzConfig(
        seed=1 if args.seed is None else args.seed,
        n_ops=n_ops,
        mutate=args.mutate,
        shrink_budget=30 if args.fast else 60,
        use_snapshots=not args.no_snapshots,
    )
    started = time.time()
    report = run_fuzz(config)
    text = report.render()
    print(text)
    print(f"[fuzz done in {time.time() - started:.1f}s]")
    if args.output:
        with open(args.output, "a") as sink:
            sink.write(text + "\n\n")
    return 0 if report.ok else 1


def _run_mc_command(args) -> int:
    """``python -m repro mc --cores N --pages P --ops K [--mutate X]``:
    exhaustively explore every reduced interleaving at a small scope; exit
    0 iff the space is fully explored with zero findings."""
    from .experiments.runner import resolve_jobs
    from .verify import MUTATIONS
    from .verify.mc import McConfig, McScope, run_mc

    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(
            f"unknown mutation {args.mutate!r}; have {', '.join(MUTATIONS)}",
            file=sys.stderr,
        )
        return 2
    cores = 3 if args.cores is None else args.cores
    pages = 2 if args.pages is None else args.pages
    ops = 5 if args.ops is None else args.ops
    if not (1 <= cores <= 4 and 1 <= pages <= 3 and 0 <= ops <= 10):
        print(
            "mc is a small-scope exhaustive checker: --cores 1-4, --pages 1-3, "
            f"--ops 0-10 (got cores={cores} pages={pages} ops={ops})",
            file=sys.stderr,
        )
        return 2
    config = McConfig(
        scope=McScope(cores=cores, pages=pages, ops=ops, mutate=args.mutate),
        max_nodes=200_000 if args.budget is None else args.budget,
        differential=not args.no_diff,
        use_snapshots=not args.no_snapshots,
    )
    started = time.time()
    jobs = 1 if args.jobs is None else args.jobs
    try:
        result = run_mc(config, jobs=resolve_jobs(jobs) if jobs != 1 else 1)
    except KeyboardInterrupt:
        print("interrupted: mc", file=sys.stderr)
        return 2
    text = result.render()
    print(text)
    print(f"[mc done in {time.time() - started:.1f}s]")
    if args.output:
        with open(args.output, "a") as sink:
            sink.write(text + "\n\n")
    return 0 if result.verdict == "ok" else 1


def _run_ci_command(args) -> int:
    """``python -m repro ci``: the local gate, the tier-1 pytest suite (with
    the coverage floor wherever pytest-cov is installed). Returns pytest's
    exit status.

    Needs a source checkout (it locates ``tests/`` next to ``src/``)."""
    import importlib.util
    import subprocess

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    repo_root = os.path.dirname(src_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # pyproject's addopts already pass -q; a second -q would drop the
    # "N passed in T s" line. --durations lists the slowest tests in every
    # CI log: the input a tier-1 wall-time budget is set from.
    argv = [sys.executable, "-m", "pytest", "-x", "--durations=15"]
    if importlib.util.find_spec("pytest_cov") is not None:
        # Coverage gate rides along wherever the dev extras are installed;
        # environments without pytest-cov still run the plain suite.
        argv += [
            "--cov=repro",
            "--cov-report=term",
            f"--cov-fail-under={COVERAGE_FLOOR}",
        ]
    started = time.time()
    print("ci: tier-1 pytest ...", flush=True)
    try:
        code = subprocess.call(argv, cwd=repo_root, env=env)
    except KeyboardInterrupt:
        print("ci: interrupted during tier-1 pytest", file=sys.stderr)
        return 2
    status = "ok" if code == 0 else f"FAILED (exit {code})"
    print(f"ci: tier-1 pytest: {status} [{time.time() - started:.1f}s]", flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
