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

from .experiments import available_experiments, run_experiment, run_many

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
    "--legacy-latency-stats": (_EXPERIMENT, "bench"),
    "--no-snapshots": (_EXPERIMENT, "fuzz", "mc"),
    "--quick": ("bench",),
    "--check-regression": ("bench",),
    "--threshold": ("bench",),
    "--bench-dir": ("bench",),
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
        "'bench', or 'ci'; 'run <id>' is accepted as an alias for '<id>'",
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
        "--quick",
        action="store_true",
        help="bench: reduced suite (fig6 + a short sweep-stress) for CI smoke",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="bench: exit non-zero if wall-clock regresses beyond --threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="bench: regression threshold in percent (default 25)",
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        help="bench: directory for BENCH_*.json files (default benchmarks/results)",
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
    if command not in ("list", "fuzz", "mc", "bench", "ci"):
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

    if args.experiment == "bench":
        return _run_bench_command(args)

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
    try:
        if args.jobs is not None and args.jobs != 1:
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
            for exp_id in exp_ids:
                started = time.time()
                result = run_experiment(exp_id, fast=args.fast)
                elapsed = time.time() - started
                _emit(exp_id, result, sink, args.csv_dir)
                print(f"[{exp_id} done in {elapsed:.1f}s]\n")
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


def _run_bench_command(args) -> int:
    """``python -m repro bench [--quick] [--check-regression]``: time the
    fixed wall-clock suite, write BENCH_<timestamp>.json, compare to the
    previous one."""
    from .bench import DEFAULT_BENCH_DIR, DEFAULT_THRESHOLD_PCT, run_bench

    started = time.time()
    print(f"wall-clock bench ({'quick' if args.quick else 'full'} suite):")
    _report, code = run_bench(
        bench_dir=args.bench_dir or DEFAULT_BENCH_DIR,
        quick=args.quick,
        check_regression=args.check_regression,
        threshold_pct=args.threshold if args.threshold is not None else DEFAULT_THRESHOLD_PCT,
    )
    print(f"[bench done in {time.time() - started:.1f}s]")
    return code


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
    result = run_mc(config, jobs=resolve_jobs(jobs) if jobs != 1 else 1)
    text = result.render()
    print(text)
    print(f"[mc done in {time.time() - started:.1f}s]")
    if args.output:
        with open(args.output, "a") as sink:
            sink.write(text + "\n\n")
    return 0 if result.verdict == "ok" else 1


def _snapshot_differential() -> int:
    """Explore one small scope twice -- snapshot backtracking vs honest
    prefix replay -- and require identical verdict, node count and
    canonical state set. This is the CI teeth behind the ``--no-snapshots``
    escape hatch: the two paths must stay byte-identical."""
    from .verify.mc import McConfig, McScope, run_mc

    def explore(use_snapshots: bool):
        report = run_mc(
            McConfig(
                scope=McScope(cores=3, pages=2, ops=5),
                differential=False,
                collect_hashes=True,
                stop_on_first=False,
                use_snapshots=use_snapshots,
            )
        )
        hashes = set()
        nodes = 0
        for cell in report.cells:
            hashes |= set(cell.state_hashes)
            nodes += cell.nodes
        return report.verdict, nodes, hashes

    snap = explore(True)
    replay = explore(False)
    if snap != replay:
        print(
            f"snapshot/replay divergence: snapshot=(verdict={snap[0]}, "
            f"nodes={snap[1]}, states={len(snap[2])}) vs replay="
            f"(verdict={replay[0]}, nodes={replay[1]}, states={len(replay[2])})",
            file=sys.stderr,
        )
        return 1
    print(
        f"snapshot and replay exploration identical: verdict={snap[0]}, "
        f"{snap[1]} nodes, {len(snap[2])} states"
    )
    return 0


def _numapte_smoke() -> int:
    """numaPTE gate: replication eliminates remote hardware walks and
    actually fans out updates; the ``use_pt_replication`` escape hatch
    degenerates to the Linux baseline byte-identically; and the
    broken-replica mutation is caught by both the continuous invariant
    monitor (fuzz leg) and the model checker's mutation audit."""
    from .verify import generate_plan, mutation_spec, run_one
    from .verify.mc import McConfig, McScope, run_mc

    plan = generate_plan(1, 60)
    on = run_one("numapte", plan)
    if not on.clean:
        print("numapte-smoke: replicated run had findings", file=sys.stderr)
        return 1
    summary = on.stats_summary
    if summary.get("count.pt.walk.remote", 0):
        print("numapte-smoke: remote hardware walks survived replication", file=sys.stderr)
        return 1
    if not summary.get("count.pt.replica.updates", 0):
        print("numapte-smoke: no replica fan-out happened", file=sys.stderr)
        return 1
    off = run_one("numapte", plan, use_pt_replication=False)
    base = run_one("linux", plan)
    if off.stats_summary != base.stats_summary or off.snapshot != base.snapshot:
        print(
            "numapte-smoke: use_pt_replication=False is not byte-identical "
            "to the single-table baseline",
            file=sys.stderr,
        )
        return 1
    mutation = mutation_spec("broken_replica")
    bad = run_one("latr", plan, mutate=mutation.name)
    if not any(v.check == "replica_coherence" for v in bad.violations):
        print("numapte-smoke: monitor missed the broken_replica mutation", file=sys.stderr)
        return 1
    audit = run_mc(
        McConfig(scope=McScope(cores=2, pages=2, ops=5, mutate=mutation.name))
    )
    if audit.verdict != "violation":
        print(
            f"numapte-smoke: mc audit missed broken_replica "
            f"(verdict {audit.verdict})",
            file=sys.stderr,
        )
        return 1
    print(
        f"numapte ok: {int(summary['count.pt.walk.local'])} local walks, "
        f"0 remote, {int(summary['count.pt.replica.updates'])} replica "
        f"updates; escape hatch byte-identical; broken_replica caught by "
        f"monitor and mc"
    )
    return 0


def _virt_smoke() -> int:
    """Two-level translation gate: a virtualized run actually pays 2D
    walks and host-level (EPT) invalidations and stays invariant-clean
    (HATRIC included); the ``use_virtualization`` escape hatch is
    byte-identical to the flat baseline; and the broken-EPT-shootdown
    mutation is caught by both the continuous invariant monitor (fuzz
    leg) and the model checker's mutation audit."""
    from .verify import generate_plan, mutation_spec, run_one
    from .verify.mc import McConfig, McScope, run_mc

    plan = generate_plan(1, 60)
    on = run_one("linux", plan, use_virtualization=True)
    if not on.clean:
        print("virt-smoke: virtualized run had findings", file=sys.stderr)
        return 1
    summary = on.stats_summary
    if not summary.get("count.virt.walk.2d", 0) or not summary.get(
        "count.virt.host_inval.entries", 0
    ):
        print(
            "virt-smoke: virtualized run paid no 2D walks or no host "
            "invalidations",
            file=sys.stderr,
        )
        return 1
    hat = run_one("hatric", plan, use_virtualization=True)
    if not hat.clean:
        print("virt-smoke: virtualized hatric run had findings", file=sys.stderr)
        return 1
    if not hat.stats_summary.get("count.virt.host_inval.entries", 0):
        print("virt-smoke: hatric snooped no host invalidations", file=sys.stderr)
        return 1
    off = run_one("linux", plan, use_virtualization=False)
    base = run_one("linux", plan)
    if off.stats_summary != base.stats_summary or off.snapshot != base.snapshot:
        print(
            "virt-smoke: use_virtualization=False is not byte-identical "
            "to the flat baseline",
            file=sys.stderr,
        )
        return 1
    if any(k.startswith("count.virt.") for k in off.stats_summary):
        print(
            "virt-smoke: flat run carries virt.* counters", file=sys.stderr
        )
        return 1
    mutation = mutation_spec("broken_ept_shootdown")
    bad = run_one("latr", plan, mutate=mutation.name)
    if not any(v.check == "ept_coherence" for v in bad.violations):
        print(
            "virt-smoke: monitor missed the broken_ept_shootdown mutation",
            file=sys.stderr,
        )
        return 1
    audit = run_mc(
        McConfig(scope=McScope(cores=2, pages=2, ops=5, mutate=mutation.name))
    )
    if audit.verdict != "violation":
        print(
            f"virt-smoke: mc audit missed broken_ept_shootdown "
            f"(verdict {audit.verdict})",
            file=sys.stderr,
        )
        return 1
    print(
        f"virt ok: {int(summary['count.virt.walk.2d'])} 2D walks, "
        f"{int(summary['count.virt.host_inval.entries'])} host invalidations, "
        f"hatric clean; escape hatch byte-identical; broken_ept_shootdown "
        f"caught by monitor and mc"
    )
    return 0


def _fleet_smoke() -> int:
    """Fleet gate: the 960-core spec boots and runs the stress churn at a
    short scope, on the default seed and the held-out one, and each run's
    stats summary matches its golden fingerprint
    (``bench.FLEET_SMOKE_FINGERPRINTS``). The fleet bench *floor* rides in
    the quick-bench step (fleet-stress-960c under ``--check-regression``);
    this step is the cheap correctness half."""
    from .bench import (
        FLEET_SMOKE_FINGERPRINTS,
        FLEET_SMOKE_SCOPE,
        fleet_fingerprint,
        run_fleet_stress,
    )

    for seed, expected in FLEET_SMOKE_FINGERPRINTS.items():
        summary = run_fleet_stress(scope=FLEET_SMOKE_SCOPE, seed=seed)
        if not summary.get("count.latr.sweeps") or not summary.get("count.latr.states_posted"):
            print(
                f"fleet-smoke: 960-core run (seed {seed}) posted no LATR states "
                "or never swept",
                file=sys.stderr,
            )
            return 1
        got = fleet_fingerprint(summary)
        if got != expected:
            print(
                f"fleet-smoke: stats summary fingerprint {got} (seed {seed}) "
                f"differs from the pinned {expected}",
                file=sys.stderr,
            )
            return 1
        print(
            f"fleet ok (seed {seed}): 960 cores, {int(summary['count.latr.sweeps'])} "
            f"sweeps, {int(summary['count.latr.states_posted'])} posts; stats "
            f"fingerprint {got} as pinned"
        )
    return 0


def _run_ci_command(args) -> int:
    """``python -m repro ci``: the full local gate -- tier-1 pytest, a
    small exhaustive mc scope, the snapshot-vs-replay differential, the
    numaPTE smoke (replication/escape-hatch/mutation-audit gate), the
    virt smoke (two-level translation: 2D-walk/host-invalidation
    accounting, escape-hatch byte-identity, broken-EPT-shootdown
    mutation audit), the
    fleet smoke (960-core boot + golden stats fingerprints), a
    parallel fast-mode smoke of every experiment, and the quick wall-clock
    bench (which gates the mc-snapshot speedup/hash equality and the
    fleet-stress events/s floor) with its regression
    check against the committed BENCH_*.json baseline (exit 2 if the
    baseline is missing). Exits non-zero on the first failure.

    Needs a source checkout (it locates ``tests/`` next to ``src/``)."""
    import subprocess

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    repo_root = os.path.dirname(src_dir)
    started = time.time()

    def step(label: str, runner) -> int:
        step_start = time.time()
        print(f"ci: {label} ...", flush=True)
        code = runner()
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"ci: {label}: {status} [{time.time() - step_start:.1f}s]", flush=True)
        return code

    def tier1() -> int:
        import importlib.util

        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # --durations lists the slowest tests in every CI log: the input a
        # tier-1 wall-time budget is set from.
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "--durations=15"]
        if importlib.util.find_spec("pytest_cov") is not None:
            # Coverage gate rides along wherever the dev extras are
            # installed; environments without pytest-cov still run the
            # plain suite.
            argv += [
                "--cov=repro",
                "--cov-report=term",
                f"--cov-fail-under={COVERAGE_FLOOR}",
            ]
        return subprocess.call(argv, cwd=repo_root, env=env)

    steps = [
        ("tier-1 pytest", tier1),
        (
            "repro mc --cores 2 --pages 2 --ops 4",
            lambda: main(["mc", "--cores", "2", "--pages", "2", "--ops", "4"]),
        ),
        ("snapshot differential (3c/2p/5ops)", _snapshot_differential),
        ("numapte-smoke", _numapte_smoke),
        ("virt-smoke", _virt_smoke),
        ("fleet-smoke", _fleet_smoke),
        ("repro all --fast --jobs 2", lambda: main(["all", "--fast", "--jobs", "2"])),
        (
            "repro bench --quick --check-regression",
            lambda: main(["bench", "--quick", "--check-regression"]),
        ),
    ]
    for label, runner in steps:
        code = step(label, runner)
        if code != 0:
            print(f"ci: FAILED at '{label}' [{time.time() - started:.1f}s total]")
            return code
    print(f"ci: all gates passed [{time.time() - started:.1f}s total]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
