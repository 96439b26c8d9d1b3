"""Coherence-fuzzer experiments: differential smoke run + mutation audit.

``fuzz-smoke`` replays one randomized plan across every lazy mechanism and
diffs the end state against synchronous Linux; ``fuzz-mutation`` proves
the harness has teeth by injecting the known-bad LATR variants and
checking that the invariant monitor flags them.
"""

from __future__ import annotations

from ..verify import MUTATIONS, FuzzConfig, run_fuzz
from .runner import ExperimentResult, experiment


def _result_rows(report) -> list:
    rows = []
    for name, res in report.results.items():
        if res.violations:
            status = f"{len(res.violations)} violation(s)"
        elif res.errors:
            status = "error"
        elif name in report.mismatches:
            status = "state mismatch"
        else:
            status = "ok"
        rows.append(
            (
                name,
                status,
                res.ops_executed,
                res.checks_run,
                f"{res.sim_time_ns / 1e6:.1f}",
            )
        )
    return rows


@experiment("fuzz-smoke")
def fuzz_smoke(fast: bool = False) -> ExperimentResult:
    seeds = (1, 2) if fast else (1, 2, 3, 4, 5)
    n_ops = 40 if fast else 120
    rows = []
    failures = []
    for seed in seeds:
        report = run_fuzz(FuzzConfig(seed=seed, n_ops=n_ops, shrink=False))
        rows.extend((seed,) + row for row in _result_rows(report))
        failures.extend(f"seed {seed}: {m}" for m in report.failures)
    return ExperimentResult(
        exp_id="fuzz-smoke",
        title="differential coherence fuzz (randomized schedules)",
        headers=("seed", "mechanism", "status", "ops", "checks", "sim ms"),
        rows=rows,
        paper_expectation=(
            "every mechanism reaches the same end state as synchronous Linux "
            "with zero invariant violations (sections 3-4 safety argument)"
        ),
        notes="FAILURES: " + "; ".join(failures) if failures else "all clean",
    )


@experiment("fuzz-mutation")
def fuzz_mutation(fast: bool = False) -> ExperimentResult:
    n_ops = 60 if fast else 120
    rows = []
    missed = []
    for mutation in MUTATIONS:
        report = run_fuzz(
            FuzzConfig(seed=1, n_ops=n_ops, mutate=mutation, shrink=not fast)
        )
        latr = report.results["latr"]
        # Safety mutations show up as invariant violations; liveness
        # mutations as stall or drain errors; equivalence bugs as end-state
        # mismatches against the synchronous baseline.
        caught = bool(latr.violations or latr.errors or "latr" in report.mismatches)
        if not caught:
            missed.append(mutation)
        if latr.violations:
            finding = str(latr.violations[0])
        elif latr.errors:
            finding = latr.errors[0]
        elif "latr" in report.mismatches:
            finding = report.mismatches["latr"][0]
        else:
            finding = ""
        rows.append(
            (
                mutation,
                "caught" if caught else "MISSED",
                len(latr.violations),
                len(report.shrunk_plan.ops) if report.shrunk_plan else "-",
                finding,
            )
        )
    return ExperimentResult(
        exp_id="fuzz-mutation",
        title="mutation audit: injected bugs must be caught",
        headers=("mutation", "verdict", "violations", "min repro ops", "first finding"),
        rows=rows,
        paper_expectation=(
            "every broken variant (eager reclaim without the bitmask guard; "
            "sweep that skips the TLB invalidation; stale sweep cache; "
            "broken replica; skipped EPT shootdown) is flagged by the "
            "invariant monitor, the progress guards, or the differential"
        ),
        notes="MISSED: " + ", ".join(missed) if missed else "all mutations detected",
    )
