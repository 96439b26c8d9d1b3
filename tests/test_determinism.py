"""Determinism regression: every experiment's table is byte-identical
across repeated ``--fast`` runs and across the sharded backend.

One serial pass establishes the reference renders; a second full pass
through ``run_many(..., jobs=2)`` must reproduce every table exactly.
That single comparison covers both claims at once -- rerun stability
(two independent runs agree) and backend independence (``--jobs 2``
equals ``--jobs 1``) -- without paying for a third pass of the suite.

Golden fingerprints pin modelled output across commits: the engine's
executed ``(time, seq)`` order on the engine-stress churn, the end state
of three fuzz plans, the model checker's canonical state-hash sets (a
healthy exhaustive run and three mutation audits, with their search
counts), the 960-core fleet smoke's stats summaries (pinned in
``repro.workloads.stress.FLEET_SMOKE_FINGERPRINTS``), and every
experiment's ``--fast`` rendered table. Each value is the same under
``PYTHONHASHSEED`` 0 and 1. A change that moves any of them must update
the value and name the cause in CHANGES.md.
"""

import hashlib

import pytest

from repro.experiments import available_experiments, run_experiment
from repro.experiments.runner import run_many
from repro.verify.fuzzer import run_one
from repro.verify.mc import McConfig, McScope, run_mc
from repro.verify.plan import generate_plan
from repro.workloads.stress import (
    FLEET_SMOKE_FINGERPRINTS,
    FLEET_SMOKE_SCOPE,
    fleet_fingerprint,
    run_engine_stress,
    run_fleet_stress,
)


def _fingerprint(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "n_events, expected",
    [(20_000, "476c9df25da07de5"), (120_000, "bcca8efb826df813")],
)
def test_engine_stress_order_fingerprint(n_events, expected):
    _sim, order = run_engine_stress(n_events, record_order=True)
    assert len(order) == n_events
    assert _fingerprint(order) == expected


@pytest.mark.parametrize(
    "seed, expected",
    [(3, "b9ffca0f7f8e59b9"), (11, "41cb5b247d6e53f9"), (27, "848a8b36143e8732")],
)
def test_fuzz_plan_fingerprint(seed, expected):
    r = run_one("latr", generate_plan(seed, 40, n_cores=4, n_procs=2))
    assert r.clean, (r.violations, r.errors)
    assert _fingerprint(
        (r.sim_time_ns, sorted(r.stats_summary.items()), r.snapshot)
    ) == expected


@pytest.mark.parametrize("seed", sorted(FLEET_SMOKE_FINGERPRINTS))
def test_fleet_smoke_fingerprint(seed):
    summary = run_fleet_stress(scope=FLEET_SMOKE_SCOPE, seed=seed)
    # A run that posted no LATR state or never swept pins nothing useful.
    assert summary.get("count.latr.sweeps") and summary.get("count.latr.states_posted")
    assert fleet_fingerprint(summary) == FLEET_SMOKE_FINGERPRINTS[seed]


def _state_hashes(report):
    hashes = set()
    for cell in report.cells:
        hashes |= cell.state_hashes
    return hashes


@pytest.mark.parametrize("differential", [True, False], ids=["diff", "no-diff"])
def test_mc_healthy_state_set_fingerprint(differential):
    report = run_mc(
        McConfig(
            scope=McScope(cores=3, pages=2, ops=5),
            collect_hashes=True,
            stop_on_first=False,
            differential=differential,
        )
    )
    hashes = _state_hashes(report)
    assert (
        report.verdict,
        report.nodes,
        sum(cell.complete_leaves for cell in report.cells),
        report.hash_pruned,
        report.sleep_skipped,
        len(hashes),
    ) == ("ok", 2397, 11, 1375, 456, 472)
    assert _fingerprint(sorted(hashes)) == "2e98d611ccaedb28"


@pytest.mark.parametrize(
    "mutation, states, expected",
    [
        ("skip_sweep_invalidate", 6, "63253514b0f6c3d6"),
        ("active_cache_stale", 7, "06b9d894cec4df35"),
    ],
)
def test_mc_mutation_state_set_fingerprint(mutation, states, expected):
    # Mutated runs hash derived state too (include_derived).
    report = run_mc(
        McConfig(
            scope=McScope(cores=2, pages=2, ops=5, mutate=mutation),
            collect_hashes=True,
            stop_on_first=True,
        )
    )
    hashes = _state_hashes(report)
    ce = report.counterexample
    assert (report.verdict, report.nodes, len(ce.trace), len(ce.shrunk)) == (
        "violation", 7, 7, 1,
    )
    assert len(hashes) == states
    assert _fingerprint(sorted(hashes)) == expected


@pytest.fixture(scope="module")
def serial_tables():
    ids = available_experiments()
    return ids, {exp_id: run_experiment(exp_id, fast=True).render() for exp_id in ids}


#: sha256(render().encode()).hexdigest()[:16] of every experiment's
#: ``--fast`` table.
FAST_TABLE_FINGERPRINTS = {
    "abl-flushthresh": "2c7ebeaff674fda9",
    "abl-pcid": "258256cb7d3adc3c",
    "abl-queue": "e79176ea81795872",
    "abl-reclaim": "6e1d285e10b2918f",
    "abl-sweep": "bc0f588df3df6821",
    "fig1": "2561fa56ade8bdb6",
    "fig10": "62eb23d75b44dd21",
    "fig11": "6c9b377e8962c4ed",
    "fig12": "a7916114268d0403",
    "fig2": "7e89a076d6697194",
    "fig3": "b287cda7bd09a4a9",
    "fig6": "9c40c7e7f6cb2beb",
    "fig7": "77d5186b88f09955",
    "fig8": "5cbf13f4089f20e5",
    "fig9": "6214c69c7aafb1ee",
    "fuzz-mutation": "a5ad873521c2ee98",
    "fuzz-smoke": "9ee1400ffb31b13e",
    "mech-compare": "eea2f3e9d429c6f3",
    "memoverhead": "9cc1d98ea3f40ebb",
    "model-check": "4720a0134bfd38ed",
    "model-exhaust": "42a4d9a2c7495224",
    "numapte": "2d03d3c24a51a44c",
    "slo": "55988c1677b58028",
    "tab1": "fbb5839f24ef33ff",
    "tab2": "42899ec42799030a",
    "tab3": "2f78e5ef7b170673",
    "tab4": "33723562aa869edb",
    "tab5": "662a62ed82cffbb7",
    "tail": "1a685afe8e4783a3",
    "thp": "4745e62f5de034e1",
    "virt": "a2fddd3208f227f0",
}


def test_every_experiment_fast_table_fingerprint(serial_tables):
    ids, tables = serial_tables
    got = {
        exp_id: hashlib.sha256(tables[exp_id].encode()).hexdigest()[:16]
        for exp_id in ids
    }
    moved = sorted(
        exp_id for exp_id in got.keys() | FAST_TABLE_FINGERPRINTS.keys()
        if got.get(exp_id) != FAST_TABLE_FINGERPRINTS.get(exp_id)
    )
    assert not moved, f"--fast tables moved: {moved}"


def test_virt_experiment_is_registered(serial_tables):
    # The two-level-translation cell experiment must ride the determinism
    # sweep like every other registered experiment.
    ids, _tables = serial_tables
    assert "virt" in ids


def test_every_experiment_fast_rerun_and_jobs2_byte_identical(serial_tables):
    ids, tables = serial_tables
    runs = run_many(ids, fast=True, jobs=2)
    assert [run.exp_id for run in runs] == ids
    mismatched = [
        run.exp_id for run in runs if run.result.render() != tables[run.exp_id]
    ]
    assert not mismatched, f"non-deterministic tables: {mismatched}"


def test_render_carries_no_wall_clock(serial_tables):
    # Byte-identity is only meaningful if renders exclude timing; the CLI
    # prints wall clock on separate bracketed lines instead.
    _ids, tables = serial_tables
    for exp_id, text in tables.items():
        assert "done in" not in text, exp_id
