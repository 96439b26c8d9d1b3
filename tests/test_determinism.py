"""Determinism regression: every experiment's table is byte-identical
across repeated ``--fast`` runs and across the sharded backend.

One serial pass establishes the reference renders; a second full pass
through ``run_many(..., jobs=2)`` must reproduce every table exactly.
That single comparison covers both claims at once -- rerun stability
(two independent runs agree) and backend independence (``--jobs 2``
equals ``--jobs 1``) -- without paying for a third pass of the suite.

Golden fingerprints pin modelled output across commits: the engine's
executed ``(time, seq)`` order on the engine-stress churn, and the end
state of three fuzz plans. A change that moves one of them must update
the value here and say which number moved and why.
"""

import hashlib

import pytest

from repro.bench import run_engine_stress
from repro.experiments import available_experiments, run_experiment
from repro.experiments.runner import run_many
from repro.verify.fuzzer import run_one
from repro.verify.plan import generate_plan


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


@pytest.fixture(scope="module")
def serial_tables():
    ids = available_experiments()
    return ids, {exp_id: run_experiment(exp_id, fast=True).render() for exp_id in ids}


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
