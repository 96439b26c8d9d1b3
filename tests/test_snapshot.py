"""Replay-vs-restore differential: snapshots must be invisible.

The snapshot/fork machinery (``repro.snapshot``) is a pure optimization --
warm-boot pools for the fuzzer and O(1) backtracking for the model
checker. ``use_snapshots=False`` is the escape hatch that turns all of it
off, and these tests are the gate that keeps the two paths byte-identical:
same result tables, same end-state snapshots, same canonical state sets.
"""

import pytest

from repro.verify import FuzzConfig, run_fuzz
from repro.verify.mc import McConfig, McScope, run_mc


def _render_without_warm_boot_accounting(report) -> str:
    # The "warm boots: N cold, M restored" line is the one legitimate
    # difference between the legs: it reports how the result was produced,
    # not what it is.
    return "\n".join(
        line
        for line in report.render().splitlines()
        if not line.startswith("warm boots:")
    )


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_fuzz_differential_snapshots_vs_cold_boot(seed):
    """One fuzz campaign per leg: warm-boot restores on, then fully off.

    Everything observable -- per-mechanism end-state snapshots, stats
    summaries, violations, differential mismatches, the rendered table --
    must be byte-identical."""

    def leg(use_snapshots: bool):
        return run_fuzz(
            FuzzConfig(
                seed=seed,
                n_ops=40,
                shrink=False,
                use_snapshots=use_snapshots,
            )
        )

    warm = leg(True)
    cold = leg(False)
    assert warm.ok and cold.ok
    # The cold leg must genuinely not touch the pool.
    assert cold.warm_boots == 0 and cold.warm_restores == 0
    assert warm.warm_boots > 0
    assert _render_without_warm_boot_accounting(
        warm
    ) == _render_without_warm_boot_accounting(cold)
    assert set(warm.results) == set(cold.results)
    for name, warm_res in warm.results.items():
        cold_res = cold.results[name]
        assert warm_res.snapshot == cold_res.snapshot, name
        assert warm_res.stats_summary == cold_res.stats_summary, name
        assert [str(v) for v in warm_res.violations] == [
            str(v) for v in cold_res.violations
        ], name
        assert warm_res.errors == cold_res.errors, name
        assert warm_res.ops_executed == cold_res.ops_executed, name
        assert warm_res.sim_time_ns == cold_res.sim_time_ns, name
    assert warm.mismatches == cold.mismatches


def _explore(use_snapshots: bool):
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
    restores = 0
    replays = 0
    for cell in report.cells:
        hashes |= set(cell.state_hashes)
        nodes += cell.nodes
        restores += cell.restores
        replays += cell.replays
    return report.verdict, nodes, hashes, restores, replays


def test_mc_snapshot_explorer_reduction_soundness():
    """The snapshot explorer must visit exactly the canonical state set
    the replay explorer visits at 3c/2p/5ops -- DPOR pruning decisions
    (visited-set, sleep sets, stutter detection) all key off state hashes,
    so a single divergent hash would silently change the reduction."""
    snap_verdict, snap_nodes, snap_hashes, restores, replays = _explore(True)
    replay_verdict, replay_nodes, replay_hashes, _, cold_replays = _explore(False)
    assert snap_verdict == "ok" and replay_verdict == "ok"
    assert snap_nodes == replay_nodes
    assert snap_hashes == replay_hashes
    # The legs must actually be different mechanisms: the snapshot leg
    # backtracks via restore() only, the replay leg via prefix replay only.
    # The restore count is exact: one replay in its place moves it.
    assert (restores, replays) == (1_405, 0)
    assert cold_replays > 0
