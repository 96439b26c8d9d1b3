"""The run-cell model and the sharded multi-process experiment backend."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments import (
    CellExecutionError,
    ExperimentResult,
    RunCell,
    available_experiments,
    execute_experiment,
    experiment_cells,
    run_experiment,
    run_many,
)
from repro.experiments import runner
from repro.experiments.runner import ExperimentSpec, execute_cell, run_cells

import helpers


class TestRunCellModel:
    def test_every_experiment_enumerates_picklable_cells(self):
        """Every registered experiment's fast-mode cells must cross a
        process boundary: picklable, resolvable, uniquely identified."""
        for exp_id in available_experiments():
            cells = experiment_cells(exp_id, fast=True)
            assert cells, exp_id
            assert len({cell.cell_id for cell in cells}) == len(cells), exp_id
            for cell in cells:
                assert cell.exp_id == exp_id
                assert cell.fast is True
                restored = pickle.loads(pickle.dumps(cell))
                assert restored == cell
                assert callable(restored.resolve())

    def test_sequential_experiments_fall_back_to_a_single_cell(self):
        for exp_id in ("fig2", "fig3", "fuzz-smoke", "fuzz-mutation", "model-check", "abl-sweep"):
            cells = experiment_cells(exp_id, fast=True)
            assert len(cells) == 1, exp_id

    def test_sweeps_decompose_into_many_cells(self):
        assert len(experiment_cells("fig6", fast=True)) == 8  # 4 core counts x 2 mechs
        assert len(experiment_cells("fig9", fast=True)) == 9  # 3 core counts x 3 mechs
        assert len(experiment_cells("mech-compare", fast=True)) == 6

    def test_bad_entry_point_spelling_rejected(self):
        cell = RunCell(exp_id="x", cell_id="c", fn="no_colon_here")
        with pytest.raises(ValueError):
            cell.run()


class TestInlineExecution:
    def test_jobs1_runs_in_this_process(self):
        helpers.MARKER_CALLS.clear()
        cell = RunCell(exp_id="x", cell_id="c", fn="helpers:marker_cell", params={"tag": "t1"})
        outcomes = run_cells([cell], jobs=1)
        assert helpers.MARKER_CALLS == ["t1"]
        assert outcomes[0].value == "t1"
        assert outcomes[0].wall_s >= 0.0

    def test_outcome_counts_simulator_events(self):
        cell = experiment_cells("fig6", fast=True)[0]
        outcome = execute_cell(cell)
        assert outcome.events > 0
        assert outcome.cell is cell


class TestSharedCells:
    """``run_many`` runs a cell that several experiments ask for once."""

    @staticmethod
    def _register(monkeypatch, exp_id, seen):
        def cells(fast):
            return [
                RunCell(exp_id=exp_id, cell_id="shared", fn="helpers:list_cell",
                        params={"tag": "s"}, fast=fast),
                RunCell(exp_id=exp_id, cell_id="own", fn="helpers:list_cell",
                        params={"tag": exp_id}, fast=fast),
            ]

        def assemble(values, fast):
            seen[exp_id] = [list(value) for value in values]
            values[0].append(f"mutated by {exp_id}")
            return ExperimentResult(exp_id, exp_id, ("v",), [(v[0],) for v in values])

        monkeypatch.setitem(runner._REGISTRY, exp_id, ExperimentSpec(exp_id, cells, assemble))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runs_once_and_each_experiment_gets_its_own_value(self, monkeypatch, jobs):
        helpers.MARKER_CALLS.clear()
        seen = {}
        for exp_id in ("xa", "xb"):
            self._register(monkeypatch, exp_id, seen)
        runs = run_many(["xa", "xb"], fast=True, jobs=jobs)
        if jobs == 1:
            assert sorted(helpers.MARKER_CALLS) == ["s", "xa", "xb"]
        # xa's assemble mutated its value before xb's ran.
        assert seen == {"xa": [["s"], ["xa"]], "xb": [["s"], ["xb"]]}
        (first, _), (second, _) = runs[0].outcomes, runs[1].outcomes
        assert (first.cell.exp_id, second.cell.exp_id) == ("xa", "xb")
        # The shared cell's time and events are billed to the first asker.
        assert (second.wall_s, second.events) == (0.0, 0)

    def test_fast_cells_of_all_experiments_are_127_distinct(self):
        # fig1's six Apache cells are fig9 cells; tab4 and tab5 repeat the
        # 12-core Apache cells, fig12 canneal and tab4 dedup (both fig10).
        every = [
            cell for exp_id in available_experiments()
            for cell in experiment_cells(exp_id, fast=True)
        ]
        assert (len(every), len({runner._cell_key(cell) for cell in every})) == (141, 127)


class TestShardedExecution:
    CHEAP_IDS = ["fig6", "memoverhead", "abl-flushthresh"]

    def test_serial_and_parallel_tables_byte_identical(self):
        """The acceptance gate: --jobs 4 renders byte-identical tables to
        --jobs 1 across (at least) three experiment ids."""
        serial = run_many(self.CHEAP_IDS, fast=True, jobs=1)
        parallel = run_many(self.CHEAP_IDS, fast=True, jobs=4)
        for s_run, p_run in zip(serial, parallel):
            assert s_run.result.render() == p_run.result.render(), s_run.exp_id
            assert s_run.result.to_csv() == p_run.result.to_csv(), s_run.exp_id

    def test_parallel_keeps_workers_out_of_this_process(self):
        helpers.MARKER_CALLS.clear()
        cells = [
            RunCell(exp_id="x", cell_id=f"c{i}", fn="helpers:marker_cell", params={"tag": f"t{i}"})
            for i in range(3)
        ]
        outcomes = run_cells(cells, jobs=2)
        # Values come back in cell order; the parent process never ran them.
        assert [o.value for o in outcomes] == ["t0", "t1", "t2"]
        assert helpers.MARKER_CALLS == []

    def test_worker_failure_surfaces_the_cell(self):
        cells = [
            RunCell(exp_id="x", cell_id="ok", fn="helpers:marker_cell", params={"tag": "a"}),
            RunCell(exp_id="x", cell_id="bad", fn="helpers:crash_cell", params={"message": "kapow"}),
        ]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=2)
        assert "x/bad" in str(excinfo.value)
        assert "kapow" in str(excinfo.value)
        assert excinfo.value.cell.cell_id == "bad"

    def test_inline_failure_also_wrapped_in_cell_order(self):
        cell = RunCell(exp_id="x", cell_id="bad", fn="helpers:crash_cell")
        with pytest.raises(ValueError):
            run_cells([cell], jobs=1)

    def test_execute_experiment_reports_per_cell_timing(self):
        run = execute_experiment("fig6", fast=True, jobs=2)
        timings = run.cell_timings()
        assert len(timings) == 8
        assert all(wall >= 0.0 for _cell_id, wall in timings)
        assert run.cell_seconds == pytest.approx(sum(w for _c, w in timings))
        assert run.events > 0

    def test_single_id_parallel_equals_serial(self):
        serial = run_experiment("fig6", fast=True, jobs=1)
        parallel = run_experiment("fig6", fast=True, jobs=2)
        assert serial.render() == parallel.render()


class TestResultRoundTrip:
    def test_to_json_from_json_renders_identically(self):
        result = ExperimentResult(
            exp_id="x",
            title="demo",
            headers=("a", "b", "c"),
            rows=[(1, 2.5, "s"), ("ragged",), (3, 4, 5, 6)],
            paper_expectation="expected",
            notes="note",
        )
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.render() == result.render()
        assert restored.to_csv() == result.to_csv()
        assert restored.exp_id == "x"

    def test_round_trip_preserves_numeric_types(self):
        result = ExperimentResult("x", "t", ("i", "f"), [(7, 7.0)])
        restored = ExperimentResult.from_json(result.to_json())
        (row,) = restored.rows
        assert isinstance(row[0], int) and isinstance(row[1], float)

    def test_real_experiment_round_trips(self):
        result = run_experiment("tab3", fast=True)
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.render() == result.render()


class TestCliJobs:
    def test_cli_jobs_flag_byte_identical_tables(self, tmp_path, capsys):
        from repro.cli import main

        serial_out = tmp_path / "serial.txt"
        parallel_out = tmp_path / "parallel.txt"
        assert main(["fig6", "--fast", "-o", str(serial_out)]) == 0
        assert main(["fig6", "--fast", "--jobs", "2", "-o", str(parallel_out)]) == 0
        assert serial_out.read_text() == parallel_out.read_text()

    def test_cli_all_parallel_unknown_id_still_errors(self, capsys):
        from repro.cli import main

        assert main(["nope", "--jobs", "2"]) == 2
