"""CLI error paths and plumbing edge cases for ``python -m repro``."""

import subprocess

import pytest

from repro import cli
from repro.cli import main
from repro.experiments import CellExecutionError, RunCell
from repro.experiments.runner import run_cells


def _tables(text):
    """Rendered output minus the bracketed timing lines."""
    return [line for line in text.splitlines() if not line.startswith("[")]


class TestErrorPaths:
    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["definitely-not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fuzz_unknown_mutation_exits_2(self, capsys):
        assert main(["fuzz", "--mutate", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown mutation" in err
        # The error names the valid mutations so the flag is discoverable.
        assert "reclaim_delay_zero" in err

    def test_mc_unknown_mutation_exits_2(self, capsys):
        assert main(["mc", "--mutate", "bogus"]) == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_unknown_experiment_creates_no_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert main(["definitely-not-an-experiment", "-o", str(target)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("unknown experiment 'definitely-not-an-experiment'")
        assert not target.exists()

    def test_key_error_inside_a_run_is_not_bad_input(self, monkeypatch, capsys):
        # A KeyError raised by a run is a bug with a traceback, not an
        # unknown experiment id (exit 2 with just the key).
        from repro.experiments import runner

        def broken(*args, **kwargs):
            raise KeyError("llc.state_lines")

        monkeypatch.setattr(runner, "execute_cell", broken)
        with pytest.raises(KeyError, match="llc.state_lines"):
            main(["tab1", "--fast"])
        assert capsys.readouterr().err == ""

    def test_mc_scope_bounds_exit_2(self, capsys):
        for argv in (
            ["mc", "--cores", "5"],
            ["mc", "--cores", "0"],
            ["mc", "--pages", "4"],
            ["mc", "--pages", "0"],
            ["mc", "--ops", "11"],
        ):
            assert main(argv) == 2, argv
            assert "small-scope" in capsys.readouterr().err


class TestUnreadFlags:
    """A flag given to a command that does not read it exits 2 with one
    line naming the commands that do -- never silently ignored."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["tab1", "--cores", "4", "--budget", "5"],
                "error: --cores applies only to: mc",
            ),
            (
                ["mc", "--cores", "2", "--pages", "1", "--ops", "2", "--seed", "9"],
                "error: --seed applies only to: fuzz",
            ),
            (["fuzz", "--jobs", "1"], "error: --jobs applies only to: <experiment>, mc"),
            (["fuzz", "--legacy-latency-stats"],
             "error: --legacy-latency-stats applies only to: <experiment>"),
            (["mc", "--fast"], "error: --fast applies only to: <experiment>, fuzz"),
            (["list", "--no-snapshots"],
             "error: --no-snapshots applies only to: <experiment>, fuzz, mc"),
            (["list", "--seed", "0"], "error: --seed applies only to: fuzz"),
            (["ci", "--fast"], "error: --fast applies only to: <experiment>, fuzz"),
        ],
    )
    def test_exits_2_with_one_line(self, argv, line, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line]
        assert captured.out == ""

    def test_retired_bench_command_is_an_unknown_experiment(self, capsys):
        assert main(["bench"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("unknown experiment 'bench'; available: ")
        assert captured.out == ""

    def test_retired_bench_option_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["ci", "--quick"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --quick" in capsys.readouterr().err

    def test_rejected_csv_dir_is_not_created(self, tmp_path, capsys):
        target = tmp_path / "X"
        argv = ["mc", "--cores", "2", "--pages", "1", "--ops", "2", "--csv-dir", str(target)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --csv-dir applies only to: <experiment>\n"
        assert not target.exists()

    def test_readers_still_accept_their_flags(self, capsys):
        assert main(["mc", "--cores", "2", "--pages", "1", "--ops", "2", "--budget", "500",
                     "--no-diff", "--jobs", "1"]) == 0
        assert main(["fuzz", "--seed", "3", "--ops", "10", "--fast"]) == 0
        assert "verdict: OK" in capsys.readouterr().out


class TestJobsPlumbing:
    def test_jobs_on_single_cell_experiment_matches_serial(self, capsys):
        # tab1 decomposes into exactly one cell; --jobs must still work
        # (the cell goes through the pool) and render identically.
        assert main(["tab1", "--fast"]) == 0
        serial = capsys.readouterr().out
        assert main(["tab1", "--fast", "--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert _tables(serial) == _tables(sharded)

    def test_list_exits_0_and_names_model_exhaust(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "model-exhaust" in out


class TestCiCommand:
    def test_runs_tier1_once_at_the_configured_verbosity(self, monkeypatch, capsys):
        # pyproject's addopts already pass -q; a second one runs pytest at
        # -qq, which prints no "N passed in T s" line. Tier-1 is the only
        # step, so pytest is the only subprocess.
        calls = []

        def fake_call(argv, **kwargs):
            calls.append(argv)
            return 0

        monkeypatch.setattr(subprocess, "call", fake_call)
        assert main(["ci"]) == 0
        (argv,) = calls
        assert argv[1:3] == ["-m", "pytest"]
        assert "-q" not in argv
        assert capsys.readouterr().out.splitlines()[-1].startswith("ci: tier-1 pytest: ok")

    def test_interrupt_exits_2_with_one_line(self, monkeypatch, capsys):
        def interrupted(argv, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess, "call", interrupted)
        assert main(["ci"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "ci: interrupted during tier-1 pytest"
        ]


def _cells(fn, **params):
    return [
        RunCell(exp_id="x", cell_id="ok", fn="helpers:marker_cell", params={"tag": "a"}),
        RunCell(exp_id="x", cell_id="bad", fn=fn, params=params),
    ]


class TestAbruptEnds:
    """A sharded run that loses a worker, or is interrupted, ends in one
    line on stderr and exit 2; a cell that raises keeps its traceback."""

    def test_dead_worker_exits_2_naming_the_cell(self, monkeypatch, capsys):
        cells = _cells("helpers:exit_cell")
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: run_cells(cells, jobs=2))
        assert main(["tab1", "--jobs", "2"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cell x/")
        assert "worker process died abruptly" in line

    def test_raising_cell_keeps_its_traceback(self, monkeypatch):
        cells = _cells("helpers:crash_cell", message="kapow")
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: run_cells(cells, jobs=2))
        with pytest.raises(CellExecutionError, match="kapow"):
            main(["tab1", "--jobs", "2"])

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["tab1", "--jobs", "2"], "interrupted: tab1 on 2 jobs"),
            (["tab1"], "interrupted: experiment tab1"),
        ],
    )
    def test_interrupted_run_exits_2_with_one_line(self, monkeypatch, capsys, argv, line):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        def interrupted_runs(*args, **kwargs):
            # Lazy like iter_runs: the interrupt comes with the first run.
            raise KeyboardInterrupt
            yield

        monkeypatch.setattr(cli, "run_many", interrupted)
        monkeypatch.setattr(cli, "iter_runs", interrupted_runs)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [line]
