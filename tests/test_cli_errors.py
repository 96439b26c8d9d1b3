"""CLI error paths and plumbing edge cases for ``python -m repro``."""

import pytest

from repro.cli import main


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

        monkeypatch.setattr(runner, "execute_experiment", broken)
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
                ["tab1", "--cores", "4", "--quick", "--budget", "5", "--threshold", "3"],
                "error: --cores applies only to: mc",
            ),
            (
                ["mc", "--cores", "2", "--pages", "1", "--ops", "2", "--quick",
                 "--seed", "9"],
                "error: --seed applies only to: fuzz",
            ),
            (["fuzz", "--jobs", "1"], "error: --jobs applies only to: <experiment>, mc"),
            (["tab1", "--threshold", "0"], "error: --threshold applies only to: bench"),
            (["mc", "--fast"], "error: --fast applies only to: <experiment>, fuzz"),
            (["bench", "--no-snapshots"],
             "error: --no-snapshots applies only to: <experiment>, fuzz, mc"),
            (["list", "--seed", "0"], "error: --seed applies only to: fuzz"),
            (["ci", "--quick"], "error: --quick applies only to: bench"),
        ],
    )
    def test_exits_2_with_one_line(self, argv, line, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line]
        assert captured.out == ""

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
