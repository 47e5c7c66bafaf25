"""CLI contract tests: formats, exit codes, determinism."""

import pathlib

import numpy as np
import pytest

from sinccol.cli import main

from oracles import count_sign_changes


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEigenCommand:
    def test_csv_row_for_l1(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--l", "1", "--count", "1", "--M", "200")
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "n,l,lambda"
        assert lines[1].startswith("0,1,")
        assert "1.3861862" in lines[1]
        assert out.endswith("\n")

    def test_shifted_column(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--l", "1", "--count", "1",
                               "--M", "200", "--lambda-prime")
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "n,l,lambda,lambda_prime"
        # 1.3861862 + 1.2703628... = 2.6565490
        assert lines[1].endswith(",2.6565490")

    def test_multiple_l_row_order(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--l", "1,2", "--count", "2", "--M", "60")
        assert code == 0
        first_cols = [line.split(",")[:2] for line in out.strip().split("\n")[1:]]
        assert first_cols == [["0", "1"], ["1", "1"], ["0", "2"], ["1", "2"]]

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--l", "1", "--count", "2",
                               "--M", "60", "--format", "table")
        assert code == 0
        header = out.split("\n")[0].split()
        assert header == ["n", "l", "lambda"]

    def test_deterministic_output(self, capsys):
        args = ("eigen", "--l", "1", "--count", "3", "--M", "80")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        args = ("eigen", "--l", "1", "--count", "2", "--M", "60")
        _, out, _ = run_cli(capsys, *args)
        path = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, *args, "--output", str(path))
        assert code == 0
        assert path.read_bytes().decode() == out

    def test_paper_table_matches_the_committed_one(self, capsys):
        # tests/data/paper_table.csv holds this command's stdout on the paper's
        # full grid, before solves moved onto windows of it
        code, out, _ = run_cli(capsys, "eigen", "--l", "0,1,2,3,4", "--count", "5",
                               "--lambda-prime")
        assert code == 0
        assert out == (pathlib.Path(__file__).parent / "data" / "paper_table.csv").read_text()

    def test_usage_error_on_bad_m(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eigen", "--l", "0", "--count", "1", "--M", "0"])
        assert err.value.code == 2

    def test_usage_error_on_bad_l(self):
        with pytest.raises(SystemExit) as err:
            main(["eigen", "--l", "x,y"])
        assert err.value.code == 2

    def test_usage_error_on_bad_count(self):
        with pytest.raises(SystemExit) as err:
            main(["eigen", "--count", "0"])
        assert err.value.code == 2


class TestWavefunctionCommand:
    def test_ground_state_positive_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--l", "0", "--n", "0",
                               "--M", "300", "--samples", "120")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,R"
        assert len(lines) == 121
        values = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(values > 0.0)

    def test_second_excited_state_node_count(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--l", "0", "--n", "2",
                               "--M", "300", "--samples", "400")
        assert code == 0
        values = np.array([float(l.split(",")[1]) for l in out.strip().split("\n")[1:]])
        assert count_sign_changes(values) == 2

    def test_single_sample_at_x_min(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--l", "1", "--n", "0",
                               "--M", "80", "--samples", "1", "--x-min", "0.25")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0.25000000,")

    def test_log_spacing(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--l", "1", "--n", "0",
                               "--M", "80", "--samples", "5",
                               "--x-min", "0.01", "--x-max", "100")
        xs = np.array([float(l.split(",")[0]) for l in out.strip().split("\n")[1:]])
        assert np.allclose(xs, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-7)

    def test_below_the_first_node_r_is_its_nodal_value_at_l0(self, capsys):
        from sinccol import solve_states
        from sinccol.cli import _fmt

        # below x_0 = 3.1e-31 the interpolant's sinc tail would read up to 1.6e131
        state = solve_states(0, 1)[0]
        edge = state.coefficients[0] / np.sqrt(state.grid.points[0])
        code, out, _ = run_cli(capsys, "wavefunction", "--l", "0", "--n", "0",
                               "--x-min", "1e-300", "--x-max", "1e-299", "--samples", "3")
        assert code == 0
        assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == [_fmt(edge)] * 3

    def test_default_samples_are_the_sinc_interpolant(self, capsys):
        from sinccol import interpolate, solve_states
        from sinccol.cli import _fmt

        # [0.05, 10] lies inside the window, so the continuation below its
        # first node leaves the default output as it was
        state = solve_states(0, 1)[0]
        xs = np.geomspace(0.05, 10.0, 200)
        R = interpolate(state.grid, state.coefficients, xs) / np.sqrt(xs)
        code, out, _ = run_cli(capsys, "wavefunction")
        assert code == 0
        assert out == "x,R\n" + "".join(f"{_fmt(x)},{_fmt(r)}\n" for x, r in zip(xs, R))

    def test_usage_error_on_window(self):
        for bad in (["--x-min", "0"], ["--x-min", "5", "--x-max", "2"],
                    ["--samples", "0"], ["--n", "-1"]):
            with pytest.raises(SystemExit) as err:
                main(["wavefunction", "--l", "0", "--M", "50"] + bad)
            assert err.value.code == 2

    @pytest.mark.parametrize("bad", [["--x-max", "inf"], ["--x-min", "nan"],
                                     ["--x-min", "-inf", "--x-max", "1"]])
    def test_non_finite_window_is_a_usage_error(self, bad):
        # --x-max inf used to exit 0 with inf,nan rows
        with pytest.raises(SystemExit) as err:
            main(["wavefunction", "--l", "0", "--M", "50"] + bad)
        assert err.value.code == 2


class TestConvergeCommand:
    def test_deltas_decrease_l1(self, capsys):
        # M chosen inside the active convergence regime; past M ~ 100 the
        # l = 1 level sits on the round-off floor and deltas are noise
        code, out, _ = run_cli(capsys, "converge", "--l", "1", "--n", "0",
                               "--M", "12,25,50,100")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "M,lambda,delta"
        assert lines[1].split(",")[2] == ""
        deltas = [float(l.split(",")[2]) for l in lines[2:]]
        assert deltas == sorted(deltas, reverse=True)
        assert deltas[-1] <= 1e-6

    def test_usage_error_on_short_list(self):
        with pytest.raises(SystemExit) as err:
            main(["converge", "--l", "0", "--M", "100"])
        assert err.value.code == 2

    def test_usage_error_on_unsorted_list(self):
        with pytest.raises(SystemExit) as err:
            main(["converge", "--l", "0", "--M", "200,100"])
        assert err.value.code == 2


class TestDefaults:
    def test_reference_settings(self):
        import math

        from sinccol.cli import _build_parser

        cfg = _build_parser().parse_args(["eigen"])
        assert cfg.l == [0]
        assert cfg.M == 500
        assert cfg.d == math.pi / 4
        assert cfg.beta == 1.0
        assert cfg.format == "csv"


    def test_parser_is_built_once_and_parses_afresh(self, capsys):
        from sinccol.cli import _build_parser

        assert _build_parser() is _build_parser()
        argv = ["eigen", "--l", "2,1", "--count", "3", "--M", "60", "--lambda-prime"]
        first, again = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == again and first[0] == 0
        # none of the options above carries over into a call that omits them
        code, out, _ = run_cli(capsys, "eigen", "--M", "60")
        rows = out.splitlines()
        assert code == 0 and rows[0] == "n,l,lambda"
        assert [row.split(",")[:2] for row in rows[1:]] == [[str(n), "0"] for n in range(5)]


class TestUsageRules:
    """Each usage rule, fed one bad value: exit 2, nothing on stdout, and
    argparse's message naming the argument on stderr."""

    @pytest.mark.parametrize("argv, name", [
        (["eigen", "--d", "2"], "--d"),
        (["wavefunction", "--beta", "0.4"], "--beta"),
        (["eigen", "--l", "1,-2"], "--l"),
        (["eigen", "--count", "1.5"], "--count"),
        (["eigen", "--M", "0"], "--M"),
        (["wavefunction", "--M", "0"], "--M"),
        (["wavefunction", "--l", "-1"], "--l"),
        (["wavefunction", "--n", "-1"], "--n"),
        (["wavefunction", "--samples", "0"], "--samples"),
        (["wavefunction", "--x-min", "0"], "--x-min"),
        (["wavefunction", "--x-max", "inf"], "--x-max"),
        (["wavefunction", "--x-min", "5", "--x-max", "2"], "--x-max"),
        (["converge", "--l", "-1", "--M", "1,2"], "--l"),
        (["converge", "--n", "-1", "--M", "1,2"], "--n"),
        (["converge", "--M", "10,2.5"], "--M"),
    ])
    def test_bad_value_names_its_argument(self, capsys, argv, name):
        with pytest.raises(SystemExit) as err:
            main(argv)
        out = capsys.readouterr()
        assert err.value.code == 2
        assert out.out == ""
        assert f"argument {name}:" in out.err


class TestExitCodes:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_computation_error_is_exit_1(self, capsys, monkeypatch):
        import sinccol.cli as cli
        from sinccol import EigenSolveError

        def boom(*args, **kwargs):
            raise EigenSolveError("synthetic failure")

        monkeypatch.setattr(cli, "eigen_table", boom)
        code, _, err = run_cli(capsys, "eigen", "--l", "1", "--count", "1", "--M", "40")
        assert code == 1
        assert "synthetic failure" in err

    def test_non_positive_lowest_level_is_exit_1(self, capsys, monkeypatch):
        import sinccol.coulomb as coulomb

        # ln(x) - 2 moves the l = 1 ground level, 1.386, below zero
        shifted = lambda l: (lambda x: (4 * l * l - 1) / (4.0 * x**2) + np.log(x) - 2.0)
        monkeypatch.setattr(coulomb, "log_coulomb_potential", shifted)
        code, out, err = run_cli(capsys, "eigen", "--l", "1", "--count", "1", "--M", "40")
        assert code == 1
        assert out == ""
        assert "not positive definite" in err

    @pytest.mark.parametrize("argv, message", [
        (["wavefunction", "--l", "0", "--n", "200", "--M", "100"],
         "state n = 200 needs more than the 151 sinc points of the grid at l = 0, M = 100"),
        (["converge", "--l", "0", "--n", "200", "--M", "25,50"],
         "state n = 200 needs more than the 39 sinc points of the grid at l = 0, M = 25"),
        (["eigen", "--l", "2", "--count", "107", "--M", "30"],
         "state n = 106 needs more than the 106 sinc points of the grid at l = 2, M = 30"),
    ], ids=["wavefunction", "converge", "eigen"])
    def test_state_beyond_the_grid_is_exit_1(self, capsys, argv, message):
        # the message names the state the user asked for, not a count
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"sinccol: error: {message}; increase M\n"

    @pytest.mark.parametrize("argv", [
        ["wavefunction", "--l", "0", "--n", "150", "--M", "100"],
        ["eigen", "--l", "0", "--count", "151", "--M", "100"],
    ], ids=["wavefunction", "eigen"])
    def test_state_without_a_finite_level_is_exit_1(self, capsys, argv):
        # the grid's 151 points hold n = 150, but the lowest 151 levels of its
        # bordered pencil are not all finite; the message names the state
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == ("sinccol: error: state n = 150 has no finite level on the grid at "
                       "l = 0, M = 100; increase M\n")

    def test_pencil_larger_than_memory_is_exit_1(self, capsys, monkeypatch):
        import sinccol.collocation as collocation

        monkeypatch.setattr(collocation, "_physical_memory_bytes", lambda: 10**6)
        code, out, err = run_cli(capsys, "eigen", "--l", "4", "--count", "5", "--M", "100")
        assert code == 1
        assert out == ""
        # the window of the paper's K = 551 grid that holds the five states
        assert "K = 538" in err and "reduce M" in err

    def test_unwritable_output_is_exit_1(self, capsys, tmp_path):
        # a directory cannot be opened for writing
        code, out, err = run_cli(capsys, "eigen", "--l", "1", "--count", "1", "--M", "20",
                                 "--output", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("sinccol: error: ") and str(tmp_path) in err
