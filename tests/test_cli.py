"""Command-line surface: CSV contracts, determinism, exit codes, config."""

import json
import math
import os
import subprocess
import sys

import pytest

import rsheat
from rsheat import cli
from rsheat.cli import main, parse_theta
from rsheat.ktheta import pole_location
from rsheat.kernels import BoundaryParam


def child_env():
    """The environment of a child Python that imports the package this
    process imported, whether it came from an install, PYTHONPATH or
    pytest's pythonpath setting."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rsheat.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThetaParsing:
    def test_forms(self):
        assert parse_theta("friedrichs").is_friedrichs
        assert abs(parse_theta("pi/4").theta - math.pi / 4) < 1e-16
        assert abs(parse_theta("3pi/4").theta - 3 * math.pi / 4) < 1e-16
        assert abs(parse_theta("0.5").theta - 0.5) < 1e-16

    def test_rejects(self, capsys):
        code, _, err = run_cli(["trace", "--theta", "9"], capsys)
        assert code == 1 and "error" in err
        code, _, err = run_cli(["trace", "--theta", "sideways"], capsys)
        assert code == 1
        code, out, err = run_cli(["trace", "--theta", "pi/0"], capsys)
        assert (code, out) == (1, "")
        assert err == "rsheat: error: cannot parse theta 'pi/0': zero divisor\n"


class TestTraceCommand:
    def test_grid_contract(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--theta", "0", "--t-min", "1e-4", "--t-max", "1e-2",
             "--points", "20", "--spacing", "log", "--workers", "2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,theta,friedrichs,correction,total,exotic_ref,est_error,status"
        assert len(lines) == 21
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts == sorted(ts) and len(set(ts)) == 20
        # every numeric cell round-trips as a double
        for line in lines[1:]:
            cells = line.split(",")
            for cell in cells[:-1]:
                assert f"{float(cell):.17g}" == cell

    def test_friedrichs_zero_correction(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--theta", "friedrichs", "--points", "3"], capsys)
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[3]) == 0.0

    def test_residue_flag_shifts_total(self, capsys):
        args = ["trace", "--theta", "0", "--t-min", "1e-3", "--t-max", "1e-3",
                "--points", "1"]
        _, out_on, _ = run_cli(args, capsys)
        _, out_off, _ = run_cli(args + ["--no-residue"], capsys)
        tot_on = float(out_on.strip().split("\n")[1].split(",")[4])
        tot_off = float(out_off.strip().split("\n")[1].split(",")[4])
        z0 = pole_location(BoundaryParam(0.0))
        assert abs((tot_on - tot_off) - z0 * 1e-3) < 0.02 * z0 * 1e-3

    def test_byte_identical_output(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(
                ["trace", "--theta", "pi/4", "--points", "5", "--output", str(out)], capsys)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()  # LF endings only

    def test_metadata_sidecar(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        run_cli(["trace", "--theta", "0", "--points", "2", "--output", str(out)],
                capsys)
        meta = json.loads((out.parent / "c.csv.meta.json").read_text())
        assert meta["command"] == "trace"
        assert "version" in meta
        # no timestamps inside the data file itself
        assert ":" not in out.read_text()


class TestEigenCommand:
    def test_friedrichs_first_row(self, capsys):
        code, out, _ = run_cli(
            ["eigen", "--theta", "friedrichs", "--lambda-max", "300"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,lambda,secular_residual"
        assert abs(float(lines[1].split(",")[1]) - 5.7832) < 1e-3

    def test_non_finite_lambda_max_is_a_domain_error(self, capsys):
        # a typed DomainError (usage exit, one stderr line), never a traceback
        for flags in (["--lambda-max", "nan"], ["--lambda-max", "inf"]):
            code, out, err = run_cli(["eigen", "--theta", "0.3"] + flags, capsys)
            assert code == 1
            assert out == ""
            assert err.startswith("rsheat: error: eigenvalues: need")

    def test_only_the_options_it_reads(self, tmp_path, capsys):
        # eigen reads no quadrature option and ktheta runs no rows in a pool
        # eigen's bracket stop is a constant of the solver, not a --tol knob;
        # ktheta's parts and trace's integrals are fixed rules, so neither
        # takes a subdivision budget
        for args in (["eigen", "--no-residue"], ["eigen", "--rel-tol", "1e-9"],
                     ["eigen", "--max-subdivisions", "10"], ["eigen", "--tol", "1e-10"],
                     ["ktheta", "--workers", "2"], ["ktheta", "--rel-tol", "1e-9"],
                     ["ktheta", "--abs-tol", "1e-13"],
                     ["ktheta", "--max-subdivisions", "10"],
                     ["trace", "--max-subdivisions", "10"]):
            code, out, err = run_cli(args, capsys)
            assert (code, out) == (1, ""), args
            assert "unrecognized arguments" in err, args
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("rel_tol = 1e-9\n")
        code, out, err = run_cli(["ktheta", "--config", str(cfg), "--t", "1"], capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --rel-tol=1e-9" in err
        out = tmp_path / "e.csv"
        code, _, _ = run_cli(["eigen", "--lambda-max", "300", "--output", str(out)], capsys)
        assert code == 0
        meta = json.loads((tmp_path / "e.csv.meta.json").read_text())
        assert sorted(meta["config"]) == ["command", "lambda_max", "output", "theta"]
    def test_negative_values_in_exponent_form_reach_the_domain_checks(self, capsys):
        # argparse alone reads "-1e-12" as an option and stops with
        # "expected one argument" before the value is checked
        for args, message in (
                (["eigen", "--lambda-max", "-5E+2"],
                 "rsheat: error: eigenvalues: need finite lambda_max >= 100, "
                 "got -500.0"),
                (["trace", "--t-min", "-1e-3"],
                 "rsheat: error: need 0 < t-min <= t-max"),
                (["trace", "--t-min", "1e-3", "--t-max", "-.5e-2"],
                 "rsheat: error: need 0 < t-min <= t-max")):
            code, out, err = run_cli(args, capsys)
            assert (code, out, err.strip()) == (1, "", message)


class TestInputContract:
    def test_non_finite_grid_ends_are_named(self, capsys):
        for args, message in (
                (["trace", "--t-max", "inf"], "trace: need finite t-max, got inf"),
                (["ktheta", "--t-min", "nan"], "ktheta: need finite t-min, got nan"),
                (["ktheta", "--t", "inf"], "k_theta: need finite t >= 1e-305, got inf")):
            code, out, err = run_cli(args, capsys)
            assert (code, out, err) == (1, "", f"rsheat: error: {message}\n"), args

    def test_times_below_the_smallest_are_named(self, capsys):
        # they used to end in integrate's or i0_scaled_checked's message
        for args, name in (
                (["trace", "--theta", "1", "--t-min", "1e-320", "--t-max", "1e-300",
                  "--points", "3"], "trace_curve"),
                (["ktheta", "--theta", "1", "--t", "1e-320"], "k_theta"),
                (["trace", "--theta", "friedrichs", "--t-min", "1e-320", "--t-max", "1e-300",
                  "--points", "3"], "trace_curve")):
            code, out, err = run_cli(args, capsys)
            assert (code, out, err) == (
                1, "", f"rsheat: error: {name}: need finite t >= 1e-305, got 1e-320\n"), args

    def test_ignored_tolerances_leave_the_csv_as_is(self, capsys):
        # every integral of a trace row is a fixed rule: --rel-tol and
        # --abs-tol are accepted for old scripts, whatever their value, and
        # change no byte (infinite ones used to give rows 6.6e-4 off at 0.2)
        base = ["trace", "--theta", "1", "--points", "3", "--t-max", "0.2"]
        code, want, _ = run_cli(base, capsys)
        assert code == 0
        for tols in (["--rel-tol", "inf", "--abs-tol", "inf"],
                     ["--rel-tol", "1e-15", "--abs-tol", "1e-18"],
                     ["--rel-tol", "nan", "--abs-tol", "-1"]):
            assert run_cli(base + tols, capsys) == (0, want, ""), tols


class TestKthetaCommand:
    def test_total_is_sum(self, capsys):
        code, out, _ = run_cli(["ktheta", "--theta", "0", "--t", "1.0"], capsys)
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        t, theta, main_p, smooth, residue, total = map(float, row)
        assert total == main_p + smooth + residue

    def test_overflow_is_flagged(self, capsys):
        # the row still holds inf, as before, but stderr says so and the
        # exit code is the numerical-failure one, as for rsheat trace; the
        # smooth part is representable there (mpmath: 4.18152662037051e-306)
        code, out, err = run_cli(["ktheta", "--theta", "0", "--t", "1e300"], capsys)
        assert code == 2
        assert out == ("t,theta,main,smooth,residue,total\n"
                       "1.0000000000000001e+300,0,0,4.1815266203705464e-306,inf,inf\n")
        assert err == "rsheat ktheta: total overflows at t=1e+300\n"


class TestVerifyCommand:
    def test_quick_report(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        code, _, _ = run_cli(["verify", "--quick", "--output", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        heads = [line for line in lines if line.startswith("[PASS] criterion ")]
        assert len(heads) == 9
        assert lines[-1].startswith("ALL CRITERIA PASS")


class TestConfigFile:
    def test_config_applies_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 3\ntheta = pi/4\n# comment\n")
        code, out, _ = run_cli(["trace", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 4  # header + 3 rows
        code, out, _ = run_cli(
            ["trace", "--config", str(cfg), "--points", "2"], capsys)
        assert len(out.strip().split("\n")) == 3  # flag wins

    def test_explicit_flag_beats_config_and_prefixes_are_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("rel_tol = 1e-3\n")
        base = ["trace", "--config", str(cfg), "--theta", "0", "--points", "1"]
        # a prefix would slip past the config override, so it is refused
        code, _, _ = run_cli(base + ["--rel", "1e-9"], capsys)
        assert code == 1
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(base + ["--rel-tol", "1e-9", "--output", str(out)], capsys)
        assert code == 0
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert meta["config"]["rel_tol"] == repr(1e-9)

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        code, _, err = run_cli(["trace", "--config", str(cfg)], capsys)
        assert code == 1

    def test_values_are_checked_as_flags_are(self, tmp_path, capsys):
        # each is a usage error with one message, never a traceback or a
        # silently different run
        for line, message in (("command = eigen", "unrecognized arguments: --command=eigen"),
                              ("points = 2.5", "invalid int value: '2.5'"),
                              ("spacing = cubic", "invalid choice: 'cubic'"),
                              ("no_residue = maybe",
                               "config key 'no_residue' takes true or false, got 'maybe'")):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            code, out, err = run_cli(["trace", "--config", str(cfg), "--points", "1"], capsys)
            assert (code, out) == (1, ""), line
            assert message in err and "Traceback" not in err, line

    def test_on_off_key_is_the_bare_flag(self, tmp_path, capsys):
        base = ["trace", "--theta", "0", "--t-min", "1e-3", "--points", "1"]
        _, with_flag, _ = run_cli(base + ["--no-residue"], capsys)
        _, without, _ = run_cli(base, capsys)
        assert with_flag != without
        for val, want in (("true", with_flag), ("On", with_flag), ("0", without),
                          ("false", without)):
            cfg = tmp_path / "flag.cfg"
            cfg.write_text(f"no_residue = {val}\n")
            code, out, _ = run_cli(base + ["--config", str(cfg)], capsys)
            assert (code, out) == (0, want), val


class TestExitCodes:
    def test_overflowing_rows_are_flagged_and_exit_2(self, capsys):
        # theta just above pi/2: bound state e^{-2 kappa} with kappa ~ -4900
        code, out, err = run_cli(
            ["trace", "--theta", "1.5718", "--points", "3", "--workers", "1"], capsys)
        assert code == 2
        rows = [row.split(",") for row in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        for row in rows:
            assert not math.isfinite(float(row[4]))
            assert row[-1] == "overflow"
        assert "overflow" in err

    def test_usage_error_is_1(self, capsys):
        code, _, _ = run_cli(["trace", "--points", "0"], capsys)
        assert code == 1
        code, _, _ = run_cli(["no-such-command"], capsys)
        assert code == 1

    def test_parser_is_built_once_and_left_as_is(self, capsys):
        # a usage error first must not change what a later valid call writes
        valid = ["trace", "--theta", "pi/3", "--t-min", "1e-3", "--t-max", "0.2",
                 "--points", "4"]
        cli._build_parser.cache_clear()
        code, alone, _ = run_cli(valid, capsys)
        assert code == 0
        for bad in (["trace", "--theta", "0", "--points"], ["trace", "--wrong-flag"],
                    ["eigen", "--lambda-max", "x"]):
            assert run_cli(bad, capsys)[0] == 1
        code, after, _ = run_cli(valid, capsys)
        assert code == 0 and after == alone
        assert cli._build_parser() is cli._build_parser()

    def test_console_script_version(self):
        proc = subprocess.run([sys.executable, "-m", "rsheat.cli", "--version"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0


# runs one command and prints its exit code and the numpy submodules it loaded
_FOOTPRINT_CHILD = """
import contextlib, io, json, sys
from rsheat import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, [m for m in ("numpy.random", "numpy.polynomial") if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv", [
    ["trace", "--theta", "pi/3", "--points", "4"],
    ["eigen", "--theta", "pi/3", "--lambda-max", "100"],
    ["ktheta", "--theta", "pi/3", "--points", "4"],
    ["verify", "--quick"],
], ids=lambda argv: argv[0])
def test_commands_load_neither_numpy_random_nor_polynomial(argv):
    # the Gauss-Legendre table and criterion 9's points are constants of
    # the package: no command pays numpy.random's or numpy.polynomial's import
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_CHILD, *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
