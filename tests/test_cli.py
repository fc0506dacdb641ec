"""Command-line interface: schemas, determinism, round-trips, exit codes."""

import csv
import errno
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import peakwave
from peakwave import cli, dynamics, spectral, stability, validate_params
from peakwave.dynamics import PerturbationKind
from peakwave.spectral import OperatorKind, Space


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv):
    """`python -m peakwave.cli argv` in a new interpreter that shows every warning:
    (exit code, stdout, stderr)."""
    src = str(Path(peakwave.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "peakwave.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestProfileCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(
            ["profile", "--l1", "1", "--l2", "1", "--omega", "-3", "--z", "2",
             "--xmax", "10", "--n", "11"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "x,phi,dphi"
        assert len(lines) == 13
        header = json.loads(lines[0][2:])
        assert header["regime"] == "attractive-attractive"

    def test_round_trip_17_digits(self, tmp_path, capsys):
        out_file = tmp_path / "profile.csv"
        code, _, _ = run(
            ["profile", "--l1", "1", "--l2", "1", "--omega", "-3", "--z", "2",
             "--xmax", "8", "--n", "101", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().split("\n")
        from peakwave import ProfileEvaluator, validate_params
        ev = ProfileEvaluator.from_params(validate_params(1, 1, -3, 2))
        for line in lines[2:10]:
            x, phi, _ = (float(tok) for tok in line.split(","))
            assert float(ev.value(x)) == phi  # lossless binary64 round-trip

    @pytest.mark.parametrize("point", [(1, 1, -3, 2), (1, 1, -2, -1), (2, -1, -0.5, 0.8),
                                       (2, 3, -4, 0.5), (1, 0.1, -2.5, -1.2)])
    def test_rows_match_scalar_evaluation(self, point, tmp_path, capsys):
        from peakwave import ProfileEvaluator, Side, validate_params
        out_file = tmp_path / "profile.csv"
        flags = ["--l1", "--l2", "--omega", "--z"]
        argv = ["profile"] + [tok for f, v in zip(flags, point) for tok in (f, str(v))]
        assert run(argv + ["--xmax", "7", "--n", "41", "--out", str(out_file)], capsys)[0] == 0
        ev = ProfileEvaluator.from_params(validate_params(*point))
        h = 14.0 / 40
        lines = out_file.read_text().strip().split("\n")[2:]
        assert len(lines) == 41
        for i, line in enumerate(lines):
            x = h * (i - 20)
            expected = (x, float(ev.value(x)), float(ev.derivative(x, Side.RIGHT)))
            assert tuple(float(tok) for tok in line.split(",")) == expected

    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["profile", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
                "--xmax", "5", "--n", "51"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(f1)], capsys)[0] == 0
        assert run(args + ["--out", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_validation_exit_code(self, capsys):
        code, _, err = run(
            ["profile", "--l1", "1", "--l2", "1", "--omega", "-0.2", "--z", "1"], capsys)
        assert code == 2
        assert "RegimeError" in err

    @pytest.mark.parametrize("flags", [
        ["--l1", "inf", "--l2", "1", "--omega", "-2", "--z", "0"],
        ["--l1", "1", "--l2", "1", "--omega=-inf", "--z", "0"],
        ["--l1", "1", "--l2", "nan", "--omega", "-2", "--z", "0"],
    ])
    def test_nonfinite_parameter_exit_code(self, flags, capsys):
        code, out, err = run(["profile"] + flags, capsys)
        assert code == 2
        assert "RegimeError" in err and "finite" in err
        assert out == ""

    @pytest.mark.parametrize("flags", [
        ["--n", "0"], ["--n", "-5"], ["--n", "1"],
        ["--xmax", "nan"], ["--xmax", "-1"], ["--xmax", "0"], ["--xmax", "inf"],
        ["--xmax", "1e308", "--n", "3"],
    ])
    def test_bad_grid_exits_2(self, flags, capsys):
        code, out, err = run(
            ["profile", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1"] + flags, capsys)
        assert code == 2
        assert "DomainError" in err
        assert out == ""


class TestVkScanCommand:
    def test_schema(self, capsys):
        code, out, _ = run(
            ["vk-scan", "--omega-min", "-3", "--omega-max", "-2", "--omega-points", "3",
             "--z-min", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "omega,z,norm_sq,dnorm_domega,p_index"
        assert len(lines) == 5
        assert lines[2].endswith(",1")  # p_index = 1 on this branch
        # One closed form serves every coefficient pair, so no path is recorded.
        header = json.loads(lines[0][2:])
        assert "slope_path" not in header and "fd_step_rule" not in header

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["vk-scan", "--omega-min", "-2", "--omega-max", "-2", "--omega-points", "1",
             "--z-min", "0.5", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["omega", "z", "norm_sq", "dnorm_domega", "p_index"]
        assert len(payload["rows"]) == 1

    @pytest.mark.parametrize("bounds", [
        ["--omega-min", "-2", "--omega-max", "nan", "--omega-points", "1", "--z-min", "0.5",
         "--z-max", "inf"],
        ["--omega-min=-inf", "--omega-max", "-2", "--z-min", "0.5"],
        ["--omega-min", "-3", "--omega-max", "-2", "--z-min", "nan"],
        ["--omega-min", "-3", "--omega-max", "-2", "--z-min", "0.5", "--z-max=-inf"],
    ])
    def test_nonfinite_bound_exits_2_whatever_the_counts(self, bounds, capsys):
        code, out, err = run(["vk-scan", *bounds], capsys)
        assert code == 2
        assert "DomainError" in err and "must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("counts", [
        ["--omega-points", "100000000000000000000"],
        ["--omega-points", "1001", "--z-points", "1000", "--z-max", "0.9"],
    ], ids=["huge-count", "product-over"])
    def test_row_cap_exits_2_before_any_list(self, counts, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_linspace", None)
        code, out, err = run(["vk-scan", "--omega-min", "-3", "--omega-max", "-1", "--z-min", "0.5",
                              *counts], capsys)
        assert (code, out) == (2, "")
        assert "DomainError" in err and f"cap of {cli.MAX_SCAN_ROWS} rows" in err

    def test_no_frequency_points_exits_2(self, capsys):
        code, out, err = run(
            ["vk-scan", "--omega-min", "-3", "--omega-max", "-2", "--omega-points", "0", "--z-min", "1"], capsys)
        assert (code, out) == (2, "")
        assert "DomainError" in err and "--omega-points must be >= 1" in err

    def test_slope_at_tiny_frequency(self, capsys):
        # ||phi||^2 ~ 4 sqrt(-omega) there, so d/domega ||phi||^2 ~ -2/sqrt(-omega).
        code, out, _ = run(
            ["vk-scan", "--omega-min=-1e-40", "--omega-max=-1e-30", "--omega-points", "2",
             "--z-min", "0"], capsys)
        assert code == 0
        slopes = [float(line.split(",")[3]) for line in out.strip().split("\n")[2:]]
        assert slopes == pytest.approx([-2e20, -2e15], rel=1e-6)

    def test_threshold_strength_exits_3(self, capsys):
        code, out, err = run(
            ["vk-scan", "--omega-min", "-6", "--omega-max", "-1.5", "--omega-points", "6",
             "--z-min", "-0.8660254037844386"], capsys)
        assert code == 3
        assert "DegenerateError" in err
        assert out == ""


class TestOverflowingConstants:
    """Finite flags whose derived constants overflow are refused, not turned into numbers."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--l1", "1e160", "--l2", "1", "--omega", "-1", "--z", "0.5"],
        ["vk-scan", "--l1", "1e300", "--l2", "1", "--omega-min", "-1", "--omega-max", "-1",
         "--omega-points", "1", "--z-min", "0.5"],
        ["profile", "--l1", "1e300", "--l2", "1e300", "--omega", "-1", "--z", "0.5", "--n", "3"],
    ], ids=["classify", "vk-scan", "profile"])
    def test_overflowing_kappa_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert "RegimeError" in err and "kappa" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--l1", "1", "--l2", "1", "--omega=-1e151", "--z", "1"],
        ["spectrum", "--l1", "1", "--l2", "1", "--omega=-1e155", "--z", "1"],
        ["classify", "--l1", "1", "--l2", "1", "--omega=-1e155", "--z", "1"],
    ], ids=["spectrum-1e151", "spectrum-1e155", "classify-1e155"])
    def test_overflowing_coupling_exits_3(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert "GridError" in err and "2/h^4" in err


class TestVanishingScales:
    """Frequencies so small that the grid's squared coupling 1/h^4 or the
    slope's complex step rounds to 0 exit 3; they used to print a wrong
    verdict (or count) with exit 0, or end in an untyped ZeroDivisionError."""

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--l1", "1", "--l2", "1", "--omega=-1e-200", "--z", "5e-101"],
         "GridError: spacing h = 3e+98 is so coarse that the squared coupling 1/h^4 underflows"),
        (["spectrum", "--l1", "1", "--l2", "1", "--omega=-1e-300", "--z", "5e-151", "--n", "1201"],
         "GridError: spacing h = 4.9999999999999997e+148 is so coarse"),
        (["vk-scan", "--omega-min=-1e-307", "--omega-max=-1e-307", "--omega-points", "1",
          "--z-min", "1e-154"], "DegenerateError: complex step 1e-20*|omega| rounds to 0"),
    ], ids=["classify-coupling", "spectrum-coupling", "vk-scan-step"])
    def test_exits_3(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith(message)

    @pytest.mark.parametrize("z, full", [("5e-79", "OrbitallyStable"), ("-5e-79", "OrbitallyUnstable")])
    def test_just_above_the_coupling_bound_agrees(self, z, full, capsys):
        code, out, _ = run(["classify", "--l1", "1", "--l2", "1", "--omega=-1.4e-157", f"--z={z}"], capsys)
        assert (code, out) == (0, f"{full} (numeric=analytic)\n")


class TestSpectrumCommand:
    def test_header_counts(self, capsys):
        code, out, _ = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1",
             "--kind", "L1", "--n", "2001", "--k", "2"], capsys)
        assert code == 0
        header = json.loads(out.split("\n")[0][2:])
        assert header["negative_count"] == 2
        assert header["essential_edge"] == 2.0

    @pytest.mark.parametrize("k", ["0", "7"])
    def test_k_outside_range_exits_2(self, k, capsys):
        code, out, err = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1",
             "--kind", "L1", "--n", "2001", "--k", k], capsys)
        assert code == 2
        assert "DomainError" in err
        assert out == ""


class TestRoundedEdges:
    """Points that pass every inequality but lie within rounding of an edge of
    the window exit 2 with a RegimeError instead of crashing."""

    @pytest.mark.parametrize("argv", [
        ["profile", "--l1", "1", "--l2", "1", "--omega=-1.0000000000000002", "--z", "2", "--n", "21"],
        ["classify", "--l1", "1", "--l2", "1", "--omega=-1.0000000000000002", "--z", "2"],
        ["simulate", "--l1", "1", "--l2", "1", "--omega=-1.0000000000000002", "--z", "2", "--n", "1201"],
        ["vk-scan", "--omega-min=-1.0000000000000002", "--omega-max=-1.0000000000000002",
         "--omega-points", "1", "--z-min", "2"],
        ["classify", "--l1", "2", "--l2", "-1", "--omega=-0.25000000000000006", "--z", "1"],
        ["spectrum", "--l1", "3", "--l2", "-5", "--omega=-0.33749999999999997", "--z", "0", "--n", "1201"],
        ["vk-scan", "--l1", "3", "--l2", "-5", "--omega-min=-0.33749999999999997",
         "--omega-max=-0.33749999999999997", "--omega-points", "1", "--z-min", "0.1"],
        ["vk-scan", "--l1", "7.90597882652009", "--l2=-2.564831349355059", "--omega-min=-4.569342923446585",
         "--omega-max=-4.569342923446585", "--omega-points", "1", "--z-min=-2.4954940761092166"],
    ], ids=["profile-tanh", "classify-tanh", "simulate-tanh", "vk-scan-tanh", "classify-ar-tanh",
            "spectrum-kappa", "vk-scan-kappa", "vk-scan-artanh"])
    def test_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("RegimeError:") and "rounds onto an edge of the window" in err


class TestScaleFreeTolerances:
    def test_small_frequency_spectrum_counts_its_negative_eigenvalue(self, capsys):
        code, out, _ = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega=-1e-8", "--z", "1e-5", "--n", "2001"], capsys)
        assert code == 0
        header = json.loads(out.split("\n")[0][2:])
        assert header["negative_count"] == 1
        # 3*h^2*omega^2 with h = 300, where the old absolute floor gave 1e-6.
        assert header["zero_exclusion_shift"] == pytest.approx(2.7e-11, rel=1e-12)

    @pytest.mark.parametrize("z, full", [("1e-5", "OrbitallyStable"), ("-1e-5", "OrbitallyUnstable")])
    @pytest.mark.parametrize("space", ["full", "even"])
    def test_small_frequency_classify_agrees(self, z, full, space, capsys):
        code, out, _ = run(["classify", "--l1", "1", "--l2", "1", "--omega=-1e-8", f"--z={z}",
                            "--space", space], capsys)
        outcome = full if space == "full" else "OrbitallyStable"
        assert (code, out) == (0, f"{outcome} (numeric=analytic)\n")

    def test_large_frequency_classify_agrees(self, capsys):
        code, out, _ = run(["classify", "--l1", "1", "--l2", "1", "--omega=-1e12", "--z", "5e5"], capsys)
        assert (code, out) == (0, "OrbitallyStable (numeric=analytic)\n")


class TestClassifyCommand:
    def test_stable_line(self, capsys):
        code, out, _ = run(
            ["classify", "--l1", "2", "--l2", "-1", "--omega", "-0.5", "--z", "1",
             "--space", "full"], capsys)
        assert code == 0
        assert out.strip() == "OrbitallyStable (numeric=analytic)"

    def test_unstable_even_space_agreement(self, capsys):
        code, out, _ = run(
            ["classify", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-0.5",
             "--space", "even"], capsys)
        assert code == 0
        assert out.strip() == "OrbitallyStable (numeric=analytic)"

    def test_general_focusing_pair_agreement(self, capsys):
        # The scaled strength -0.6 * sqrt(3) / 2 lies between the threshold and 0.
        code, out, _ = run(
            ["classify", "--l1", "2", "--l2", "3", "--omega", "-2.7", "--z", "-0.6",
             "--space", "full"], capsys)
        assert code == 0
        assert out.strip() == "OrbitallyUnstable (numeric=analytic)"

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run(
            ["classify", "--l1", "1", "--l2", "1", "--omega", "-2",
             "--z", "-0.866025403784", "--space", "full"], capsys)
        assert code == 3
        assert "DegenerateError" in err

    def test_l1_spectrum_near_zero_exits_3(self, capsys):
        # Z = -1.99 at omega = -1 is just inside the window; L1's nearest
        # eigenvalue lies 5e-4 from 0, inside the zero-exclusion shift.
        code, out, err = run(["classify", "--l1", "1", "--l2", "1", "--omega", "-1", "--z", "-1.99"], capsys)
        assert (code, out) == (3, "")
        assert "PreconditionError" in err and "trivial-kernel check failed" in err

    def test_count_moving_under_refinement_exits_3(self, monkeypatch, capsys):
        # The refined n = 2001 grid has an odd block of 2000 rows; the kernel
        # check runs on the base grid's blocks and does not see the change.
        real = spectral.inertia_below
        monkeypatch.setattr(spectral, "inertia_below", lambda op, shift: real(op, shift) + (op.size == 2000))
        code, out, err = run(
            ["classify", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1", "--n", "2001"], capsys)
        assert (code, out) == (3, "")
        assert "InstabilityError" in err and "odd negative count of L1" in err

    def test_out_writes_both_formats(self, tmp_path, capsys):
        args = ["classify", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-0.5", "--space", "full"]
        csv_file, json_file = tmp_path / "v.csv", tmp_path / "v.json"
        assert run(args + ["--out", str(csv_file)], capsys)[0] == 0
        assert run(args + ["--out", str(json_file), "--format", "json"], capsys)[0] == 0
        columns = ["provenance", "n_hessian", "p_index", "outcome", "note"]
        records = list(csv.reader(csv_file.read_text().split("\n")[1:-1]))
        assert records[0] == columns
        assert [len(r) for r in records[1:]] == [5, 5]
        assert [r[:4] for r in records[1:]] == [
            ["numeric", "2", "1", "OrbitallyUnstable"], ["analytic", "2", "1", "OrbitallyUnstable"]]
        payload = json.loads(json_file.read_text())
        assert payload["columns"] == columns
        assert payload["rows"] == records[1:]


class TestFindZstarCommand:
    def test_reference_value(self, capsys):
        code, out, _ = run(["find-zstar", "--bracket", "-0.95", "-0.75"], capsys)
        assert code == 0
        value = float(out.split("=")[1])
        assert abs(value + 0.866025403784) < 1e-4

    def test_bracket_error_exit_code(self, capsys):
        code, _, err = run(["find-zstar", "--bracket", "-0.5", "-0.3"], capsys)
        assert code == 3
        assert "BracketError" in err

    @pytest.mark.parametrize("bracket", [["-0.75", "-0.95"], ["-0.8", "-0.8"], ["nan", "-0.75"],
                                         ["-0.95", "inf"]])
    def test_unordered_or_nonfinite_bracket_exits_2(self, bracket, capsys):
        code, out, err = run(["find-zstar", "--bracket", *bracket], capsys)
        assert code == 2
        assert "DomainError" in err
        assert out == ""


class TestSimulateCommand:
    def test_csv_schema_and_atomic_write(self, tmp_path, capsys):
        out_file = tmp_path / "run.csv"
        code, _, _ = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "0.5", "--n", "2001", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[1] == "time,energy,charge,orbital_distance"
        assert len(lines) > 3
        leftovers = [f for f in out_file.parent.iterdir() if f.suffix == ".tmp"]
        assert leftovers == []

    def test_header_grid_is_default_grid(self, capsys):
        code, out, _ = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-9.85", "--z", "1",
             "--horizon", "0.01", "--n", "1201"], capsys)
        assert code == 0
        header = json.loads(out.split("\n")[0][2:])
        grid = spectral.default_grid(validate_params(1, 1, -9.85, 1), 1201)
        assert (header["half_width"], header["spacing"]) == (grid.half_width, grid.spacing)

    def test_default_dt_is_the_library_step(self, capsys):
        code, out, _ = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "0.01", "--n", "1201"], capsys)
        assert code == 0
        header = strict_json(out.split("\n")[0][2:])
        assert header["dt"] == dynamics.DEFAULT_STEP_PER_SPACING * header["spacing"]

    def test_under_resolved_grid_exits_3(self, capsys):
        # n = 401 at omega = -9.85 gives h = 0.048 against the bound 0.016.
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-9.85", "--z", "1",
             "--horizon", "0.05", "--n", "401"], capsys)
        assert code == 3
        assert "GridError" in err and "resolution bound" in err
        assert out == ""

    def test_nonfinite_field_exits_3(self, nan_on_fifth_step, capsys):
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "0.5", "--n", "1201"], capsys)
        assert code == 3
        assert "BlowupError" in err
        assert out == ""

    def test_horizon_shorter_than_half_a_step_exits_2(self, capsys):
        # dt = h/4 = 0.00884: one step would write a last row 8.8 times past the horizon.
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega=-2", "--z", "1",
             "--horizon", "1e-3", "--n", "1201"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("DomainError:") and "shorter than half a step" in err

    @pytest.mark.parametrize("n", ["3", "5"])
    def test_tiny_grid_exits_3(self, n, capsys):
        # The horizon spans steps of dt = h/4 (h = 21.2 and 10.6), so the grid is what fails.
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "10", "--n", n], capsys)
        assert code == 3
        assert "GridError" in err and "resolution bound" in err
        assert out == ""

    def test_odd_bump_on_unresolved_grid_exits_3_without_warning(self):
        # The grid (h = 21.2) is checked before the vanishing odd bump is sampled.
        code, out, err = run_fresh(
            ["simulate", "--l1", "1", "--l2", "1", "--omega=-2", "--z", "1", "--n", "3",
             "--perturbation", "odd", "--amplitude", "1e-3"])
        assert (code, out) == (3, "")
        assert err.startswith("GridError:") and "resolution bound" in err
        assert "RuntimeWarning" not in err

    def test_vanishing_odd_bump_exits_2_without_warning(self):
        # h = 50 is admissible at omega = -1e-6, but x exp(-x^2) is 0 at every node.
        code, out, err = run_fresh(
            ["simulate", "--l1", "1", "--l2", "1", "--omega=-1e-6", "--z", "1e-3", "--n", "1201",
             "--perturbation", "odd", "--amplitude", "1e-9"])
        assert (code, out) == (2, "")
        assert err.startswith("DomainError:") and "odd bump" in err
        assert "RuntimeWarning" not in err

    def test_nonfinite_parameter_exits_2(self, capsys):
        code, _, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega=-inf", "--z", "0",
             "--horizon", "0.5", "--n", "1201"], capsys)
        assert code == 2
        assert "RegimeError" in err

    def test_negative_amplitude_beyond_guard_exits_2(self, capsys):
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--perturbation", "even", "--amplitude", "-10", "--horizon", "0.02"], capsys)
        assert code == 2
        assert "DomainError" in err and "amplitude" in err
        assert out == ""

    @pytest.mark.parametrize("kind, amplitude", [("none", "nan"), ("none", "inf"), ("even", "nan"),
                                                 ("odd", "-inf")])
    def test_nonfinite_amplitude_exits_2(self, tmp_path, capsys, kind, amplitude):
        out_file = tmp_path / "sim.csv"
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--perturbation", kind, f"--amplitude={amplitude}", "--horizon", "0.02",
             "--n", "1201", "--out", str(out_file)], capsys)
        assert code == 2
        assert "DomainError" in err and "amplitude must be finite" in err
        assert out == ""
        assert not out_file.exists()

    def test_amplitude_without_bump_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "sim.csv"
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--perturbation", "none", "--amplitude", "0.05", "--horizon", "0.02",
             "--n", "1201", "--out", str(out_file)], capsys)
        assert (code, out) == (2, "")
        assert "DomainError" in err and "'none' takes amplitude 0" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("dt", ["nan", "-1", "0.05"])
    def test_bad_dt_exits_2(self, dt, tmp_path, capsys):
        # n = 1201 at omega = -2 gives h = 0.0354, so 0.05 is above the cap 0.5*h.
        out_file = tmp_path / "sim.csv"
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             f"--dt={dt}", "--horizon", "0.1", "--n", "1201", "--out", str(out_file)], capsys)
        assert (code, out) == (2, "")
        assert "DomainError" in err and "dt" in err
        assert not out_file.exists()

    def test_step_cap_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "sim.csv"
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "0.1", "--dt", "1e-300", "--out", str(out_file)], capsys)
        assert (code, out) == (2, "")
        assert "DomainError" in err and f"cap of {dynamics.MAX_STEPS}" in err
        assert not out_file.exists()

    def test_nonfinite_horizon_exits_2(self, capsys):
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "nan", "--n", "1201"], capsys)
        assert code == 2
        assert "DomainError" in err
        assert out == ""


class TestLibraryDefaults:
    """A numerical default the CLI states is read from the library's constant."""

    @pytest.mark.parametrize("command,module,constant", [
        ("spectrum", spectral, "DEFAULT_GRID_POINTS"),
        ("simulate", spectral, "DEFAULT_GRID_POINTS"),
        ("classify", stability, "NUMERIC_GRID_POINTS"),
    ])
    def test_grid_size_default_is_the_constant(self, command, module, constant, monkeypatch):
        wave = ["--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1"]
        assert cli.build_parser().parse_args([command, *wave]).n == getattr(module, constant)
        monkeypatch.setattr(module, constant, 1201)
        assert cli.build_parser().parse_args([command, *wave]).n == 1201

    def test_default_grid_reads_the_constant(self):
        p = validate_params(1, 1, -2, 1)
        assert spectral.default_grid(p).n_points == spectral.DEFAULT_GRID_POINTS == 4001

    def test_default_step_is_a_quarter_spacing(self):
        assert dynamics.DEFAULT_STEP_PER_SPACING == 0.25


class TestUsage:
    WAVE = ["--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1"]
    VALID = {
        "profile": WAVE,
        "vk-scan": ["--omega-min", "-3", "--omega-max", "-2", "--z-min", "1"],
        "spectrum": WAVE,
        "classify": WAVE,
        "find-zstar": [],
        "simulate": WAVE,
    }

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["profile", "--bogus", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("parent, code", [("no-such-dir", errno.ENOENT), ("a-file", errno.ENOTDIR)])
    def test_unwritable_output_exits_4(self, capsys, tmp_path, parent, code):
        # The message names the missing directory of --out, not the temporary
        # file that could not be made in it.
        (tmp_path / "a-file").touch()
        target = tmp_path / parent / "out.csv"
        exit_code, out, err = run(
            ["profile", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--xmax", "5", "--n", "11", "--out", str(target)], capsys)
        assert (exit_code, out) == (4, "")
        assert err == (f"IOError: [Errno {code}] the directory of --out does not exist: "
                       f"{str(target.parent)!r}\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "a-file"]

    PROFILE = ["profile", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1", "--xmax", "5", "--n", "11"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_report_gets_the_mode_of_a_plain_open(self, capsys, tmp_path, monkeypatch, umask, mode):
        # The report is made with the umask in force; reading, setting or
        # applying it by hand would raise here.
        target = tmp_path / "out.csv"
        set_umask = os.umask
        previous = set_umask(umask)

        def refuse(*args):
            raise AssertionError("the report set its own mode")

        try:
            monkeypatch.setattr(os, "umask", refuse)
            monkeypatch.setattr(os, "fchmod", refuse, raising=False)
            code, _, _ = run([*self.PROFILE, "--out", str(target)], capsys)
            monkeypatch.undo()
            with open(tmp_path / "plain.csv", "w"):
                pass
        finally:
            set_umask(previous)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode) == mode

    def test_failed_replace_leaves_no_temporary_file(self, capsys, tmp_path):
        # --out names an existing directory: the report is written to a
        # temporary file beside it, which must go when the rename fails.
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run(
            ["profile", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--xmax", "5", "--n", "11", "--out", str(target)], capsys)
        assert (code, out) == (4, "")
        assert err == f"IOError: [Errno {errno.EISDIR}] --out names a directory: {str(target)!r}\n"
        assert sorted(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("name", ["taken", "new"])
    def test_trailing_separator_names_out(self, capsys, tmp_path, monkeypatch, name):
        # A name ending in a separator is a directory, existing or not; no
        # temporary file is made anywhere, the working directory's parent
        # included.
        (tmp_path / "cwd").mkdir()
        (tmp_path / "taken").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        target = str(tmp_path / name) + os.sep
        code, out, err = run([*self.PROFILE, "--out", target], capsys)
        assert (code, out) == (4, "")
        assert err == f"IOError: [Errno {errno.EISDIR}] --out names a directory: {target!r}\n"
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "cwd", tmp_path / "taken"]

    def test_empty_out_exits_2(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        code, out, err = run([*self.PROFILE, "--out", ""], capsys)
        assert (code, out, err) == (2, "", "DomainError: --out must name a file, got ''\n")
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "cwd"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_is_written_through(self, capsys, tmp_path):
        # A reader of the pipe gets the report, and the pipe stays a pipe.
        report = run(self.PROFILE, capsys)[1]
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, out, err = run([*self.PROFILE, "--out", str(fifo)], capsys)
        reader.join(timeout=30)
        assert (code, out, err) == (0, "", "")
        assert received == [report]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(tmp_path.iterdir()) == [fifo]

    @pytest.mark.parametrize("target_exists", [True, False], ids=["to-a-file", "dangling"])
    def test_link_is_written_through(self, capsys, tmp_path, target_exists):
        # The file a link names gets the report, as open() would write it;
        # the link stays and no temporary file is left beside either.
        report = run(self.PROFILE, capsys)[1]
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        if target_exists:
            target.write_text("old\n")
        link.symlink_to(target.name)
        code, out, err = run([*self.PROFILE, "--out", str(link)], capsys)
        assert (code, out, err) == (0, "", "")
        assert os.readlink(link) == target.name
        assert target.read_text() == report
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.parametrize("argv", [
        ["classify", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1", "--format", "json"],
        ["find-zstar", "--format", "json"],
    ])
    def test_output_flag_without_out_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert "DomainError" in err and "--out" in err

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_no_command_takes_outdir(self, command, tmp_path, capsys):
        # --out names the file, directory and all; --outdir is no flag of any command.
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, *self.VALID[command], "--out", "rel.csv", "--outdir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --outdir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestGridCap:
    """--n below 2 or above cli.MAX_GRID_POINTS exits 2 before any grid or array is built."""

    WAVE = ["--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1"]

    @pytest.mark.parametrize("command", ["profile", "spectrum", "classify", "simulate"])
    @pytest.mark.parametrize("n, message", [
        ("300000001", f"cap of {cli.MAX_GRID_POINTS} grid points"),
        ("1000000", f"cap of {cli.MAX_GRID_POINTS} grid points"),
        ("-5", "--n must be >= 2, got -5"),
        ("0", "--n must be >= 2, got 0"),
        ("1", "--n must be >= 2, got 1"),
    ], ids=["huge", "rounds-up-over", "negative", "zero", "one"])
    def test_exits_2_before_any_grid(self, command, n, message, monkeypatch, capsys):
        monkeypatch.setattr(cli, "GridSpec", None)
        monkeypatch.setattr(spectral, "default_grid", None)
        code, out, err = run([command, *self.WAVE, "--n", n], capsys)
        assert (code, out) == (2, "")
        assert "DomainError" in err and message in err

    def test_largest_odd_count_under_the_cap_passes(self):
        assert cli._odd(cli.MAX_GRID_POINTS - 1) == cli.MAX_GRID_POINTS - 1

    @pytest.mark.parametrize("command", ["spectrum", "classify", "simulate"])
    def test_count_2_rounds_up_to_a_grid_error(self, command, capsys):
        code, out, err = run([command, *self.WAVE, "--n", "2"], capsys)
        assert (code, out) == (3, "")
        assert "GridError" in err and "resolution bound" in err


class TestEvenSectorSpectrum:
    def test_even_sector_single_negative(self, capsys):
        code, out, _ = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1",
             "--kind", "L1", "--sector", "even", "--n", "2001", "--k", "1"], capsys)
        assert code == 0
        header = json.loads(out.split("\n")[0][2:])
        assert header["negative_count"] == 1

    @pytest.mark.parametrize("kind", ["L1", "L2"])
    def test_rows_are_the_even_block(self, kind, capsys):
        code, out, _ = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-0.5",
             "--kind", kind, "--sector", "even", "--n", "2001", "--k", "3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        header = json.loads(lines[0][2:])
        p = validate_params(1, 1, -2, -0.5)
        grid = spectral.default_grid(p, 2001)
        assert header["n_points"] == (2001 + 1) // 2
        assert header["spacing"] == grid.spacing
        even, _ = spectral.parity_blocks(spectral.discretize_operator(OperatorKind(kind), p, grid))
        expected = spectral.lowest_eigenvalues(even, 3, -p.omega)
        assert [float(line.split(",")[1]) for line in lines[2:]] == expected


class TestEnumChoices:
    """Every choice flag accepts exactly its enum's values and echoes the choice."""

    WAVE = ["--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-0.5"]

    @pytest.mark.parametrize("kind", [k.value for k in OperatorKind])
    @pytest.mark.parametrize("sector", [s.value for s in Space])
    def test_spectrum(self, kind, sector, capsys):
        code, out, _ = run(["spectrum", *self.WAVE, "--kind", kind, "--sector", sector,
                            "--n", "1201", "--k", "1"], capsys)
        assert code == 0
        header = json.loads(out.split("\n")[0][2:])
        assert (header["kind"], header["sector"]) == (kind, sector)

    @pytest.mark.parametrize("space", [s.value for s in Space])
    def test_classify(self, space, tmp_path, capsys):
        out_file = tmp_path / "v.csv"
        code, _, _ = run(["classify", *self.WAVE, "--space", space, "--n", "1201",
                          "--out", str(out_file)], capsys)
        assert code == 0
        assert json.loads(out_file.read_text().split("\n")[0][2:])["space"] == space

    @pytest.mark.parametrize("kind", list(PerturbationKind))
    def test_simulate_rows_match_library(self, kind, capsys):
        amplitude = 0.0 if kind is PerturbationKind.NONE else 0.01
        code, out, _ = run(["simulate", *self.WAVE, "--perturbation", kind.value,
                            "--amplitude", str(amplitude), "--horizon", "0.1", "--n", "1201"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert json.loads(lines[0][2:])["perturbation"] == kind.value
        p = validate_params(1, 1, -2, -0.5)
        grid = spectral.default_grid(p, 1201)
        result = dynamics.simulate(p, dynamics.Perturbation(kind, amplitude), 0.1, 0.25 * grid.spacing, grid)
        expected = [(r.time, r.energy, r.charge, r.orbital_distance) for r in result.rows]
        assert [tuple(float(tok) for tok in line.split(",")) for line in lines[2:]] == expected


class TestStrictJson:
    """Every report is standard JSON: no NaN or Infinity in any header."""

    WAVE = ["--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-0.5"]
    COMMANDS = {
        "profile": ["profile", *WAVE, "--n", "21"],
        "vk-scan": ["vk-scan", "--omega-min", "-3", "--omega-max", "-2", "--omega-points", "3",
                    "--z-min", "1"],
        "spectrum-L1": ["spectrum", *WAVE, "--kind", "L1", "--n", "1201", "--k", "1"],
        "spectrum-L2": ["spectrum", *WAVE, "--kind", "L2", "--n", "1201", "--k", "1"],
        "spectrum-free": ["spectrum", *WAVE, "--kind", "free", "--n", "1201", "--k", "1"],
        "classify": ["classify", *WAVE, "--n", "1201"],
        "find-zstar": ["find-zstar"],
        "simulate": ["simulate", *WAVE, "--n", "1201", "--horizon", "0.1"],
    }

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_json_report_parses_strictly(self, name, tmp_path, capsys):
        argv = self.COMMANDS[name]
        out_file = tmp_path / "report.json"
        code, _, _ = run([*argv, "--format", "json", "--out", str(out_file)], capsys)
        assert code == 0
        assert strict_json(out_file.read_text())["header"]["command"] == argv[0]

    def test_free_operator_has_null_kernel_residual(self, capsys):
        code, out, _ = run(["spectrum", *self.WAVE, "--kind", "free", "--n", "1201", "--k", "1"], capsys)
        assert code == 0
        assert strict_json(out.split("\n")[0][2:])["kernel_residual"] is None

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nonfinite_header_value_is_refused_unwritten(self, fmt, tmp_path):
        out_file = tmp_path / "report"
        with pytest.raises(ValueError):
            cli.emit_report([(1.0,)], cli.RunConfig({"value": math.nan}, ["x"], str(out_file), fmt))
        assert list(tmp_path.iterdir()) == []
