"""Command-line interface: schemas, determinism, round-trips, exit codes."""

import csv
import json

import numpy as np
import pytest

from peakwave import cli, dynamics, spectral, validate_params
from peakwave.dynamics import PerturbationKind
from peakwave.spectral import OperatorKind, Sector
from peakwave.stability import Space


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_threshold_strength_exits_3(self, capsys):
        code, out, err = run(
            ["vk-scan", "--omega-min", "-6", "--omega-max", "-1.5", "--omega-points", "6",
             "--z-min", "-0.8660254037844386"], capsys)
        assert code == 3
        assert "DegenerateError" in err
        assert out == ""


class TestSpectrumCommand:
    def test_header_counts(self, capsys):
        code, out, _ = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1",
             "--kind", "L1", "--n", "2001", "--k", "2"], capsys)
        assert code == 0
        header = json.loads(out.split("\n")[0][2:])
        assert header["negative_count"] == 2
        assert header["essential_edge"] == 2.0

    def test_stein_failure_exits_3(self, monkeypatch, capsys):
        from peakwave import spectral
        monkeypatch.setattr(spectral, "dstein", lambda d, e, w, *_: (np.zeros((len(d), len(w))), 1))
        code, out, err = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1",
             "--kind", "L2", "--n", "2001", "--k", "2"], capsys)
        assert code == 3
        assert "ConvergenceError" in err
        assert out == ""

    @pytest.mark.parametrize("k", ["0", "7"])
    def test_k_outside_range_exits_2(self, k, capsys):
        code, out, err = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1",
             "--kind", "L1", "--n", "2001", "--k", k], capsys)
        assert code == 2
        assert "DomainError" in err
        assert out == ""


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
        from peakwave import spectral, validate_params
        code, out, _ = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-9.85", "--z", "1",
             "--horizon", "0.01", "--n", "401"], capsys)
        assert code == 0
        header = json.loads(out.split("\n")[0][2:])
        grid = spectral.default_grid(validate_params(1, 1, -9.85, 1), 401)
        assert (header["half_width"], header["spacing"]) == (grid.half_width, grid.spacing)

    def test_nonfinite_field_exits_3(self, nan_on_fifth_step, capsys):
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "0.5", "--n", "501"], capsys)
        assert code == 3
        assert "BlowupError" in err
        assert out == ""

    @pytest.mark.parametrize("n", ["3", "5"])
    def test_grid_below_parity_block_minimum_exits_3(self, n, capsys):
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "0.1", "--n", n], capsys)
        assert code == 3
        assert "GridError" in err
        assert out == ""

    def test_nonfinite_parameter_exits_2(self, capsys):
        code, _, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega=-inf", "--z", "0",
             "--horizon", "0.5", "--n", "501"], capsys)
        assert code == 2
        assert "RegimeError" in err

    def test_nonfinite_horizon_exits_2(self, capsys):
        code, out, err = run(
            ["simulate", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--horizon", "nan", "--n", "501"], capsys)
        assert code == 2
        assert "DomainError" in err
        assert out == ""


class TestUsage:
    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["profile", "--bogus", "1"])
        assert excinfo.value.code == 2

    def test_unwritable_output_exits_4(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "out.csv"
        code, _, err = run(
            ["profile", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--xmax", "5", "--n", "11", "--out", str(target)], capsys)
        assert code == 4
        assert "IOError" in err

    def test_outdir_flag(self, capsys, tmp_path):
        code, _, _ = run(
            ["profile", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1",
             "--xmax", "5", "--n", "11", "--out", "rel.csv", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "rel.csv").exists()


class TestEvenSectorSpectrum:
    def test_even_sector_single_negative(self, capsys):
        code, out, _ = run(
            ["spectrum", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1",
             "--kind", "L1", "--sector", "even", "--n", "2001", "--k", "1"], capsys)
        assert code == 0
        header = json.loads(out.split("\n")[0][2:])
        assert header["negative_count"] == 1


class TestEnumChoices:
    """Every choice flag accepts exactly its enum's values and echoes the choice."""

    WAVE = ["--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-0.5"]

    @pytest.mark.parametrize("kind", [k.value for k in OperatorKind])
    @pytest.mark.parametrize("sector", [s.value for s in Sector])
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
        code, out, _ = run(["simulate", *self.WAVE, "--perturbation", kind.value,
                            "--amplitude", "0.01", "--horizon", "0.1", "--n", "201"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert json.loads(lines[0][2:])["perturbation"] == kind.value
        p = validate_params(1, 1, -2, -0.5)
        grid = spectral.default_grid(p, 201)
        result = dynamics.simulate(p, dynamics.Perturbation(kind, 0.01), 0.1, 0.25 * grid.spacing, grid)
        expected = [(r.time, r.energy, r.charge, r.orbital_distance) for r in result.rows]
        assert [tuple(float(tok) for tok in line.split(",")) for line in lines[2:]] == expected
