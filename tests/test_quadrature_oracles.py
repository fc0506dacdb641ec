"""No peakwave import loads scipy, only `simulate` loads it at run time (and
then only scipy.linalg), and the quadrature oracles of the test suite report
a quadrature failure as a typed error.

Import contracts are checked in a fresh interpreter, since this process has
long since loaded scipy."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import oracles
import peakwave
from peakwave import validate_params

POINTS = [(1.0, 1.0, -2.0, 1.0), (2.0, -1.0, -0.5, 1.0), (1.0, 1.0, -3.0, -0.5)]
SRC = str(Path(peakwave.__file__).resolve().parent.parent)

WAVE = ["--l1", "1", "--l2", "1", "--omega", "-2", "--z", "-1"]
#: One run of every command; `{out}` is replaced by a file in a scratch directory.
COMMANDS = [
    ["profile", *WAVE, "--n", "21"],
    ["vk-scan", "--l1", "2", "--l2", "-1", "--omega-min", "-0.7", "--omega-max", "-0.4",
     "--omega-points", "4", "--z-min", "0.5"],
    ["spectrum", *WAVE, "--kind", "L1", "--n", "1201"],
    ["spectrum", *WAVE, "--kind", "L2", "--sector", "even", "--n", "1201", "--format", "json"],
    ["spectrum", *WAVE, "--kind", "free", "--n", "1201", "--k", "1"],
    ["classify", "--l1", "1", "--l2", "1", "--omega", "-2", "--z", "1", "--n", "1201",
     "--out", "{out}"],
    ["find-zstar", "--out", "{out}"],
    ["simulate", *WAVE, "--n", "1201", "--horizon", "0.1", "--perturbation", "odd",
     "--amplitude", "1e-3"],
]


def fresh(code: str) -> list:
    """Run `code` in a new interpreter that imports this peakwave; return its printed JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(done.stdout)


def scipy_modules_after(module: str) -> set[str]:
    return set(fresh(
        f"import json, sys, {module}\n"
        "print(json.dumps([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]))"
    ))


def scipy_modules_after_runs(argvs: list[list[str]]) -> tuple[list[int], set[str]]:
    """Exit codes of `cli.main` on each argv in one fresh interpreter, and the scipy modules it then holds."""
    codes, loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from peakwave import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]]))"
    )
    return codes, set(loaded)


class TestImportContract:
    @pytest.mark.parametrize("module", ["peakwave", "peakwave.profile", "peakwave.vk", "peakwave.spectral",
                                        "peakwave.stability", "peakwave.dynamics", "peakwave.cli"])
    def test_loads_no_scipy(self, module):
        assert scipy_modules_after(module) == set()

    def test_commands_other_than_simulate_load_no_scipy(self, tmp_path):
        argvs = [[str(tmp_path / f"{i}.out") if a == "{out}" else a for a in argv]
                 for i, argv in enumerate(COMMANDS) if argv[0] != "simulate"]
        assert len(argvs) == 7
        codes, loaded = scipy_modules_after_runs(argvs)
        assert codes == [0] * len(argvs)
        assert loaded == set()

    def test_simulate_loads_only_scipy_linalg(self):
        (argv,) = [argv for argv in COMMANDS if argv[0] == "simulate"]
        codes, loaded = scipy_modules_after_runs([argv])
        assert codes == [0]
        assert "scipy.linalg.blas" in loaded
        # What scipy.linalg itself pulls in is up to the scipy release (1.17
        # loads none of scipy.integrate, special, optimize or sparse), so the
        # contract is that peakwave adds nothing on top of it.
        assert loaded <= scipy_modules_after("scipy.linalg.lapack")


class TestTypedQuadratureFailure:
    @pytest.fixture
    def warning_quad(self, monkeypatch):
        def quad(*args, **kwargs):
            warnings.warn("The maximum number of subdivisions (400) has been achieved.",
                          oracles.IntegrationWarning, stacklevel=2)
            return 1.0, 1.0

        monkeypatch.setattr(oracles, "quad", quad)

    @pytest.mark.parametrize("oracle", [oracles.norm_sq_quadrature, oracles.quadratic_form_phi,
                                        oracles.dnorm_domega_numeric])
    def test_integration_warning_becomes_convergence_error(self, warning_quad, oracle):
        with pytest.raises(oracles.QuadratureError, match="maximum number of subdivisions"):
            oracle(validate_params(*POINTS[0]))

    def test_raised_whatever_the_warning_filters(self, warning_quad):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(oracles.QuadratureError):
                oracles.norm_sq_quadrature(validate_params(*POINTS[0]))
