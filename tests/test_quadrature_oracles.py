"""The quadrature oracles load scipy.integrate only when called, and report a
quadrature failure as a typed error.

Import contracts are checked in a fresh interpreter, since this process has
long since loaded scipy."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import peakwave
from peakwave import ConvergenceError, spectral, validate_params, vk

POINTS = [(1.0, 1.0, -2.0, 1.0), (2.0, -1.0, -0.5, 1.0), (1.0, 1.0, -3.0, -0.5)]
SRC = str(Path(peakwave.__file__).resolve().parent.parent)


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


class TestImportContract:
    @pytest.mark.parametrize("module", ["peakwave", "peakwave.profile", "peakwave.vk"])
    def test_loads_no_scipy(self, module):
        assert scipy_modules_after(module) == set()

    def test_cli_loads_only_scipy_linalg(self):
        loaded = scipy_modules_after("peakwave.cli")
        assert "scipy.linalg.lapack" in loaded
        assert "scipy.integrate" not in loaded
        # What scipy.linalg itself pulls in is up to the scipy release (1.17
        # loads none of scipy.special, optimize or sparse), so the contract
        # is that peakwave adds nothing on top of it.
        assert loaded <= scipy_modules_after("scipy.linalg.lapack")

    def test_first_oracle_calls_after_cli_import_are_bitwise(self):
        got = fresh(
            "import json, sys\n"
            "import peakwave.cli\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "from peakwave import spectral, validate_params, vk\n"
            f"points = [validate_params(*q) for q in {POINTS!r}]\n"
            "print(json.dumps([[vk.norm_sq_quadrature(p).hex(), spectral.quadratic_form_phi(p).hex()]\n"
            "                  for p in points]))"
        )
        expected = []
        for q in POINTS:
            p = validate_params(*q)
            expected.append([vk.norm_sq_quadrature(p).hex(), spectral.quadratic_form_phi(p).hex()])
        assert got == expected


class TestTypedQuadratureFailure:
    @pytest.fixture
    def warning_quad(self, monkeypatch):
        import scipy.integrate

        def quad(*args, **kwargs):
            warnings.warn("The maximum number of subdivisions (400) has been achieved.",
                          scipy.integrate.IntegrationWarning, stacklevel=2)
            return 1.0, 1.0

        monkeypatch.setattr(scipy.integrate, "quad", quad)

    @pytest.mark.parametrize("oracle", [vk.norm_sq_quadrature, spectral.quadratic_form_phi,
                                        vk.dnorm_domega_numeric])
    def test_integration_warning_becomes_convergence_error(self, warning_quad, oracle):
        with pytest.raises(ConvergenceError, match="maximum number of subdivisions"):
            oracle(validate_params(*POINTS[0]))

    def test_raised_whatever_the_warning_filters(self, warning_quad):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ConvergenceError):
                vk.norm_sq_quadrature(validate_params(*POINTS[0]))
