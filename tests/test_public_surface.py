"""The public surface: what each module exports, and the names that left it.

The package exports what the command line, the verdict pipeline and
`simulate` use.  The functions that only check it live in `tests/oracles.py`
(or were thin wrappers of what remains), and none is an attribute of its old
module or class any more.  Spectra are eigenvalues and counts: the
eigenvector solve and the error only it raised are gone.  Each concept has one
name: the space of a count or verdict is `spectral.Space` (the `--sector` of
`spectrum` and the `--space` of `classify`), and a bad time step is a
`DomainError` like any other bad argument.  The unit-pair charge
`vk.norm_sq_closed` only tests called; they read the charge from `vk.scan`.
Each quantity has one formula: phi(0)^2 is the profile's value at 0 (its
attractive-repulsive closed form `phi_center_sq` is a test oracle), and the
unit-pair charge derivative is `-vk.slope`, so `vk.dnorm_domega_closed` is
gone.  Every field and default has a reader: a verdict is keyed by its space
and does not repeat it, `-phi'/phi` is inlined in the one derivative that
read `slope_factor`, and a grid, a count `k`, a sector, an amplitude or a
note no caller omits has no default.  `compare`, whose one grid in use is
the default, takes none, and `cli` takes the derivative's default side, so
it does not import `Side`.  One function measures the kernel of a realization, read as its
parity blocks, `spectral.kernel_residual(kind, blocks, lowest)`: the
spectrum report prints it and the verdict's preconditions read it, so the
pair-level `KernelReport` and its `_distance_to_zero` helper are gone.  The
parity blocks are the only realization counted and bisected, and they carry
the line's Gershgorin `bracket`, so `TridiagonalOperator` has no
`origin_row` and no `gershgorin_bounds`.  `simulate` steps one
Crank-Nicolson kernel, `dynamics._CrankNicolson`, on the even half of a
mirror-symmetric start or on the full line: the parity-block stepper
`_ParityCrankNicolson`, its even-half `step_even` and odd-block factors, and
the `_band_solve` it shared with them are gone.  `simulate` and the one-step
oracles rotate with one kernel, `dynamics._Rotation`, so `_phase` is gone.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import peakwave
from peakwave import cli, dynamics, spectral, stability

PUBLIC = {
    "peakwave": [
        "__version__",
        "BlowupError",
        "BracketError",
        "DegenerateError",
        "DomainError",
        "GridError",
        "InstabilityError",
        "PeakwaveError",
        "PreconditionError",
        "RegimeError",
        "ProfileEvaluator",
        "Regime",
        "Side",
        "WaveParameters",
        "validate_params",
    ],
    "peakwave.profile": ["Regime", "Side", "WaveParameters", "ProfileEvaluator", "validate_params"],
    "peakwave.vk": ["VkScanRow", "ZSTAR_REFERENCE", "slope", "p_index", "find_zstar", "scan"],
    "peakwave.spectral": [
        "Space", "OperatorKind", "GridSpec", "TridiagonalOperator", "SpectrumReport",
        "default_grid", "discretize_operator", "parity_blocks", "inertia_below", "lowest_eigenvalues",
        "parity_counts", "zero_exclusion_shift", "kernel_residual", "spectrum_report",
        "quadratic_form_discrete", "negative_direction_check",
    ],
    "peakwave.stability": [
        "Space", "Outcome", "Provenance", "Verdict", "classify_numeric", "classify_analytic", "compare",
    ],
    "peakwave.dynamics": [
        "FieldState", "PerturbationKind", "Perturbation", "SimRow", "SimulationResult", "simulate",
    ],
    "peakwave.cli": ["main", "RunConfig", "emit_report"],
}

_PROFILE_REMOVED = ["phi_eval", "phi_derivative", "r_map", "r_inverse", "ode_residual", "jump_defect"]

REMOVED = {
    "peakwave": [*_PROFILE_REMOVED, "phi_center_sq", "ConvergenceError", "StepError"],
    "peakwave.errors": ["ConvergenceError", "StepError"],
    "peakwave.profile": [*_PROFILE_REMOVED, "phi_center_sq", "_r_prime_raw"],
    "peakwave.profile.ProfileEvaluator": ["second_derivative", "slope_factor"],
    "peakwave.vk": ["norm_sq_closed", "dnorm_domega_closed"],
    "peakwave.spectral": [
        "morse_index", "lowest_eigenpairs", "dstein", "ConvergenceError", "Sector", "KernelReport",
        "_distance_to_zero",
    ],
    "peakwave.spectral.TridiagonalOperator": ["origin_row", "gershgorin_bounds"],
    "peakwave.stability": ["_numeric_verdicts", "_analytic_verdicts"],
    "peakwave.dynamics": [
        "sampled_profile", "discrete_energy", "discrete_charge", "orbital_distance", "strang_step",
        "cn_linear_step", "nonlinear_phase_step", "_ParityCrankNicolson", "_band_solve", "_phase",
    ],
}


def test_exports_are_pinned_and_removed_names_are_gone():
    for name, exported in PUBLIC.items():
        module = importlib.import_module(name)
        assert module.__all__ == exported, name
        assert [attr for attr in exported if not hasattr(module, attr)] == [], name
    for name, gone in REMOVED.items():
        owner = pkgutil.resolve_name(name)
        assert [attr for attr in gone if hasattr(owner, attr)] == [], name


def test_stability_space_is_the_spectral_enum():
    assert stability.Space is spectral.Space


def test_no_module_keeps_a_second_formula():
    for info in pkgutil.iter_modules(peakwave.__path__, "peakwave."):
        module = importlib.import_module(info.name)
        assert [a for a in ("phi_center_sq", "dnorm_domega_closed") if hasattr(module, a)] == [], info.name


def test_options_only_tests_set_are_gone():
    assert "output_stride" not in inspect.signature(dynamics.simulate).parameters
    assert "zstar" not in inspect.signature(stability.classify_analytic).parameters
    for classify in (stability.classify_numeric, stability.classify_analytic):
        assert "space" not in inspect.signature(classify).parameters, classify.__name__


def test_defaults_no_caller_omits_are_gone():
    params = {
        "classify_numeric": inspect.signature(stability.classify_numeric).parameters,
        "spectrum_report": inspect.signature(spectral.spectrum_report).parameters,
    }
    required = [("classify_numeric", "grid"), ("spectrum_report", "k"), ("spectrum_report", "sector")]
    assert [(f, a) for f, a in required if params[f][a].default is not inspect.Parameter.empty] == []
    fields = [f for cls in (dynamics.Perturbation, stability.Verdict) for f in dataclasses.fields(cls)]
    assert [f.name for f in fields if f.default is not dataclasses.MISSING] == []


def test_settings_with_one_value_in_use_are_gone():
    # compare reads the default grid, its only one in use, and the command
    # line takes the derivative's default side.
    assert list(inspect.signature(stability.compare).parameters) == ["p"]
    assert not hasattr(cli, "Side")


def test_one_crank_nicolson_kernel_holds_one_set_of_factors():
    p = peakwave.validate_params(1.0, 1.0, -2.0, -0.5)
    op = spectral.discretize_operator(spectral.OperatorKind.FREE_WITH_DELTA, p, spectral.default_grid(p, 1201))
    assert [name for name in vars(dynamics._CrankNicolson) if not name.startswith("__")] == ["step"]
    for half in (True, False):
        assert sorted(vars(dynamics._CrankNicolson(op, 0.01, half))) == ["_band", "_twice", "_ztbsv"]


def test_verdict_has_no_space_field():
    fields = [f.name for f in dataclasses.fields(stability.Verdict)]
    assert fields == ["n_hessian", "p_index", "outcome", "provenance", "note"]
