"""Acceptance suite: one test per criterion, each printing a pass line with
its measured figures.  Run with `pytest tests/test_acceptance.py -v -s`.

Every tolerance here is fixed, not calibrated: profile residuals at 1e-10,
the defect bound state at 2e-3, Morse counts exactly, the threshold at 1e-4,
slope signs on full grids, classifier agreement everywhere non-degenerate,
and the drift/growth bounds of the time-domain runs.
"""

import math
import time

import numpy as np

from peakwave import ProfileEvaluator, validate_params
from peakwave import dynamics, spectral, stability, vk
from peakwave.dynamics import FieldState, Perturbation, PerturbationKind, simulate
from peakwave.spectral import GridSpec, OperatorKind

from oracles import cn_linear_step, dnorm_domega_numeric, jump_defect, kernel_propagator_apply
from oracles import ode_residual, quadratic_form_phi

# 25 admissible parameter points spanning both regimes.
AA_POINTS = [
    (1.0, 1.0, -1.0, 0.0),
    (1.0, 1.0, -2.0, 1.0),
    (1.0, 1.0, -2.0, -1.0),
    (1.0, 1.0, -3.0, 2.0),
    (1.0, 1.0, -3.0, -2.0),
    (1.0, 1.0, -5.0, 0.5),
    (1.0, 1.0, -10.0, -3.0),
    (1.0, 1.0, -50.0, 2.0),
    (2.0, 1.0, -2.0, 1.0),
    (2.0, 3.0, -4.0, -1.5),
    (1.0, 3.0, -1.5, 0.8),
    (3.0, 2.0, -6.0, 3.0),
    (0.5, 0.5, -1.0, -0.7),
    (5.0, 1.0, -8.0, 2.0),
    (1.0, 0.1, -2.5, -1.8),
]
AR_POINTS = [
    (2.0, -1.0, -0.5, 1.0),
    (2.0, -1.0, -0.5, -1.0),
    (2.0, -1.0, -0.6, 0.3),
    (2.0, -1.0, -0.3, 0.5),
    (2.0, -1.0, -0.7, -0.2),
    (4.0, -2.0, -1.0, 1.2),
    (4.0, -2.0, -0.8, -1.0),
    (3.0, -1.0, -1.2, 0.9),
    (1.0, -0.5, -0.2, 0.4),
    (2.0, -2.0, -0.3, 0.6),
]
ALL_POINTS = AA_POINTS + AR_POINTS


def _report(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {detail}")


def _grid_with_spacing(omega: float, target_h: float) -> GridSpec:
    L = 30.0 / math.sqrt(-omega)
    n = 2 * round(L / target_h) + 1
    return GridSpec(L, n)


def test_criterion_1_profile_correctness():
    start = time.time()
    assert len(ALL_POINTS) == 25
    worst_residual = 0.0
    worst_jump = 0.0
    for point in ALL_POINTS:
        p = validate_params(*point)
        nu = math.sqrt(-p.omega)
        ev = ProfileEvaluator.from_params(p)
        for x in (0.2 / nu, -0.45 / nu, 0.7 / nu, 1.3 / nu, -2.9 / nu, 5.5 / nu, 0.08):
            scaled = abs(float(ode_residual(x, p))) / max(1.0, float(ev.value(x)))
            worst_residual = max(worst_residual, scaled)
            assert scaled < 1e-10, (point, x)
        jump = abs(jump_defect(p))
        worst_jump = max(worst_jump, jump)
        assert jump < 1e-12, point
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, elapsed, f"25 points; max residual {worst_residual:.2e}, max jump defect {worst_jump:.2e}")


def test_criterion_2_delta_bound_state():
    start = time.time()
    p = validate_params(1.0, 1.0, -2.0, 2.0)
    errors = []
    spacings = []
    for target_h in (0.02, 0.01, 5e-3):
        grid = _grid_with_spacing(p.omega, target_h)
        op = spectral.discretize_operator(OperatorKind.FREE_WITH_DELTA, p, grid)
        lam = spectral.lowest_eigenvalues(op, 1, math.inf)[0]
        errors.append(abs(lam + 1.0))
        spacings.append(grid.spacing)
    assert errors[-1] < 2e-3
    slope = float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])
    # Observed rate is ~2 (node-centered lumping superconverges); the
    # criterion's first-order convergence is asserted as a floor.
    assert slope >= 0.8
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(2, elapsed, f"eigenvalue error {errors[-1]:.2e} at h=5e-3; observed order {slope:.2f}")


def test_criterion_3_morse_indices():
    start = time.time()
    l2_grid = _grid_with_spacing(-2.0, 0.01)
    worst_l2 = 0.0
    for z, expected in [(0.5, 1), (1.0, 1), (2.0, 1), (-0.3, 2), (-0.7, 2), (-1.2, 2)]:
        p = validate_params(1.0, 1.0, -2.0, z)
        n_coarse = sum(spectral.parity_counts(OperatorKind.L1, p, spectral.default_grid(p, 2001)))
        n_fine = sum(spectral.parity_counts(OperatorKind.L1, p, spectral.default_grid(p, 4001)))
        assert n_coarse == n_fine == expected, z
        assert sum(spectral.parity_counts(OperatorKind.L2, p, l2_grid)) == 0, z
        l2_blocks = spectral.parity_blocks(spectral.discretize_operator(OperatorKind.L2, p, l2_grid))
        l2_zero = spectral.kernel_residual(OperatorKind.L2, l2_blocks)
        worst_l2 = max(worst_l2, l2_zero)
        assert l2_zero < 5e-4, z
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(3, elapsed, f"n(L1) = 1/1/1/2/2/2, n(L2) = 0; max |lambda_min(L2)| {worst_l2:.2e}")


def test_criterion_4_threshold():
    start = time.time()
    zstar = vk.find_zstar()
    err = abs(zstar + 0.866025403784)
    assert err < 1e-4
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(4, elapsed, f"Z* = {zstar:.9f} (|error| {err:.1e})")


def test_criterion_5_slope_signs():
    start = time.time()
    checked = 0
    for z in np.linspace(-1.55, 1.55, 20):
        width = 0.75 - z * z / 4.0
        lo = z * z / 4.0 + 0.06 * width
        hi = 0.75 - 0.06 * width
        for minus_omega in np.linspace(lo, hi, 20):
            p = validate_params(2.0, -1.0, -float(minus_omega), float(z))
            assert -dnorm_domega_numeric(p) > 0.0, (minus_omega, z)
            checked += 1
    assert checked == 400
    for z, positive in ((-0.8, True), (-0.9, False)):
        for omega in np.linspace(-1.0, -30.0, 50):
            s = vk.slope(validate_params(1.0, 1.0, float(omega), z))
            assert (s > 0.0) is positive, (omega, z)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(5, elapsed, "20x20 focusing-defocusing grid positive; dichotomy at Z=-0.8/-0.9 on 50-point grids")


def _classification_grid_unit():
    zs = [-1.8, -1.4, -1.1, -0.95, -0.6, -0.3, 0.4, 0.9, 1.5, 2.2]
    points = []
    for z in zs:
        lo = max(1.3 * z * z / 4.0 + 0.2, 1.2)
        for minus_omega in np.linspace(lo, 8.0, 10):
            points.append(validate_params(1.0, 1.0, -float(minus_omega), z))
    return points


def _classification_grid_ar():
    # Strengths stay at |Z| <= 1.15: near the corner of the admissible window
    # (|Z| large, frequency near the floor) the humps decouple and the third
    # eigenvalue of L1 genuinely approaches zero (grid-converged ~7e-4 at
    # Z = -1.45), so the numeric kernel certificate needs far finer grids there.
    zs = [0.25, 0.55, 0.85, 1.0, 1.15, -0.25, -0.55, -0.85, -1.0, -1.15]
    points = []
    for z in zs:
        width = 0.75 - z * z / 4.0
        lo = z * z / 4.0 + 0.08 * width
        hi = 0.75 - 0.08 * width
        for minus_omega in np.linspace(lo, hi, 10):
            points.append(validate_params(2.0, -1.0, -float(minus_omega), z))
    return points


def test_criterion_6_classification_agreement():
    start = time.time()
    outcomes = set()
    count = 0
    for p in _classification_grid_unit() + _classification_grid_ar():
        assert stability.compare(p) is True, (p.lambda1, p.lambda2, p.omega, p.z)
        for space, v in stability.classify_analytic(p).items():
            outcomes.add((p.regime.value, p.z > 0.0, p.z > vk.ZSTAR_REFERENCE, space.value, v.outcome.value))
        count += 1
    assert count == 200
    # Every clause of the two classifications is exercised by the grid.
    expected = {
        ("attractive-attractive", True, True, "full", "OrbitallyStable"),
        ("attractive-attractive", True, True, "even", "OrbitallyStable"),
        ("attractive-attractive", False, True, "full", "OrbitallyUnstable"),
        ("attractive-attractive", False, True, "even", "OrbitallyStable"),
        ("attractive-attractive", False, False, "full", "OrbitallyUnstable"),
        ("attractive-attractive", False, False, "even", "OrbitallyUnstable"),
        ("attractive-repulsive", True, True, "full", "OrbitallyStable"),
        ("attractive-repulsive", True, True, "even", "OrbitallyStable"),
        ("attractive-repulsive", False, True, "full", "OrbitallyUnstable"),
        ("attractive-repulsive", False, True, "even", "OrbitallyStable"),
        # The focusing-defocusing table does not involve the threshold:
        # strengths below it classify identically to the rest of Z < 0.
        ("attractive-repulsive", False, False, "full", "OrbitallyUnstable"),
        ("attractive-repulsive", False, False, "even", "OrbitallyStable"),
    }
    assert outcomes == expected
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(6, elapsed, "numeric = analytic at all 200 grid points, both spaces, all clauses covered")


def test_criterion_7_dynamics():
    start = time.time()
    p_stable = validate_params(1.0, 1.0, -2.0, 1.0)
    p_unstable = validate_params(1.0, 1.0, -2.0, -0.5)

    # Conservation over T = 10 at the default grid and step.
    res = simulate(p_stable, Perturbation(PerturbationKind.EVEN_BUMP, 1e-2), 10.0)
    q0, e0 = res.rows[0].charge, res.rows[0].energy
    charge_drift = max(abs(r.charge - q0) / q0 for r in res.rows)
    energy_drift = max(abs(r.energy - e0) / abs(e0) for r in res.rows)
    assert charge_drift < 1e-10
    assert energy_drift < 1e-5

    # Unperturbed wave holds its orbit over T = 20.
    res_hold = simulate(p_stable, Perturbation(PerturbationKind.NONE, 0.0), 20.0)
    hold_max = max(r.orbital_distance for r in res_hold.rows)
    assert hold_max < 5e-3

    # Odd perturbation at the unstable point escapes through the odd mode.
    res_odd = simulate(p_unstable, Perturbation(PerturbationKind.ODD_BUMP, 1e-2), 30.0)
    d0_odd = res_odd.rows[0].orbital_distance
    odd_max = max(r.orbital_distance for r in res_odd.rows)
    assert odd_max > 20.0 * d0_odd

    # Even perturbation stays bounded: the pinned bump carries O(amplitude)
    # charge, so the run settles near a neighboring orbit at distance well
    # below the detachment scale rather than at a fixed multiple of the seed.
    res_even = simulate(p_unstable, Perturbation(PerturbationKind.EVEN_BUMP, 1e-2), 30.0)
    even_max = max(r.orbital_distance for r in res_even.rows)
    assert even_max < 1.0
    assert even_max < odd_max / 4.0

    # Even initial data stay even to roundoff (identically, by block solves).
    u = res_even.final.samples
    parity = float(np.max(np.abs(u - u[::-1])))
    assert parity < 1e-10

    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(
        7, elapsed,
        f"charge drift {charge_drift:.1e}, energy drift {energy_drift:.1e}, "
        f"hold {hold_max:.1e}, odd growth {odd_max / d0_odd:.0f}x, "
        f"even max {even_max:.2f}, parity drift {parity:.1e}",
    )


def test_criterion_8_oracle_agreement():
    start = time.time()
    p = validate_params(1.0, 1.0, -2.0, -1.0)
    t = 0.5

    def relative_difference(n_points: int, dt_factor: float) -> float:
        grid = GridSpec(25.0, n_points)
        x = grid.nodes()
        psi = FieldState(np.exp(-(x + 6.0) ** 2).astype(complex), grid, 0.0, p)
        oracle = kernel_propagator_apply(psi, t)
        u = psi
        steps = int(round(t / (dt_factor * grid.spacing)))
        for _ in range(steps):
            u = cn_linear_step(u, t / steps)
        return float(
            np.linalg.norm(u.samples - oracle.samples) / np.linalg.norm(oracle.samples)
        )

    coarse = relative_difference(3001, 0.25)
    fine = relative_difference(6001, 0.125)
    assert coarse < 1e-2
    assert fine < coarse
    elapsed = time.time() - start
    _report(8, elapsed, f"kernel vs Crank-Nicolson: {coarse:.2e} coarse, {fine:.2e} refined")


def test_criterion_9_quadratic_form_inequalities():
    start = time.time()
    aa_points = [(1.0, 1.0, -2.0, 1.0), (1.0, 1.0, -3.0, 2.0),
                 (1.0, 1.0, -1.5, -0.5), (3.0, 2.0, -2.0, 1.0), (1.0, 1.0, -2.0, -1.0)]
    for point in aa_points:
        assert quadratic_form_phi(validate_params(*point)) < 0.0, point
    ar_points = [(2.0, -1.0, -0.5, 1.0), (2.0, -1.0, -0.6, 0.9), (4.0, -2.0, -1.0, 1.2)]
    for point in ar_points:
        p = validate_params(*point)
        assert spectral.negative_direction_check(p) is True, point
        assert quadratic_form_phi(p) < 0.0, point
    worst = 0.0
    for point in (aa_points[0], ar_points[0]):
        p = validate_params(*point)
        grid = spectral.default_grid(p, 8001)
        q = quadratic_form_phi(p)
        d = spectral.quadratic_form_discrete(p, grid)
        rel = abs(d - q) / abs(q)
        worst = max(worst, rel)
        assert rel < 1e-4, point
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(9, elapsed, f"all forms negative; discrete vs quadrature agreement {worst:.1e}")
