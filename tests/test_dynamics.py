"""Time stepping: conservation, parity exactness, the defect phase advance,
the kernel-form oracle, and orbital-distance geometry."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import zgttrf, zgttrs

from peakwave import ProfileEvaluator, validate_params
from peakwave.errors import BlowupError, DomainError, GridError
from peakwave import dynamics, spectral, vk
from peakwave.dynamics import FieldState, Perturbation, PerturbationKind, simulate
from peakwave.spectral import GridSpec, OperatorKind

from oracles import cn_linear_step, discrete_charge, discrete_energy, kernel_propagator_apply
from oracles import lapack_eigenvector, nonlinear_phase_step, orbital_distance, strang_step

P = validate_params(1.0, 1.0, -2.0, 1.0)
UNSTABLE = validate_params(1.0, 1.0, -2.0, -0.5)


def make_state(p, n=2001, L=None, samples=None):
    grid = spectral.default_grid(p, n_points=n) if L is None else GridSpec(L, n)
    if samples is None:
        samples = ProfileEvaluator.from_params(p).value(grid.nodes()).astype(complex)
    return FieldState(samples, grid, 0.0, p)


def energy_reference(u):
    """discrete_energy's formula with |.|^2 taken as complex abs, squared."""
    p, h, v = u.params, u.grid.spacing, u.samples
    gradient = float(np.sum(np.abs(np.diff(v)) ** 2)) / h
    mod2 = np.abs(v) ** 2
    quartic = float(np.trapezoid(mod2**2, dx=h))
    sextic = float(np.trapezoid(mod2**3, dx=h))
    center = float(mod2[u.grid.center_index])
    return 0.5 * gradient - p.lambda1 / 4.0 * quartic - p.lambda2 / 6.0 * sextic - p.z / 2.0 * center


def distance_reference(u, p):
    """orbital_distance's formula in complex arithmetic with complex abs."""
    h, v = u.grid.spacing, u.samples
    phi = ProfileEvaluator.from_params(p).value(u.grid.nodes())
    pairing = complex(np.sum(v * phi) * h + np.sum(np.diff(v) * np.diff(phi)) / h)
    w = v - cmath.exp(1j * cmath.phase(pairing)) * phi
    return math.sqrt(float(np.sum(np.abs(w) ** 2)) * h + float(np.sum(np.abs(np.diff(w)) ** 2)) / h)


class TestFieldState:
    def test_length_mismatch(self):
        grid = spectral.default_grid(P, n_points=2001)
        with pytest.raises(DomainError):
            FieldState(np.zeros(5, dtype=complex), grid, 0.0, P)

    def test_nonfinite_rejected(self):
        grid = spectral.default_grid(P, n_points=2001)
        bad = np.zeros(2001, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(DomainError):
            FieldState(bad, grid, 0.0, P)


class TestConservedQuantities:
    def test_zero_field(self):
        u = make_state(P, samples=np.zeros(2001, dtype=complex))
        assert discrete_energy(u) == 0.0
        assert discrete_charge(u) == 0.0

    def test_energy_finite_on_wave(self):
        assert math.isfinite(discrete_energy(make_state(P)))

    def test_quadratic_part_scales_quadratically(self):
        # At tiny amplitude the quartic/sextic terms are negligible and the
        # remaining gradient + defect part is |c|^2-homogeneous.
        grid = spectral.default_grid(P, n_points=2001)
        x = grid.nodes()
        small = 1e-5 * np.exp(-x * x).astype(complex)
        u1 = FieldState(small, grid, 0.0, P)
        u2 = FieldState(2.0 * small, grid, 0.0, P)
        assert discrete_energy(u2) / discrete_energy(u1) == pytest.approx(4.0, rel=1e-8)

    def test_charge_matches_closed_norm(self):
        u = make_state(P, n=4001)
        assert 2.0 * discrete_charge(u) == pytest.approx(
            vk.scan(1.0, 1.0, [P.omega], [P.z])[0].norm_sq, abs=1e-4
        )

    @pytest.mark.parametrize("n", [1201, 2001, 4001])
    @pytest.mark.parametrize("angle", [0.7, 0.3, 1.3, -2.2])
    def test_charge_phase_invariant(self, n, angle):
        # A rotation moves each |u_j|^2 by rounding, so the charge agrees to
        # a few ulps, not bitwise.
        u = make_state(P, n=n)
        rotated = FieldState(u.samples * cmath.exp(1j * angle), u.grid, 0.0, P)
        q = discrete_charge(u)
        assert abs(discrete_charge(rotated) - q) <= 4.0 * 2.0**-52 * q


class TestObservableOracles:
    """The real-arithmetic energy and distance against their complex-abs forms."""

    @pytest.mark.parametrize("p", [P, UNSTABLE], ids=["stable", "unstable"])
    @pytest.mark.parametrize("kind", list(PerturbationKind))
    def test_energy_and_distance_match_complex_forms(self, p, kind):
        grid = spectral.default_grid(p, n_points=1201)
        pert = Perturbation(kind, 0.0 if kind is PerturbationKind.NONE else 1e-2)
        phi = ProfileEvaluator.from_params(p).value(grid.nodes())
        u0 = FieldState(dynamics._initial_state(pert, grid, phi), grid, 0.0, p)
        rotated = FieldState(u0.samples * cmath.exp(0.7j), grid, 0.0, p)
        evolved = simulate(p, pert, 0.5, grid=grid).final
        for u in (u0, rotated, evolved):
            assert discrete_energy(u) == pytest.approx(energy_reference(u), rel=1e-12, abs=0.0)
            assert abs(orbital_distance(u, p) - distance_reference(u, p)) <= 1e-14

    def test_every_weight_on_a_field_that_does_not_decay(self):
        # The ends carry O(1) values, so the trapezoid and mirror weights all
        # show; the x >= 0 half of the even field gives its full-line values.
        grid = spectral.default_grid(P, n_points=1201)
        c = grid.center_index
        v = (1.0 + 0.5j) * np.cos(0.3 * grid.nodes()[c:]) + 0.2j
        u = FieldState(dynamics._unfold_even(v), grid, 0.0, P)
        phi = ProfileEvaluator.from_params(P).value(grid.nodes())
        assert discrete_energy(u) == pytest.approx(energy_reference(u), rel=1e-13, abs=0.0)
        charge = 0.5 * grid.spacing * float(np.sum(np.abs(u.samples) ** 2))
        assert discrete_charge(u) == pytest.approx(charge, rel=1e-13, abs=0.0)
        assert orbital_distance(u, P) == pytest.approx(distance_reference(u, P), rel=1e-13, abs=0.0)
        half = dynamics._Observables(P, grid, phi[c:], half=True)(v)
        assert half == pytest.approx(dynamics._Observables(P, grid, phi)(u.samples), rel=1e-13, abs=0.0)


class TestCnLinearStep:
    def _ground_state(self, n=4001):
        p = validate_params(1.0, 1.0, -2.0, 2.0)
        grid = spectral.default_grid(p, n_points=n)
        op = spectral.discretize_operator(OperatorKind.FREE_WITH_DELTA, p, grid)
        return p, grid, spectral.lowest_eigenvalues(op, 1, math.inf)[0], lapack_eigenvector(op, 0)

    def _phase_after(self, p, grid, vec, t_final, dt):
        u = FieldState(vec.astype(complex), grid, 0.0, p)
        steps = int(round(t_final / dt))
        for _ in range(steps):
            u = cn_linear_step(u, t_final / steps)
        return cmath.phase(complex(np.sum(np.conj(vec) * u.samples)))

    def test_bound_state_phase_advance(self):
        p, grid, lam, vec = self._ground_state()
        t_final = 1.0
        dt = 0.25 * grid.spacing
        phase = self._phase_after(p, grid, vec, t_final, dt)
        expected = p.z**2 / 4.0 * t_final  # e^{+i Z^2 t / 4}
        err = abs((phase - expected + math.pi) % (2.0 * math.pi) - math.pi)
        assert err < 5.0 * (grid.spacing + dt**2)

    def test_phase_error_quadratic_in_dt(self):
        # Against the semi-discrete phase -lam*t, isolating the time error.
        p, grid, lam, vec = self._ground_state(2001)
        t_final = 1.0
        errors = []
        for dt in (0.5 * grid.spacing, 0.25 * grid.spacing):
            phase = self._phase_after(p, grid, vec, t_final, dt)
            expected = -lam * t_final
            errors.append(abs((phase - expected + math.pi) % (2.0 * math.pi) - math.pi))
        assert 3.0 < errors[0] / errors[1] < 5.0

    def test_charge_conserved_per_step(self):
        u = make_state(P)
        q0 = discrete_charge(u)
        u = cn_linear_step(u, 0.2 * u.grid.spacing)
        assert abs(discrete_charge(u) - q0) / q0 < 1e-13

    def test_positive_dt_required(self):
        with pytest.raises(DomainError):
            cn_linear_step(make_state(P), -0.1)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    @pytest.mark.parametrize("step", [cn_linear_step, strang_step])
    def test_nonfinite_dt_rejected(self, step, dt):
        dynamics._stepper.cache_clear()
        with pytest.raises(DomainError, match="dt"):
            step(make_state(P, n=1201), dt)
        assert dynamics._stepper.cache_info().currsize == 0

    @pytest.mark.parametrize("n", [3, 5])
    def test_grid_below_parity_block_minimum_rejected(self, n):
        # Far below the parity blocks' three rows, and far below the
        # resolution bound of the operator the stepper factors.
        with pytest.raises(GridError, match="resolution bound"):
            cn_linear_step(make_state(P, n=n), 0.1)

    def test_smallest_supported_grid_steps(self):
        # n - 1 = 2L/h = 1200 meets the resolution bound at the extent floor.
        u = make_state(P, n=1201)
        q0 = discrete_charge(u)
        assert abs(discrete_charge(cn_linear_step(u, 0.1)) - q0) / q0 < 1e-13

    @pytest.mark.parametrize("data", ["even", "odd", "generic"])
    def test_step_solves_the_crank_nicolson_system(self, data):
        # The step x of u satisfies (1 + i(dt/2)A) x = (1 - i(dt/2)A) u.
        grid = spectral.default_grid(P, n_points=2001)
        apply = spectral.discretize_operator(OperatorKind.FREE_WITH_DELTA, P, grid).apply
        x = grid.nodes()
        rng = np.random.default_rng(12)
        samples = {
            "even": np.exp(-x * x) * (1.0 + 0.5j),
            "odd": x * np.exp(-x * x) * (0.3 - 1.0j),
            "generic": np.exp(-(x - 1.3) ** 2 + 2.0j * x)
            + 1e-3 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)),
        }[data]
        dt = 0.25 * grid.spacing
        out = cn_linear_step(FieldState(samples, grid, 0.0, P), dt).samples
        lhs = out + 0.5j * dt * apply(out)
        rhs = samples - 0.5j * dt * apply(samples)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("z", [1.0, -0.5])
    def test_step_even_is_the_even_half_of_step(self, z):
        p = validate_params(1.0, 1.0, -2.0, z)
        grid = spectral.default_grid(p, n_points=1201)
        x = grid.nodes()
        u = (1.0 - 0.4j) * ProfileEvaluator.from_params(p).value(x) + (0.2 + 0.3j) * np.exp(-x * x)
        assert np.array_equal(u, u[::-1])
        stepper = dynamics._stepper(p, grid, 0.25 * grid.spacing)
        c = grid.center_index
        assert np.array_equal(stepper.step_even(u[c:]), stepper.step(u)[c:])

    def test_real_samples_step_like_complex(self):
        u = make_state(P)
        real = FieldState(u.samples.real.copy(), u.grid, 0.0, P)
        dt = 0.25 * u.grid.spacing
        assert np.array_equal(cn_linear_step(real, dt).samples, cn_linear_step(u, dt).samples)


class PivotedReference:
    """The parity-block stepper on LAPACK's pivoted tridiagonal LU (gttrf/gttrs)."""

    def __init__(self, op, dt):
        c = op.origin_row
        diag, off = op.diagonal, op.offdiagonal
        gamma = 0.5j * dt
        self.c = c
        even_lower = gamma * off[c:]
        even_upper = even_lower.copy()
        even_upper[0] *= 2.0
        odd = gamma * off[c + 1:]
        self.factors = []
        for lower, dd, upper in ((even_lower, diag[c:], even_upper), (odd, diag[c + 1:], odd)):
            *factors, info = zgttrf(lower, 1.0 + gamma * dd, upper)
            assert info == 0
            self.factors.append(factors)

    def interchanges(self) -> int:
        return sum(int(np.count_nonzero(ipiv != np.arange(1, len(ipiv) + 1)))
                   for *_, ipiv in self.factors)

    def step(self, u):
        c = self.c
        even_factors, odd_factors = self.factors
        x_even, _ = zgttrs(*even_factors, u[c:] + u[c::-1])
        x_odd, _ = zgttrs(*odd_factors, u[c + 1:] - u[c - 1::-1])
        out = np.empty_like(u)
        out[c] = x_even[0]
        out[c + 1:] = x_even[1:] + x_odd
        out[:c] = (x_even[1:] - x_odd)[::-1]
        return out - u

    def step_even(self, v):
        x, _ = zgttrs(*self.factors[0], v + v)
        return x - v


# orbit-sim's points: criterion 7's stable and unstable unit points and (2, -1, -0.5, +-1).
ORBIT_POINTS = [(1.0, 1.0, -2.0, 1.0), (1.0, 1.0, -2.0, -0.5), (2.0, -1.0, -0.5, 1.0),
                (2.0, -1.0, -0.5, -1.0)]
# h = 0.05/nu at the extent floor; gttrf interchanges rows here at dt = 100h.
PIVOTING_POINT = (1.0, 1.0, -0.75, 1.0)


class TestUnpivotedFactors:
    """The unpivoted band factors against pivoted and dense references."""

    @staticmethod
    def _operator(p, n):
        return spectral.discretize_operator(OperatorKind.FREE_WITH_DELTA, p,
                                            spectral.default_grid(p, n_points=n))

    @staticmethod
    def _relative(a, b):
        return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

    @pytest.mark.parametrize("params", ORBIT_POINTS)
    def test_orbit_points_match_pivoted_lapack(self, params):
        p = validate_params(*params)
        grid = spectral.default_grid(p, n_points=4001)
        dt = 0.25 * grid.spacing
        op = self._operator(p, 4001)
        stepper, reference = dynamics._ParityCrankNicolson(op, dt), PivotedReference(op, dt)
        phi = ProfileEvaluator.from_params(p).value(grid.nodes())
        c = grid.center_index
        odd = dynamics._initial_state(Perturbation(PerturbationKind.ODD_BUMP, 1e-2), grid, phi)
        assert self._relative(stepper.step(odd), reference.step(odd)) <= 1e-13
        even = dynamics._initial_state(Perturbation(PerturbationKind.EVEN_BUMP, 1e-2), grid, phi)
        v = even[c:]
        assert self._relative(stepper.step_even(v), reference.step_even(v)) <= 1e-13

    def test_matches_dense_solve_where_lapack_interchanges_rows(self):
        p = validate_params(*PIVOTING_POINT)
        grid = spectral.default_grid(p, n_points=1201)
        dt = 100.0 * grid.spacing
        op = self._operator(p, 1201)
        assert PivotedReference(op, dt).interchanges() > 0
        x = grid.nodes()
        rng = np.random.default_rng(17)
        u = (ProfileEvaluator.from_params(p).value(x) + np.exp(-(x - 1.3) ** 2 + 2.0j * x)
             + 1e-3 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)))
        a = np.diag(op.diagonal) + np.diag(op.offdiagonal, 1) + np.diag(op.offdiagonal, -1)
        b = 0.5j * dt * a
        eye = np.eye(grid.n_points)
        dense = np.linalg.solve(eye + b, (eye - b) @ u)
        out = cn_linear_step(FieldState(u, grid, 0.0, p), dt).samples
        assert np.linalg.norm(out - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("params, n, dt_factor", [
        *((params, 4001, 0.25) for params in ORBIT_POINTS),
        (PIVOTING_POINT, 1201, 100.0),
        ((1.0, 1.0, -2.0, -0.5), 1201, 1e4),
    ])
    def test_every_stored_pivot_has_real_part_at_least_one(self, params, n, dt_factor, monkeypatch):
        p = validate_params(*params)
        op = self._operator(p, n)
        pivots = []
        ldu = dynamics._unpivoted_ldu

        def recording_ldu(*block):
            band, d = ldu(*block)
            pivots.append(d)
            return band, d

        monkeypatch.setattr(dynamics, "_unpivoted_ldu", recording_ldu)
        stepper = dynamics._ParityCrankNicolson(op, dt_factor * op.spacing)
        assert len(pivots) == 2
        for d, (_, scale) in zip(pivots, stepper._factors):
            assert float(np.min(d.real)) >= 1.0
            assert np.array_equal(scale, 1.0 / d)


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("step", [cn_linear_step, nonlinear_phase_step, strang_step])
def test_inadmissible_dt_is_a_domain_error_without_warning(step, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="dt"):
            step(make_state(P, n=1201), dt)


class TestNonlinearPhaseStep:
    def test_moduli_preserved_to_machine_precision(self):
        u = make_state(P)
        v = nonlinear_phase_step(u, 0.37)
        rel = np.abs(np.abs(v.samples) - np.abs(u.samples)) / np.abs(u.samples)
        assert float(np.max(rel)) < 4e-16

    def test_unit_modulus_rotation(self):
        # |u| = 1 with unit coefficients rotates by dt*(1 + 1); dt = pi/2 flips sign.
        grid = spectral.default_grid(P, n_points=2001)
        ones = np.ones(grid.n_points, dtype=complex)
        u = FieldState(ones, grid, 0.0, P)
        v = nonlinear_phase_step(u, math.pi / 2.0)
        assert np.allclose(v.samples, -ones, rtol=0, atol=1e-15)

    def test_half_steps_compose_to_rounding(self):
        # Commuting phases: two half rotations equal one full rotation, up to
        # one ulp in the complex exponential per element.
        u = make_state(P)
        ab = nonlinear_phase_step(nonlinear_phase_step(u, 0.11), 0.11)
        full = nonlinear_phase_step(u, 0.22)
        assert np.allclose(ab.samples, full.samples, rtol=1e-15, atol=0.0)


def whole_array_phase(theta):
    """cos + i sin of every angle, with no window."""
    out = np.empty(theta.shape, dtype=complex)
    out.real = np.cos(theta)
    out.imag = np.sin(theta)
    return out


def rotation_angle(v, dt, p):
    mod2 = np.abs(v) ** 2
    return dt * (p.lambda1 * mod2 + p.lambda2 * mod2 * mod2)


class TestWindowedPhase:
    """Trig runs only where |theta| >= 2^-27; elsewhere the phase is (1, theta),
    which must be bitwise what cos and sin return there."""

    GRID = spectral.default_grid(P, n_points=1201)
    X = GRID.nodes()
    DT = 0.25 * GRID.spacing

    @staticmethod
    def assert_bitwise(theta):
        windowed = dynamics._unit_phase(theta)
        assert np.array_equal(windowed.view(np.int64), whole_array_phase(theta).view(np.int64))

    @pytest.mark.parametrize("amplitude", [0.0, 1e-9], ids=["zero", "tiny"])
    def test_zero_and_tiny_fields(self, amplitude):
        theta = rotation_angle(amplitude * np.exp(-self.X**2), self.DT, P)
        assert float(np.max(np.abs(theta))) < dynamics._TRIVIAL_ANGLE
        self.assert_bitwise(theta)

    def test_negative_angles_of_the_2_minus_1_regime(self):
        p = validate_params(2.0, -1.0, -0.5, 1.0)
        theta = rotation_angle(2.0 * np.exp(-self.X**2), self.DT, p)
        assert float(np.min(theta)) < -dynamics._TRIVIAL_ANGLE
        self.assert_bitwise(theta)

    def test_profile_window(self):
        theta = rotation_angle(ProfileEvaluator.from_params(P).value(self.GRID.nodes()), self.DT, P)
        active = np.abs(theta) >= dynamics._TRIVIAL_ANGLE
        assert 0 < np.count_nonzero(active) < len(theta)
        self.assert_bitwise(theta)

    def test_active_everywhere(self):
        theta = rotation_angle(np.ones(self.GRID.n_points), self.DT, P)
        assert float(np.min(np.abs(theta))) >= dynamics._TRIVIAL_ANGLE
        self.assert_bitwise(theta)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
    def test_angles_at_the_bound(self, sign, step):
        bound = dynamics._TRIVIAL_ANGLE
        b = sign * {-1: np.nextafter(bound, 0.0), 0: bound, 1: np.nextafter(bound, 1.0)}[step]
        for theta in ([b], [b, b], [b, 0.25, -0.25, b], [0.25, b, -0.25]):
            self.assert_bitwise(np.array(theta))


class TestStrangStep:
    def test_time_step_cap(self):
        u = make_state(P)
        with pytest.raises(DomainError):
            strang_step(u, u.grid.spacing)

    def test_charge_drift_over_thousand_steps(self):
        u = make_state(P)
        q0 = discrete_charge(u)
        dt = 0.25 * u.grid.spacing
        for _ in range(1000):
            u = strang_step(u, dt)
        assert abs(discrete_charge(u) - q0) / q0 < 1e-11

    def test_energy_drift_quadratic_in_dt(self):
        drifts = []
        for factor in (0.5, 0.25):
            u = make_state(P)
            e0 = discrete_energy(u)
            dt = factor * u.grid.spacing
            for _ in range(int(round(5.0 / dt))):
                u = strang_step(u, dt)
            drifts.append(abs(discrete_energy(u) - e0) / abs(e0))
        assert drifts[0] / drifts[1] > 2.5


class TestKernelPropagator:
    def _left_gaussian(self, n=3001, L=25.0, z=-1.0):
        p = validate_params(1.0, 1.0, -2.0, z)
        grid = GridSpec(L, n)
        x = grid.nodes()
        return FieldState(np.exp(-(x + 6.0) ** 2).astype(complex), grid, 0.0, p)

    def test_zero_time_identity(self):
        psi = self._left_gaussian()
        out = kernel_propagator_apply(psi, 0.0)
        assert np.array_equal(out.samples, psi.samples)

    def test_small_time_close_to_identity(self):
        psi = self._left_gaussian()
        out = kernel_propagator_apply(psi, 1e-4)
        rel = np.linalg.norm(out.samples - psi.samples) / np.linalg.norm(psi.samples)
        assert rel < 1e-2

    def test_positive_strength_rejected(self):
        psi = make_state(P)
        with pytest.raises(DomainError):
            kernel_propagator_apply(psi, 0.5)

    def test_charge_preserved(self):
        psi = self._left_gaussian()
        out = kernel_propagator_apply(psi, 0.5)
        assert abs(discrete_charge(out) - discrete_charge(psi)) / discrete_charge(psi) < 1e-6

    def test_agrees_with_crank_nicolson(self):
        psi = self._left_gaussian()
        t = 0.5
        oracle = kernel_propagator_apply(psi, t)
        u = psi
        steps = int(round(t / (0.25 * psi.grid.spacing)))
        for _ in range(steps):
            u = cn_linear_step(u, t / steps)
        rel = np.linalg.norm(u.samples - oracle.samples) / np.linalg.norm(oracle.samples)
        assert rel < 1e-2


class TestOrbitalDistance:
    @pytest.mark.parametrize("eps", [1e-8, 1e-10])
    def test_small_distance_resolved(self, eps):
        # An odd real perturbation is H^1-orthogonal to the even profile, so
        # the distance of e^{0.3i}(phi + eps*psi) is eps*||psi||_{H^1}.
        grid = spectral.default_grid(P, n_points=4001)
        x = grid.nodes()
        psi = x * np.exp(-x * x)
        h = grid.spacing
        norm = math.sqrt(float(np.sum(psi**2)) * h + float(np.sum(np.diff(psi) ** 2)) / h)
        u = FieldState(cmath.exp(0.3j) * (ProfileEvaluator.from_params(P).value(x) + eps * psi), grid, 0.0, P)
        assert orbital_distance(u, P) == pytest.approx(eps * norm, rel=1e-5)

    def test_orbit_point_is_zero(self):
        u = make_state(P)
        for theta in (0.0, 0.9, -2.2):
            rotated = FieldState(u.samples * cmath.exp(1j * theta), u.grid, 0.0, P)
            assert orbital_distance(rotated, P) < 1e-10

    def test_triangle_bound(self):
        grid = spectral.default_grid(P, n_points=2001)
        x = grid.nodes()
        chi = np.exp(-x * x)
        h = grid.spacing
        h1 = math.sqrt(float(np.sum(chi**2)) * h + float(np.sum(np.diff(chi) ** 2)) / h)
        u = FieldState(ProfileEvaluator.from_params(P).value(x) + 1e-3 * chi / h1, grid, 0.0, P)
        assert orbital_distance(u, P) <= 1e-3 + 1e-12

    def test_phase_invariance(self):
        grid = spectral.default_grid(P, n_points=2001)
        x = grid.nodes()
        u = FieldState((ProfileEvaluator.from_params(P).value(x) + 0.01 * np.exp(-x * x)).astype(complex),
                       grid, 0.0, P)
        base = orbital_distance(u, P)
        rotated = FieldState(u.samples * cmath.exp(1.3j), grid, 0.0, P)
        assert orbital_distance(rotated, P) == pytest.approx(base, rel=1e-12)


class TestSimulate:
    def test_amplitude_guard(self):
        with pytest.raises(DomainError):
            simulate(P, Perturbation(PerturbationKind.EVEN_BUMP, 10.0), 1.0)

    @pytest.mark.parametrize("kind", [PerturbationKind.EVEN_BUMP, PerturbationKind.ODD_BUMP])
    @pytest.mark.parametrize("amplitude", [-10.0, math.nan])
    def test_negative_or_nan_amplitude_guarded(self, kind, amplitude):
        with pytest.raises(DomainError, match="amplitude"):
            simulate(P, Perturbation(kind, amplitude), 0.02)

    @pytest.mark.parametrize("kind", list(PerturbationKind))
    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_nonfinite_amplitude_rejected_for_every_kind(self, kind, amplitude):
        with pytest.raises(DomainError, match="amplitude must be finite"):
            simulate(P, Perturbation(kind, amplitude), 0.02)

    @pytest.mark.parametrize("amplitude", [0.05, -1e-300])
    def test_amplitude_without_bump_rejected(self, amplitude):
        with pytest.raises(DomainError, match="'none' takes amplitude 0"):
            simulate(P, Perturbation(PerturbationKind.NONE, amplitude), 0.02)

    def test_rows_schema_and_growth(self):
        result = simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 1.0,
                          grid=spectral.default_grid(P, n_points=2001))
        assert result.rows[0].time == 0.0
        # dt is a caller contract; the run stops at the nearest whole step.
        dt = 0.25 * result.final.grid.spacing
        assert abs(result.rows[-1].time - 1.0) <= dt
        assert all(r.charge > 0.0 for r in result.rows)

    def test_even_data_stay_exactly_even(self):
        result = simulate(P, Perturbation(PerturbationKind.EVEN_BUMP, 1e-2), 2.0,
                          grid=spectral.default_grid(P, n_points=2001))
        u = result.final.samples
        assert float(np.max(np.abs(u - u[::-1]))) == 0.0

    def test_stable_point_even_bump_bounded_by_five(self):
        result = simulate(P, Perturbation(PerturbationKind.EVEN_BUMP, 1e-2), 10.0,
                          grid=spectral.default_grid(P, n_points=2001))
        d0 = result.rows[0].orbital_distance
        assert max(r.orbital_distance for r in result.rows) < 5.0 * d0

    def test_standing_wave_pointwise_phase_aligned(self):
        # Unperturbed run: u(t) should match e^{-i omega t} phi up to scheme error.
        result = simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 10.0)
        u = result.final
        phi = ProfileEvaluator.from_params(P).value(u.grid.nodes())
        pairing = complex(np.sum(u.samples * phi))
        aligned = u.samples * cmath.exp(-1j * cmath.phase(pairing))
        assert float(np.max(np.abs(aligned - phi))) < 1e-3

    def test_nonfinite_field_raises_blowup(self, nan_on_fifth_step):
        with pytest.raises(BlowupError):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 0.2,
                     grid=spectral.default_grid(P, n_points=1201))

    def test_nonfinite_odd_field_raises_blowup(self, nan_on_fifth_step):
        with pytest.raises(BlowupError):
            simulate(P, Perturbation(PerturbationKind.ODD_BUMP, 1e-2), 0.2,
                     grid=spectral.default_grid(P, n_points=1201))

    @pytest.mark.parametrize("factor", [0.0, -0.25, 0.75, math.inf, math.nan])
    def test_dt_checked_up_front(self, factor):
        grid = spectral.default_grid(P, n_points=1201)
        with pytest.raises(DomainError):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 1.0,
                     dt=factor * grid.spacing, grid=grid)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(DomainError, match="horizon_T"):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), horizon,
                     grid=spectral.default_grid(P, n_points=1201))

    @pytest.mark.parametrize("horizon,dt", [
        (0.1, 1e-300), (1e300, 1e-3), (dynamics.MAX_STEPS * 1e-3 * (1.0 + 1e-9), 1e-3),
    ], ids=["tiny-dt", "huge-horizon", "just-over"])
    def test_step_count_capped_before_sampling(self, horizon, dt, monkeypatch):
        monkeypatch.setattr(dynamics, "ProfileEvaluator", None)
        with pytest.raises(DomainError, match="exceeds the cap"):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), horizon, dt=dt,
                     grid=spectral.default_grid(P, n_points=1201))

    @pytest.mark.parametrize("n", [3, 5])
    def test_grid_below_parity_block_minimum_rejected(self, n):
        # The horizon spans steps of dt = h/4 (h = 21.2 and 10.6), so the grid is what fails.
        with pytest.raises(GridError, match="resolution bound"):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 10.0,
                     grid=spectral.default_grid(P, n_points=n))

    @pytest.mark.parametrize("fraction", [1e-300, 0.1, 0.5])
    def test_horizon_shorter_than_half_a_step_rejected(self, fraction, monkeypatch):
        # round(horizon_T / dt) is 0, and a full step would end past the
        # horizon; checked with the other arguments, before the stepper is built.
        monkeypatch.setattr(dynamics, "_stepper", None)
        grid = spectral.default_grid(P, n_points=1201)
        with pytest.raises(DomainError, match="shorter than half a step"):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), fraction * 0.25 * grid.spacing, grid=grid)

    def test_horizon_of_one_step_ends_on_it(self):
        grid = spectral.default_grid(P, n_points=1201)
        dt = 0.25 * grid.spacing
        result = simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 0.5000001 * dt, grid=grid)
        assert [row.time for row in result.rows] == [0.0, dt]


class TestGridContract:
    """The stepper factors discretize_operator's bare defect, so every entry
    point keeps that operator's resolution and extent bounds."""

    # h = 0.005 resolves omega = -2, but L = 10 < 30/sqrt(2).
    NARROW = GridSpec(10.0, 4001)
    # n = 401 at omega = -9.85 gives h = 0.048 against the bound 0.016.
    STEEP = validate_params(1.0, 1.0, -9.85, 1.0)

    @pytest.mark.parametrize("p, grid, bound", [
        (P, NARROW, "extent bound"),
        (STEEP, spectral.default_grid(STEEP, n_points=401), "resolution bound"),
    ])
    def test_simulate_rejects_grid(self, p, grid, bound):
        with pytest.raises(GridError, match=bound):
            simulate(p, Perturbation(PerturbationKind.NONE, 0.0), 0.05, grid=grid)

    def test_grid_is_checked_before_the_profile_is_sampled(self, monkeypatch):
        monkeypatch.setattr(dynamics, "ProfileEvaluator", None)
        with pytest.raises(GridError, match="extent bound"):
            simulate(P, Perturbation(PerturbationKind.ODD_BUMP, 1e-3), 0.05, grid=self.NARROW)

    def test_odd_bump_on_unresolved_grid_is_a_grid_error(self):
        # n = 3 gives h = 21.2: the odd bump vanishes there, and the grid breaks
        # the resolution bound, which is reported first and with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="resolution bound"):
                simulate(P, Perturbation(PerturbationKind.ODD_BUMP, 1e-3), 10.0,
                         grid=spectral.default_grid(P, n_points=3))

    def test_vanishing_odd_bump_is_a_domain_error(self):
        # h = 50 resolves omega = -1e-6, but x exp(-x^2) is 0 at every node.
        p = validate_params(1.0, 1.0, -1e-6, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="odd bump has zero discrete H\\^1 norm"):
                simulate(p, Perturbation(PerturbationKind.ODD_BUMP, 1e-9), 10.0,
                         grid=spectral.default_grid(p, n_points=1201))

    @pytest.mark.parametrize("step", [cn_linear_step, strang_step])
    def test_steps_reject_narrow_grid(self, step):
        u = make_state(P, n=self.NARROW.n_points, L=self.NARROW.half_width)
        with pytest.raises(GridError, match="extent bound"):
            step(u, 0.25 * u.grid.spacing)


class TestSimulateEquivalence:
    """simulate's raw-array loop against the public one-step functions."""

    GRID = spectral.default_grid(P, n_points=1201)
    PERT = Perturbation(PerturbationKind.ODD_BUMP, 1e-2)
    # simulate records every max(1, steps // 400) steps: every step at 299
    # steps, every 2nd at 900 and every 7th at 2803, which ends off the
    # stride.  Between rows the half rotations merge, so the final state
    # parts from the full-line steps by rounding that grows with the run
    # (8e-14 after 900 steps, 2.6e-12 after 2803): the bound per run.
    FINAL_TOL = {299: 1e-12, 900: 1e-12, 2803: 1e-11}

    def _strang_states(self, pert, dt, steps):
        phi = ProfileEvaluator.from_params(P).value(self.GRID.nodes())
        u = FieldState(dynamics._initial_state(pert, self.GRID, phi), self.GRID, 0.0, P)
        states = [u]
        for _ in range(steps):
            u = strang_step(u, dt)
            states.append(u)
        return states

    # An even bump runs simulate's half-line loop; strang_step steps the full line.
    @pytest.mark.parametrize("kind", [PerturbationKind.ODD_BUMP, PerturbationKind.EVEN_BUMP],
                             ids=["odd", "even"])
    def test_matches_repeated_strang_steps(self, kind):
        pert = Perturbation(kind, 1e-2)
        dt = 0.25 * self.GRID.spacing
        states = self._strang_states(pert, dt, max(self.FINAL_TOL))
        for steps, tol in self.FINAL_TOL.items():
            result = simulate(P, pert, steps * dt, dt, self.GRID)
            every = max(1, steps // 400)
            recorded = [states[k] for k in range(steps + 1) if k % every == 0 or k == steps]
            assert len(result.rows) == len(recorded), steps
            for row, u in zip(result.rows, recorded):
                assert row.time == u.time
                assert row.charge == pytest.approx(discrete_charge(u), rel=1e-12)
                assert row.energy == pytest.approx(discrete_energy(u), rel=1e-12)
            assert result.final.time == states[steps].time
            assert float(np.max(np.abs(result.final.samples - states[steps].samples))) < tol, steps

    def test_even_start_at_unstable_point_stays_bitwise_even(self):
        p = validate_params(1.0, 1.0, -2.0, -0.5)
        result = simulate(p, Perturbation(PerturbationKind.EVEN_BUMP, 1e-2), 3.0,
                          grid=spectral.default_grid(p, n_points=1201))
        u = result.final.samples
        assert np.array_equal(u, u[::-1])

    @staticmethod
    def _even_run(p, monkeypatch):
        """An even run and copies of the x >= 0 halves its rows are computed from."""
        halves = []
        call = dynamics._Observables.__call__
        monkeypatch.setattr(dynamics._Observables, "__call__",
                            lambda self, v: halves.append(v.copy()) or call(self, v))
        grid = spectral.default_grid(p, n_points=1201)
        result = simulate(p, Perturbation(PerturbationKind.EVEN_BUMP, 1e-2), 1.0, grid=grid)
        monkeypatch.undo()
        return grid, result, halves

    def test_every_recorded_state_of_an_even_run_is_bitwise_even(self, monkeypatch):
        # Every row is computed from an x >= 0 half, so every recorded state
        # is even by construction; the final state is the last half unfolded.
        grid, result, halves = self._even_run(UNSTABLE, monkeypatch)
        assert len(halves) == len(result.rows) > 2
        assert all(len(v) == grid.center_index + 1 for v in halves)
        u = result.final.samples
        assert np.array_equal(u, dynamics._unfold_even(halves[-1]))
        assert np.array_equal(u, u[::-1])

    @pytest.mark.parametrize("p", [P, UNSTABLE], ids=["stable", "unstable"])
    def test_even_rows_match_full_line_observables(self, p, monkeypatch):
        grid, result, halves = self._even_run(p, monkeypatch)
        phi = ProfileEvaluator.from_params(p).value(grid.nodes())
        assert len(halves) == len(result.rows)
        for row, v in zip(result.rows, halves):
            u = FieldState(dynamics._unfold_even(v), grid, row.time, p)
            assert row.energy == pytest.approx(discrete_energy(u), rel=1e-13, abs=0.0)
            assert row.charge == pytest.approx(discrete_charge(u), rel=1e-13, abs=0.0)
            assert abs(row.orbital_distance - orbital_distance(u, p, phi)) <= 1e-14

    def test_stepper_factored_once_per_key(self):
        dynamics._stepper.cache_clear()
        dt = 0.25 * self.GRID.spacing
        simulate(P, self.PERT, 10 * dt, dt, self.GRID)
        simulate(P, self.PERT, 20 * dt, dt, self.GRID)
        u = make_state(P, n=self.GRID.n_points)
        strang_step(cn_linear_step(u, dt), dt)
        info = dynamics._stepper.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        cn_linear_step(u, 0.5 * dt)
        assert dynamics._stepper.cache_info().misses == 2
