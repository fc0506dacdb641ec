"""Time stepping: conservation, parity exactness, the defect phase advance,
the kernel-form oracle, and orbital-distance geometry."""

import cmath
import math

import numpy as np
import pytest

from peakwave import validate_params
from peakwave.errors import BlowupError, DomainError, GridError, StepError
from peakwave import dynamics, spectral, vk
from peakwave.dynamics import (
    FieldState,
    Perturbation,
    PerturbationKind,
    cn_linear_step,
    discrete_charge,
    discrete_energy,
    kernel_propagator_apply,
    nonlinear_phase_step,
    orbital_distance,
    sampled_profile,
    simulate,
    strang_step,
)
from peakwave.spectral import GridSpec, OperatorKind

P = validate_params(1.0, 1.0, -2.0, 1.0)


def make_state(p, n=2001, L=None, samples=None):
    grid = spectral.default_grid(p, n_points=n) if L is None else GridSpec(L, n)
    if samples is None:
        samples = sampled_profile(p, grid).astype(complex)
    return FieldState(samples, grid, 0.0, p)


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

    def test_even_sector_rejected(self):
        grid = spectral.default_grid(P, n_points=2001).even_half()
        with pytest.raises(DomainError):
            FieldState(np.zeros(grid.n_points, dtype=complex), grid, 0.0, P)


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
            vk.norm_sq_closed(P.omega, P.z), abs=1e-4
        )

    def test_charge_phase_invariant(self):
        u = make_state(P)
        rotated = FieldState(u.samples * cmath.exp(0.7j), u.grid, 0.0, P)
        assert discrete_charge(rotated) == discrete_charge(u)


class TestCnLinearStep:
    def _ground_state(self, n=4001):
        p = validate_params(1.0, 1.0, -2.0, 2.0)
        grid = spectral.default_grid(p, n_points=n)
        op = spectral.discretize_operator(OperatorKind.FREE_WITH_DELTA, p, grid)
        lam, vec = spectral.lowest_eigenpairs(op, 1)[0]
        return p, grid, lam, vec

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
        with pytest.raises(StepError):
            cn_linear_step(make_state(P), -0.1)

    @pytest.mark.parametrize("n", [3, 5])
    def test_grid_below_parity_block_minimum_rejected(self, n):
        with pytest.raises(GridError, match="n_points >= 7"):
            cn_linear_step(make_state(P, n=n, L=21.2), 0.1)

    def test_smallest_supported_grid_steps(self):
        u = make_state(P, n=7, L=21.2)
        q0 = discrete_charge(u)
        assert abs(discrete_charge(cn_linear_step(u, 0.1)) - q0) / q0 < 1e-13

    def test_real_samples_step_like_complex(self):
        u = make_state(P)
        real = FieldState(u.samples.real.copy(), u.grid, 0.0, P)
        dt = 0.25 * u.grid.spacing
        assert np.array_equal(cn_linear_step(real, dt).samples, cn_linear_step(u, dt).samples)


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


class TestStrangStep:
    def test_time_step_cap(self):
        u = make_state(P)
        with pytest.raises(StepError):
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
        u = FieldState(cmath.exp(0.3j) * (sampled_profile(P, grid) + eps * psi), grid, 0.0, P)
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
        u = FieldState(sampled_profile(P, grid) + 1e-3 * chi / h1, grid, 0.0, P)
        assert orbital_distance(u, P) <= 1e-3 + 1e-12

    def test_phase_invariance(self):
        grid = spectral.default_grid(P, n_points=2001)
        x = grid.nodes()
        u = FieldState((sampled_profile(P, grid) + 0.01 * np.exp(-x * x)).astype(complex), grid, 0.0, P)
        base = orbital_distance(u, P)
        rotated = FieldState(u.samples * cmath.exp(1.3j), grid, 0.0, P)
        assert orbital_distance(rotated, P) == pytest.approx(base, rel=1e-12)


class TestSimulate:
    def test_amplitude_guard(self):
        with pytest.raises(DomainError):
            simulate(P, Perturbation(PerturbationKind.EVEN_BUMP, 10.0), 1.0)

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
        phi = sampled_profile(P, u.grid)
        pairing = complex(np.sum(u.samples * phi))
        aligned = u.samples * cmath.exp(-1j * cmath.phase(pairing))
        assert float(np.max(np.abs(aligned - phi))) < 1e-3

    def test_nonfinite_field_raises_blowup(self, nan_on_fifth_step):
        with pytest.raises(BlowupError):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 0.2,
                     grid=spectral.default_grid(P, n_points=501))

    @pytest.mark.parametrize("factor", [0.0, -0.25, 0.75])
    def test_dt_checked_up_front(self, factor):
        grid = spectral.default_grid(P, n_points=501)
        with pytest.raises(StepError):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 1.0,
                     dt=factor * grid.spacing, grid=grid)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(DomainError, match="horizon_T"):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), horizon,
                     grid=spectral.default_grid(P, n_points=201))

    @pytest.mark.parametrize("n", [3, 5])
    def test_grid_below_parity_block_minimum_rejected(self, n):
        with pytest.raises(GridError, match="n_points >= 7"):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 0.1,
                     grid=spectral.default_grid(P, n_points=n))

    @pytest.mark.parametrize("stride", [0, -2])
    def test_output_stride_must_be_at_least_one(self, stride):
        with pytest.raises(DomainError, match="output_stride"):
            simulate(P, Perturbation(PerturbationKind.NONE, 0.0), 0.1,
                     grid=spectral.default_grid(P, n_points=201), output_stride=stride)


class TestSimulateEquivalence:
    """simulate's raw-array loop against the public one-step functions."""

    GRID = spectral.default_grid(P, n_points=1001)
    PERT = Perturbation(PerturbationKind.ODD_BUMP, 1e-2)
    STEPS = 900  # the default stride is STEPS // 400 = 2, so half rotations merge

    def _strang_states(self, dt):
        u = dynamics._initial_state(P, self.PERT, self.GRID, sampled_profile(P, self.GRID))
        states = [u]
        for _ in range(self.STEPS):
            u = strang_step(u, dt)
            states.append(u)
        return states

    @pytest.mark.parametrize("stride", [1, 7, None])
    def test_matches_repeated_strang_steps(self, stride):
        dt = 0.25 * self.GRID.spacing
        states = self._strang_states(dt)
        result = simulate(P, self.PERT, self.STEPS * dt, dt, self.GRID, output_stride=stride)
        every = stride or self.STEPS // 400
        recorded = [states[k] for k in range(self.STEPS + 1) if k % every == 0 or k == self.STEPS]
        assert len(result.rows) == len(recorded)
        for row, u in zip(result.rows, recorded):
            assert row.time == u.time
            assert row.charge == pytest.approx(discrete_charge(u), rel=1e-12)
            assert row.energy == pytest.approx(discrete_energy(u), rel=1e-12)
        assert result.final.time == states[-1].time
        assert float(np.max(np.abs(result.final.samples - states[-1].samples))) < 1e-12

    def test_even_start_at_unstable_point_stays_bitwise_even(self):
        p = validate_params(1.0, 1.0, -2.0, -0.5)
        result = simulate(p, Perturbation(PerturbationKind.EVEN_BUMP, 1e-2), 3.0,
                          grid=spectral.default_grid(p, n_points=1001))
        u = result.final.samples
        assert np.array_equal(u, u[::-1])

    def test_stepper_factored_once_per_key(self):
        dynamics._stepper.cache_clear()
        dt = 0.25 * self.GRID.spacing
        simulate(P, self.PERT, 10 * dt, dt, self.GRID)
        simulate(P, self.PERT, 10 * dt, dt, self.GRID, output_stride=1)
        u = make_state(P, n=self.GRID.n_points)
        strang_step(cn_linear_step(u, dt), dt)
        info = dynamics._stepper.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        cn_linear_step(u, 0.5 * dt)
        assert dynamics._stepper.cache_info().misses == 2
