"""Charge closed forms against quadrature, slope closed form against finite
differences, slope-sign structure, and the threshold search."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from peakwave import ProfileEvaluator, RegimeError, validate_params
from peakwave.errors import BracketError, DegenerateError, DomainError
from peakwave import vk

from oracles import _truncation_length, dnorm_domega_numeric, norm_sq_quadrature


def _fd(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def unit_charge(omega, z):
    """||phi||^2 for lambda1 = lambda2 = 1, as `vk.scan` tabulates it; (omega, z) is validated."""
    return vk.scan(1.0, 1.0, [omega], [z])[0].norm_sq


def _unit_omega(z_u, frac):
    """A frequency of the unit-coefficient box at strength z_u; frac in [0, 1]."""
    lo = max(1.3 * z_u * z_u / 4.0 + 0.2, 1.2)
    return -(lo + frac * (40.0 - lo))


@st.composite
def focusing_points(draw):
    """Focusing-focusing points: the unit box mapped through the exact scaling
    u = A v(Bx, B^2 t), A^2 = l1/l2, B^2 = l1^2/l2."""
    l1 = draw(st.floats(0.2, 5.0))
    l2 = draw(st.floats(0.05, 5.0))
    z_u = draw(st.floats(-1.8, 2.2))
    assume(abs(z_u - vk.ZSTAR_REFERENCE) >= 0.05)
    omega_u = _unit_omega(z_u, draw(st.floats(0.0, 1.0)))
    return validate_params(l1, l2, omega_u * l1 * l1 / l2, z_u * l1 / math.sqrt(l2))


@st.composite
def defocusing_points(draw):
    """Focusing-defocusing points with 5 % margins inside the admissible window."""
    l1 = draw(st.floats(0.5, 4.0))
    l2 = -draw(st.floats(0.2, 3.0))
    z = draw(st.floats(-0.9, 0.9)) * math.sqrt(3.0) * l1 / (2.0 * math.sqrt(-l2))
    lo, hi = z * z / 4.0, -3.0 * l1 * l1 / (16.0 * l2)
    minus_omega = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    return validate_params(l1, l2, -minus_omega, z)


admissible_points = st.one_of(focusing_points(), defocusing_points())


class TestClosedFormCoefficients:
    def test_inadmissible_rejected(self):
        # Closed forms accept only (omega, z) admissible for unit coefficients.
        with pytest.raises(RegimeError):
            unit_charge(-0.5, 2.0)


class TestClosedFormAllCoefficients:
    @given(admissible_points)
    @settings(max_examples=60, deadline=None)
    def test_charge_matches_quadrature(self, p):
        expected = norm_sq_quadrature(p)
        row = vk.scan(p.lambda1, p.lambda2, [p.omega], [p.z])[0]
        assert row.norm_sq == pytest.approx(expected, rel=1e-10)

    @given(admissible_points)
    @settings(max_examples=200, deadline=None)
    def test_charge_is_the_real_part_of_the_complex_step(self, p):
        # scan and p_index read the charge from the complex step the slope takes.
        assert vk._charge_and_slope(p)[0] == vk._charge(p, p.omega).real

    @given(admissible_points)
    @settings(max_examples=40, deadline=None)
    def test_slope_matches_finite_difference(self, p):
        expected = -dnorm_domega_numeric(p)
        assert vk.slope(p) == pytest.approx(expected, rel=1e-6)

    @given(
        l1=st.floats(0.2, 5.0),
        l2=st.floats(0.05, 5.0),
        minus_omega_u=st.floats(1.0, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_slope_sign_flips_at_scaled_threshold(self, l1, l2, minus_omega_u):
        # Z*(l1, l2) = -(sqrt(3)/2) * l1 / sqrt(l2).
        zstar = -(math.sqrt(3.0) / 2.0) * l1 / math.sqrt(l2)
        omega = -minus_omega_u * l1 * l1 / l2
        above = validate_params(l1, l2, omega, zstar * (1.0 - 1e-3))
        below = validate_params(l1, l2, omega, zstar * (1.0 + 1e-3))
        assert vk.slope(above) > 0.0 > vk.slope(below)
        assert vk.p_index(above) == 1 and vk.p_index(below) == 0

    @pytest.mark.parametrize("omega", [-1e-30, -1e-40, -1e-300])
    def test_slope_at_tiny_frequency_matches_central_difference(self, omega):
        # The charge grows like sqrt(-omega) there, so the slope is about 2/sqrt(-omega);
        # a fixed step of 1e-30 is not small against omega.
        p = validate_params(1.0, 1.0, omega, 0.0)
        delta = 1e-4 * abs(omega)
        expected = (unit_charge(omega + delta, 0.0) - unit_charge(omega - delta, 0.0)) / (2.0 * delta)
        assert -vk.slope(p) == pytest.approx(expected, rel=1e-7)

    def test_step_rounding_to_zero_is_degenerate(self):
        # 1e-20*|omega| rounds to 0 below |omega| of about 5e-304; the step 1e-320
        # at omega = -1e-300 is subnormal but exact, and still valid above.
        p = validate_params(1.0, 1.0, -1e-307, 1e-154)
        with pytest.raises(DegenerateError, match="rounds to 0"):
            vk.slope(p)
        with pytest.raises(DegenerateError, match="rounds to 0"):
            vk.scan(1.0, 1.0, [-1e-307], [1e-154])

    def test_threshold_is_root_three_over_two(self):
        assert vk.ZSTAR_REFERENCE == -math.sqrt(3.0) / 2.0
        for omega in (-1.0, -2.0, -10.0, -400.0):
            assert abs(vk.slope(validate_params(1.0, 1.0, omega, vk.ZSTAR_REFERENCE))) < 1e-14


class TestNormSqClosed:
    def test_zero_strength_reduces_to_single_arctan(self):
        # b = 0 at Z = 0, so the second arctan vanishes.
        theta = (math.sqrt(3.0) - math.sqrt(3.0 + 16.0)) / 4.0
        assert unit_charge(-1.0, 0.0) == pytest.approx(
            -2.0 * math.sqrt(3.0) * math.atan(theta), rel=1e-14
        )

    @pytest.mark.parametrize("omega,z", [(-3.0, 2.0), (-3.0, -2.0)])
    def test_matches_quadrature(self, omega, z):
        p = validate_params(1.0, 1.0, omega, z)
        assert unit_charge(omega, z) == pytest.approx(
            norm_sq_quadrature(p), abs=1e-8
        )

    def test_negative_strength_carries_more_mass(self):
        assert unit_charge(-3.0, -2.0) > unit_charge(-3.0, 2.0)

    def test_grid_agreement(self):
        # 6x6 admissible grid, closed vs quadrature to 1e-8.
        for z in (-1.2, -0.7, 0.0, 0.6, 1.4, 2.5):
            for omega in (-1.8, -2.5, -3.5, -6.0, -12.0, -40.0):
                p = validate_params(1.0, 1.0, omega, z)
                assert unit_charge(omega, z) == pytest.approx(
                    norm_sq_quadrature(p), abs=1e-8
                ), (omega, z)

    def test_continuity_across_zero_strength(self):
        for omega in (-1.0, -4.0):
            base = unit_charge(omega, 0.0)
            assert abs(unit_charge(omega, 1e-8) - base) < 1e-6
            assert abs(unit_charge(omega, -1e-8) - base) < 1e-6


class TestNormSqQuadrature:
    def test_tail_truncation_converged(self):
        # Doubling the integration length changes nothing at the 1e-11 level.
        p = validate_params(1.0, 1.0, -2.0, 1.0)
        ev = ProfileEvaluator.from_params(p)

        def integral(L):
            val, _ = quad(lambda x: float(ev.value(x)) ** 2, 0.0, L,
                          epsabs=1e-13, epsrel=1e-13, limit=400)
            return 2.0 * val

        L = _truncation_length(ev)
        assert abs(integral(L) - integral(2.0 * L)) < 1e-11

    def test_ar_regime_positive_finite(self):
        p = validate_params(2.0, -1.0, -0.5, 1.0)
        value = norm_sq_quadrature(p)
        assert math.isfinite(value) and value > 0.0


def unit_slope(omega, z):
    """-d/domega ||phi||^2 for lambda1 = lambda2 = 1; (omega, z) is validated."""
    return vk.slope(validate_params(1.0, 1.0, omega, z))


class TestUnitSlope:
    def test_threshold_sign_flip(self):
        assert unit_slope(-2.0, -0.86) > 0.0   # above the threshold
        assert unit_slope(-2.0, -0.9) < 0.0    # below the threshold

    def test_matches_finite_difference_grid(self):
        for z in (-0.9, -0.5, 0.0, 0.8, 2.0):
            for omega in (-1.5, -2.0, -3.0, -7.0, -20.0):
                fd = _fd(lambda w: unit_charge(w, z), omega, 1e-5 * abs(omega))
                closed = -unit_slope(omega, z)
                assert closed == pytest.approx(fd, rel=1e-6), (omega, z)


class TestDnormDomegaNumeric:
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_ar_slope_positive(self, z):
        p = validate_params(2.0, -1.0, -0.5, z)
        assert -dnorm_domega_numeric(p) > 0.0

    def test_matches_closed_form(self):
        for (omega, z) in [(-2.0, 1.0), (-3.0, -0.5), (-1.5, 0.0)]:
            p = validate_params(1.0, 1.0, omega, z)
            numeric = dnorm_domega_numeric(p)
            closed = -unit_slope(omega, z)
            assert numeric == pytest.approx(closed, rel=1e-5)

    def test_step_leaving_regime_rejected(self):
        p = validate_params(2.0, -1.0, -0.74, 0.5)
        with pytest.raises(DomainError):
            dnorm_domega_numeric(p, step=0.05)


class TestPIndex:
    def test_examples(self):
        assert vk.p_index(validate_params(1.0, 1.0, -2.0, 1.0)) == 1
        assert vk.p_index(validate_params(1.0, 1.0, -2.0, -0.9)) == 0
        assert vk.p_index(validate_params(2.0, -1.0, -0.5, -1.0)) == 1

    def test_nan_slope_is_degenerate(self):
        with pytest.raises(DegenerateError):
            vk._index_of_slope(math.nan, validate_params(1.0, 1.0, -2.0, 1.0), unit_charge(-2.0, 1.0))

    @pytest.mark.parametrize("omega", [-2e-8, -2.0, -2e6, -2e12, -2e16])
    @pytest.mark.parametrize("z_over_nu", [0.5, -0.5, -0.9])
    def test_guard_is_scale_free(self, omega, z_over_nu):
        # For unit coefficients p = 1 exactly when Z > Z*, at every frequency; the
        # slope falls like 1/|omega|, so an absolute guard refused |omega| >~ 1e9.
        z = z_over_nu * math.sqrt(-omega)
        assert vk.p_index(validate_params(1.0, 1.0, omega, z)) == (1 if z > vk.ZSTAR_REFERENCE else 0)

    def test_degenerate_near_threshold(self):
        # A strength within ~1e-10 of the threshold drives the slope under 1e-9.
        zstar = vk.find_zstar()
        p = validate_params(1.0, 1.0, -2.0, zstar)
        with pytest.raises(DegenerateError):
            vk.p_index(p)


class TestSignStructure:
    def test_uniform_sign_above_threshold(self):
        for z in (-0.8, -0.5, 0.0, 1.0, 3.0):
            omegas = np.linspace(-1.1 * max(1.0, z * z / 4.0) - 0.5, -30.0, 50)
            assert all(unit_slope(float(w), z) > 0.0 for w in omegas), z

    def test_uniform_sign_below_threshold(self):
        for z in (-0.9, -1.5):
            omegas = np.linspace(-1.1 * z * z / 4.0 - 0.5, -30.0, 50)
            assert all(unit_slope(float(w), z) < 0.0 for w in omegas), z

    def test_ar_positivity_grid(self):
        for (l1, l2) in ((2.0, -1.0), (4.0, -2.0)):
            upper = -3.0 * l1 * l1 / (16.0 * l2)
            z_bound = math.sqrt(3.0) * l1 / (2.0 * math.sqrt(-l2))
            for z in np.linspace(-0.9 * z_bound, 0.9 * z_bound, 5):
                lo = z * z / 4.0 + 0.08 * upper
                hi = 0.92 * upper
                if lo >= hi:
                    continue
                for omega in -np.linspace(lo, hi, 4):
                    p = validate_params(l1, l2, float(omega), float(z))
                    assert -dnorm_domega_numeric(p) > 0.0, (l1, l2, omega, z)


class TestFindZstar:
    def test_reference_value(self):
        zstar = vk.find_zstar()
        assert abs(zstar - vk.ZSTAR_REFERENCE) < 1e-4

    def test_bracketing_signs(self):
        def g(z):
            return min(unit_slope(w, z) for w in vk.DEFAULT_PROBE_GRID)

        assert g(-0.86602) > 0.0
        assert g(-0.86603) < 0.0

    def test_tight_bracket_consistent(self):
        wide = vk.find_zstar()
        tight = vk.find_zstar(z_lo=-0.87, z_hi=-0.86)
        assert abs(wide - tight) < 1e-6

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            vk.find_zstar(z_lo=-0.5, z_hi=-0.3)

    def test_empty_probe_grid_is_a_bracket_error(self):
        with pytest.raises(BracketError, match="probe grid is empty"):
            vk.find_zstar(())

    @pytest.mark.parametrize("z_lo,z_hi", [(-0.75, -0.95), (-0.8, -0.8), (math.nan, -0.75),
                                           (-0.95, math.nan), (-math.inf, -0.75), (-0.95, math.inf)])
    def test_unordered_or_nonfinite_bracket_rejected_before_evaluation(self, z_lo, z_hi, monkeypatch):
        def evaluated(*args):
            raise AssertionError("slope evaluated")

        monkeypatch.setattr(vk, "slope", evaluated)
        with pytest.raises(DomainError, match="bracket"):
            vk.find_zstar(z_lo=z_lo, z_hi=z_hi)


class TestScan:
    def test_rows_and_index_invariant(self):
        rows = vk.scan(1.0, 1.0, [-2.0, -3.0], [-0.9, 1.0])
        assert len(rows) == 4
        for r in rows:
            assert (r.p_index == 1) == (-r.dnorm_domega > 0.0)

    def test_degenerate_at_threshold(self):
        # |slope| is rounding noise here; p_index refuses these points, and so must scan.
        with pytest.raises(DegenerateError):
            vk.scan(1.0, 1.0, [-6.0, -1.5], [vk.ZSTAR_REFERENCE])

    def test_general_coefficients_use_quadrature(self):
        rows = vk.scan(2.0, -1.0, [-0.5], [1.0])
        assert rows[0].p_index == 1
        assert rows[0].norm_sq == pytest.approx(
            norm_sq_quadrature(validate_params(2.0, -1.0, -0.5, 1.0)), rel=1e-10
        )
