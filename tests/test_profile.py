"""Profile construction: regime validation, the shift diffeomorphism, and
pointwise verification of the closed form against its defining ODE."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peakwave import (
    DegenerateError,
    DomainError,
    ProfileEvaluator,
    Regime,
    RegimeError,
    Side,
    validate_params,
)
from peakwave import vk

from oracles import jump_defect, ode_residual, phi_center_sq, r_inverse, r_map

AA = validate_params(1.0, 1.0, -1.0, 0.0)
AR = validate_params(2.0, -1.0, -0.5, 1.0)

# Admissible points spanning both regimes, reused across residual/jump tests.
SAMPLE_POINTS = [
    (1.0, 1.0, -1.0, 0.0),
    (1.0, 1.0, -3.0, 2.0),
    (1.0, 1.0, -3.0, -2.0),
    (1.0, 1.0, -2.0, -0.5),
    (1.0, 3.0, -5.0, 1.0),
    (2.0, 0.5, -20.0, -3.0),
    (2.0, -1.0, -0.5, 1.0),
    (2.0, -1.0, -0.5, -1.0),
    (2.0, -1.0, -0.6, 0.3),
    (4.0, -2.0, -1.0, 1.2),
]


def _params(point):
    return validate_params(*point)


class TestValidateParams:
    def test_attractive_attractive(self):
        p = validate_params(1, 1, -1, 0)
        assert p.regime is Regime.ATTRACTIVE_ATTRACTIVE

    def test_attractive_repulsive(self):
        p = validate_params(2, -1, -0.5, 1)
        assert p.regime is Regime.ATTRACTIVE_REPULSIVE

    def test_frequency_bound_rejected(self):
        # -omega = 0.2 <= Z^2/4 = 0.25
        with pytest.raises(RegimeError, match="Z\\^2/4"):
            validate_params(1, 1, -0.2, 1)

    def test_boundary_is_rejected(self):
        with pytest.raises(RegimeError):
            validate_params(1, 1, -0.25, 1.0)  # -omega == Z^2/4 exactly

    def test_negative_cubic_rejected(self):
        with pytest.raises(RegimeError, match="lambda1"):
            validate_params(-1, 1, -1, 0)

    def test_zero_quintic_rejected(self):
        with pytest.raises(RegimeError, match="lambda2|quintic"):
            validate_params(1, 0, -1, 0)

    def test_ar_upper_bound(self):
        # -3*lambda1^2/(16*lambda2) = 0.75 for (2, -1)
        with pytest.raises(RegimeError, match="16"):
            validate_params(2, -1, -0.75, 0.5)
        with pytest.raises(RegimeError):
            validate_params(2, -1, -0.9, 0.5)

    def test_ar_strength_bound(self):
        # |Z| >= sqrt(3)*lambda1/(2*sqrt(-lambda2)) forces Z^2/4 >= the upper
        # frequency bound, so such strengths are always rejected.
        with pytest.raises(RegimeError):
            validate_params(2, -1, -0.74, 1.74)
        with pytest.raises(RegimeError):
            validate_params(2, -1, -0.25, -1.0)  # -omega == Z^2/4 exactly

    @pytest.mark.parametrize("point", [
        (math.inf, 1, -2, 0),
        (1, 1, -math.inf, 0),
        (1, math.inf, -2, 0),
        (1, -math.inf, -0.5, 0),
        (1, 1, -2, math.inf),
        (math.nan, 1, -2, 0),
        (1, math.nan, -2, 0),
        (1, 1, math.nan, 0),
        (1, 1, -2, math.nan),
    ])
    def test_nonfinite_rejected(self, point):
        # inf passes the sign inequalities, so finiteness is checked first.
        with pytest.raises(RegimeError, match="finite"):
            validate_params(*point)

    @pytest.mark.parametrize("point", [
        (1e160, 1, -1, 0.5),
        (1e300, 1, -1, 0.5),
        (1e300, 1e300, -1, 0.5),
        (1e160, -1, -1, 0.5),
    ])
    def test_overflowing_kappa_rejected(self, point):
        # Every parameter is finite and every inequality holds, but
        # kappa^2 = (lambda1/4)^2 - (lambda2/3)*omega is inf, so the profile's
        # kappa would be inf and its shift NaN.
        with pytest.raises(RegimeError, match="kappa"):
            validate_params(*point)


class TestRMap:
    def test_zero(self):
        assert r_map(0.0, AA) == 0.0

    def test_odd(self):
        for s in (0.3, 1.7, 5.0):
            assert r_map(-s, AA) == pytest.approx(-float(r_map(s, AA)), abs=0)

    def test_monotone_approach_to_one(self):
        values = [float(r_map(s, AA)) for s in (2.0, 5.0, 10.0, 40.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert values[-1] > 1.0 - 1e-10

    @given(
        s=st.floats(-8.0, 8.0),
        omega=st.floats(-10.0, -0.3),
        z_frac=st.floats(-0.9, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_oddness_property(self, s, omega, z_frac):
        p = validate_params(1.0, 1.0, omega, z_frac * 2.0 * math.sqrt(-omega))
        y = float(r_map(s, p))
        assert -1.0 < y < 1.0
        assert float(r_map(-s, p)) == pytest.approx(-y, abs=1e-15)


class TestRInverse:
    def test_zero(self):
        assert r_inverse(0.0, AA) == 0.0

    def test_domain_error(self):
        for y in (1.0, -1.0, 1.5):
            with pytest.raises(DomainError):
                r_inverse(y, AA)

    @pytest.mark.parametrize("y", [0.1, -0.1, 0.5, -0.5, 0.9, -0.9])
    def test_roundtrip_forward(self, y):
        assert float(r_map(r_inverse(y, AA), AA)) == pytest.approx(y, abs=1e-12)

    def test_roundtrip_inverse_on_interval(self):
        # Conditioning of the inversion degrades like e^{2*sqrt(-omega)|s|},
        # so the 1e-10 roundtrip on [-10, 10] is asserted at a mild frequency.
        p = validate_params(1.0, 1.0, -0.25, 0.3)
        for s in np.linspace(-10.0, 10.0, 41):
            assert r_inverse(float(r_map(s, p)), p) == pytest.approx(s, abs=1e-10)

    def test_against_bisection_oracle(self):
        # Independent inversion: bisect r_map directly.
        p = validate_params(1.0, 1.0, -3.0, 2.0)
        y = 2.0 / (2.0 * math.sqrt(3.0))
        lo, hi = -30.0, 30.0
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if float(r_map(mid, p)) < y:
                lo = mid
            else:
                hi = mid
        assert r_inverse(y, p) == pytest.approx(0.5 * (lo + hi), abs=1e-11)
        assert float(r_map(r_inverse(y, p), p)) == pytest.approx(y, abs=1e-12)


class TestPhiEval:
    def test_center_value_arithmetic(self):
        # phi(0)^2 = -omega/(alpha + kappa) for Z = 0.
        alpha = 0.25
        kappa = math.sqrt(alpha**2 + 1.0 / 3.0)
        expected = math.sqrt(1.0 / (alpha + kappa))
        assert float(ProfileEvaluator.from_params(AA).value(0.0)) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.06652, abs=1e-5)

    def test_first_integral_at_center(self):
        # Substituting phi(0) into the first integral closes it (phi'(0)=0 at Z=0).
        phi0 = float(ProfileEvaluator.from_params(AA).value(0.0))
        residual = AA.omega * phi0**2 + 0.5 * phi0**4 + (1.0 / 3.0) * phi0**6
        assert abs(residual) < 1e-14

    @pytest.mark.parametrize("point", SAMPLE_POINTS)
    def test_even(self, point):
        p = _params(point)
        x = np.array([0.3, 1.1, 2.7, 6.0])
        ev = ProfileEvaluator.from_params(p)
        assert np.all(ev.value(x) == ev.value(-x))

    def test_z_zero_reduces_to_defect_free_formula(self):
        p = validate_params(1.0, 1.0, -2.0, 0.0)
        alpha, kappa = 0.25, math.sqrt(0.25**2 + 2.0 / 3.0)
        for x in (0.0, 0.7, 2.2):
            direct = math.sqrt(2.0 / (alpha + kappa * math.cosh(2.0 * math.sqrt(2.0) * x)))
            assert float(ProfileEvaluator.from_params(p).value(x)) == pytest.approx(direct, rel=1e-13)

    def test_exponential_decay(self):
        p = validate_params(1.0, 1.0, -1.0, 0.5)
        ev = ProfileEvaluator.from_params(p)
        ratio = float(ev.value(12.0)) / float(ev.value(11.0))
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-2)

    def test_no_overflow_far_out(self):
        assert float(ProfileEvaluator.from_params(AA).value(1e6)) == 0.0


class TestPhiDerivative:
    def test_sides_agree_off_origin(self):
        ev = ProfileEvaluator.from_params(AR)
        for x in (0.5, -1.2, 3.0):
            left = float(ev.derivative(x, Side.LEFT))
            right = float(ev.derivative(x, Side.RIGHT))
            assert left == right

    def test_peak_slope_positive_strength(self):
        p = validate_params(1.0, 1.0, -3.0, 2.0)
        ev = ProfileEvaluator.from_params(p)
        expected = -(p.z / 2.0) * float(ev.value(0.0))
        assert float(ev.derivative(0.0, Side.RIGHT)) == pytest.approx(expected, rel=1e-13)
        assert float(ev.derivative(0.0, Side.RIGHT)) < 0.0

    def test_smooth_maximum_at_zero_strength(self):
        p = validate_params(1.0, 1.0, -2.0, 0.0)
        dphi = float(ProfileEvaluator.from_params(p).derivative(0.0, Side.RIGHT))
        assert dphi == pytest.approx(0.0, abs=1e-15)

    def test_two_hump_shape_negative_strength(self):
        p = validate_params(1.0, 1.0, -3.0, -2.0)
        ev = ProfileEvaluator.from_params(p)
        assert float(ev.derivative(0.0, Side.RIGHT)) > 0.0
        assert ev.shift_b < 0.0
        # interior maxima at |x| = -b: derivative changes sign there
        b = -ev.shift_b
        assert float(ev.derivative(b - 1e-3, Side.RIGHT)) > 0.0
        assert float(ev.derivative(b + 1e-3, Side.RIGHT)) < 0.0

    def test_monotone_decay_positive_strength(self):
        p = validate_params(1.0, 1.0, -2.0, 1.0)
        x = np.linspace(0.05, 8.0, 200)
        values = ProfileEvaluator.from_params(p).value(x)
        assert np.all(np.diff(values) < 0.0)


class TestOdeResidual:
    @pytest.mark.parametrize("point", SAMPLE_POINTS)
    def test_residual_small(self, point):
        p = _params(point)
        nu = math.sqrt(-p.omega)
        for x in (0.7 / nu, -1.3 / nu, 0.1, 3.0 / nu):
            bound = 1e-10 * max(1.0, float(ProfileEvaluator.from_params(p).value(x)))
            assert abs(float(ode_residual(x, p))) < bound

    def test_specific_points(self):
        assert abs(float(ode_residual(0.7, AA))) < 1e-10
        assert abs(float(ode_residual(-1.3, AR))) < 1e-10

    def test_residual_decays(self):
        p = validate_params(1.0, 1.0, -1.0, 0.5)
        assert abs(float(ode_residual(20.0, p))) < 1e-14

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            ode_residual(0.0, AA)


class TestJumpDefect:
    @pytest.mark.parametrize(
        "point",
        [(1.0, 1.0, -3.0, 2.0), (1.0, 1.0, -3.0, -2.0), (2.0, -1.0, -0.5, -1.0)],
    )
    def test_jump_closed(self, point):
        assert abs(jump_defect(_params(point))) < 1e-12

    @pytest.mark.parametrize("point", SAMPLE_POINTS)
    def test_jump_closed_everywhere(self, point):
        assert abs(jump_defect(_params(point))) < 1e-12


class TestFirstIntegral:
    @pytest.mark.parametrize("point", SAMPLE_POINTS)
    def test_first_integral_off_origin(self, point):
        p = _params(point)
        alpha, beta = p.lambda1 / 4.0, p.lambda2 / 3.0
        ev = ProfileEvaluator.from_params(p)
        for x in (0.4, 1.9, -0.9):
            phi = float(ev.value(x))
            dphi = float(ev.derivative(x, Side.RIGHT))
            value = dphi**2 + p.omega * phi**2 + 2.0 * alpha * phi**4 + beta * phi**6
            assert abs(value) < 1e-10


class TestPhiCenterSq:
    """The closed form of phi(0)^2 (an oracle) against the evaluator, which
    `spectral.negative_direction_check` reads it from."""

    def test_matches_direct_evaluation(self):
        phi0 = float(ProfileEvaluator.from_params(AR).value(0.0))
        assert phi_center_sq(AR) == pytest.approx(phi0**2, abs=1e-10)

    @given(l1=st.floats(0.1, 10.0), l2=st.floats(-10.0, -0.1), z_frac=st.floats(-0.999, 0.999),
           omega_frac=st.floats(0.001, 0.999))
    @example(l1=1.0, l2=-3.0, z_frac=0.998046875, omega_frac=0.999)
    @settings(max_examples=200, deadline=None)
    def test_evaluator_matches_closed_form_over_the_window(self, l1, l2, z_frac, omega_frac):
        # Both are O(-3*lambda1/(4*lambda2)), and the closed form holds to rounding
        # there.  The evaluator recovers b = atanh(t)/nu from t = tanh(nu*b), which
        # costs it a relative eps/(1 - |t|) of phi(0)^2 near |t| = 1 (at the example,
        # 1 - |t| = 3.9e-6 and the error is 3.0e-14 against a scale term of 2.5e-14).
        # Over 20000 seeded draws with |z_frac| and omega_frac in [0.99, 0.999] that
        # error peaked at 1.7*eps*phi(0)^2/(1 - |t|); the bound allows 4 of it.
        z = z_frac * math.sqrt(3.0) * l1 / (2.0 * math.sqrt(-l2))
        lo, hi = z * z / 4.0, -3.0 * l1 * l1 / (16.0 * l2)
        p = validate_params(l1, l2, -(lo + omega_frac * (hi - lo)), z)
        evaluator = ProfileEvaluator.from_params(p)
        phi0_sq = float(evaluator.value(0.0)) ** 2
        t = math.tanh(evaluator.root_minus_omega * evaluator.shift_b)
        bound = 1e-13 * (-3.0 * l1 / (4.0 * l2)) + 4.0 * math.ulp(1.0) * phi0_sq / (1.0 - abs(t))
        assert abs(phi0_sq - phi_center_sq(p)) <= bound

    def test_regime_error_outside_ar(self):
        with pytest.raises(RegimeError):
            phi_center_sq(AA)

    def test_root_of_center_polynomial(self):
        # phi(0) must be a zero of Z^2 s^2/8 + omega s^2/2 + l1 s^4/4 + l2 s^6/6.
        p = validate_params(2.0, -1.0, -0.5, 0.5)
        s = math.sqrt(phi_center_sq(p))
        value = (p.z**2 / 8.0 + p.omega / 2.0) * s**2 + p.lambda1 * s**4 / 4.0 + p.lambda2 * s**6 / 6.0
        assert abs(value) < 1e-10

    def test_vanishes_at_frequency_floor(self):
        # As -omega approaches Z^2/4 the center value goes to zero.
        values = [phi_center_sq(validate_params(2.0, -1.0, omega, 1.0))
                  for omega in (-0.30, -0.27, -0.2501)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 4e-4


@st.composite
def edge_points(draw):
    """(lambda1, lambda2, omega, Z) with omega up to 4 ulps outside or 8 inside
    an edge: -omega = Z^2/4 in either regime, or the attractive-repulsive
    upper edge -omega = -3*lambda1^2/(16*lambda2)."""
    repulsive = draw(st.booleans())
    l1 = draw(st.floats(0.1, 10.0))
    l2 = draw(st.floats(0.1, 10.0)) * (-1.0 if repulsive else 1.0)
    z_bound = math.sqrt(3.0) * l1 / (2.0 * math.sqrt(-l2)) if repulsive else 3.0
    z = draw(st.floats(0.05, 0.999)) * z_bound * draw(st.sampled_from([-1.0, 1.0]))
    omega = 3.0 * l1 * l1 / (16.0 * l2) if repulsive and draw(st.booleans()) else -(z * z / 4.0)
    ulps = draw(st.integers(-4, 8))
    for _ in range(abs(ulps)):
        omega = math.nextafter(omega, -math.inf if ulps > 0 else math.inf)
    return l1, l2, omega, z


class TestWindowEdges:
    """Points within a few ulps of an edge of the admissible window.

    There tanh(nu*b) of the shift can round to +-1 (math.atanh then fails),
    kappa^2 can round to 0 (a zero division or a square root of a negative),
    and, one ulp inside the attractive-repulsive upper edge with Z < 0, the
    charge's artanh argument can round to 1.  Each is a RegimeError.
    """

    @pytest.mark.parametrize("point, match", [
        ((1.0, 1.0, -1.0000000000000002, 2.0), "tanh"),
        ((2.0, -1.0, -0.25000000000000006, 1.0), "tanh"),
        ((3.0, -5.0, -0.33749999999999997, 0.0), "kappa"),
        ((3.0, -5.0, -0.33749999999999997, 0.1), "kappa"),
    ])
    def test_validate_params_rejects_rounded_edges(self, point, match):
        with pytest.raises(RegimeError, match=match):
            validate_params(*point)

    def test_charge_rejects_a_rounded_upper_edge(self):
        # One ulp inside the upper edge -omega = 4.569342923446586.
        point = (7.90597882652009, -2.564831349355059, -4.569342923446585, -2.4954940761092166)
        p = validate_params(*point)
        assert float(ProfileEvaluator.from_params(p).value(0.0)) > 0.0
        with pytest.raises(RegimeError, match="artanh"):
            vk.scan(p.lambda1, p.lambda2, [p.omega], [p.z])
        with pytest.raises(RegimeError, match="artanh"):
            vk.p_index(p)

    def test_charge_one_ulp_inside_the_lower_edge_is_not_negative(self):
        # A draw of the property below: the charge once took tanh(nu*b) by a
        # second formula that rounded it to 1 + 4e-16 and the charge to -7.6e-16.
        p = validate_params(0.1, 1.0, -0.09643936157226564, 0.62109375)
        row = vk.scan(p.lambda1, p.lambda2, [p.omega], [p.z])[0]
        assert row.norm_sq >= 0.0 and math.isfinite(row.dnorm_domega)

    @given(edge_points())
    @settings(max_examples=400, deadline=None)
    def test_edge_points_are_rejected_or_finite(self, point):
        try:
            p = validate_params(*point)
        except RegimeError:
            return
        phi0 = float(ProfileEvaluator.from_params(p).value(0.0))
        assert math.isfinite(phi0) and phi0 > 0.0
        try:
            row = vk.scan(p.lambda1, p.lambda2, [p.omega], [p.z])[0]
        except RegimeError as exc:
            assert "artanh" in str(exc)
            return
        except DegenerateError:
            # The draw can hit the slope threshold of a focusing pair itself.
            z_u = p.z * math.sqrt(p.lambda2) / p.lambda1
            assert p.regime is Regime.ATTRACTIVE_ATTRACTIVE and abs(z_u - vk.ZSTAR_REFERENCE) < 1e-6
            return
        # The charge vanishes at the lower edge, so one ulp inside it may round to 0.
        assert math.isfinite(row.norm_sq) and row.norm_sq >= 0.0 and math.isfinite(row.dnorm_domega)


@given(
    omega=st.floats(-20.0, -0.5),
    z_frac=st.floats(-0.95, 0.95),
    x=st.floats(-15.0, 15.0),
)
@settings(max_examples=80, deadline=None)
def test_profile_properties_attractive_attractive(omega, z_frac, x):
    """Positivity, evenness, and the ODE residual over random admissible points."""
    p = validate_params(1.0, 1.0, omega, z_frac * 2.0 * math.sqrt(-omega))
    ev = ProfileEvaluator.from_params(p)
    value = float(ev.value(x))
    assert value > 0.0
    assert float(ev.value(-x)) == value
    if x != 0.0:
        assert abs(float(ode_residual(x, p))) < 1e-10 * max(1.0, value)
    assert abs(jump_defect(p)) < 1e-12
