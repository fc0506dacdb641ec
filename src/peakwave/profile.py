"""Closed-form peak standing-wave profiles for the cubic-quintic NLS with a
point defect at the origin.

The wave is u(x, t) = e^{-i omega t} phi(x) with a real, even, exponentially
decaying profile.  Away from the defect phi solves

    phi'' + omega*phi + lambda1*phi^3 + lambda2*phi^5 = 0,

and at x = 0 it carries the derivative jump phi'(0+) - phi'(0-) = -Z*phi(0).
The profile is an absolute-value translate of the defect-free solution; the
translation is fixed through the inverse of an odd increasing diffeomorphism
R : R -> (-1, 1) (`_r_raw`), evaluated at Z / (2*sqrt(-omega)).

Two parameter regimes admit such waves: cubic and quintic both focusing
(attractive-attractive), and focusing cubic with defocusing quintic
(attractive-repulsive), the latter on a bounded frequency window.  Every
quantity here is closed form; no peakwave module integrates numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError

__all__ = [
    "Regime",
    "Side",
    "WaveParameters",
    "ProfileEvaluator",
    "validate_params",
]


class Regime(enum.Enum):
    ATTRACTIVE_ATTRACTIVE = "attractive-attractive"
    ATTRACTIVE_REPULSIVE = "attractive-repulsive"


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class WaveParameters:
    """Validated parameter tuple (lambda1, lambda2, omega, z) with its regime."""

    lambda1: float
    lambda2: float
    omega: float
    z: float
    regime: Regime


def validate_params(lambda1: float, lambda2: float, omega: float, z: float) -> WaveParameters:
    """Check the admissibility inequalities and tag the regime.

    Raises :class:`RegimeError` for a non-finite parameter or a non-finite
    kappa^2 = (lambda1/4)^2 - (lambda2/3)*omega (the profile's constants
    would be inf or NaN), or naming the first violated inequality.  All
    inequalities are strict: boundary parameter values are rejected.  Last
    come the points within rounding of an edge: kappa^2 rounded to 0 or below,
    or the shift's tanh(nu*b), as `ProfileEvaluator.from_params` takes it, at +-1.
    """
    lambda1 = float(lambda1)
    lambda2 = float(lambda2)
    omega = float(omega)
    z = float(z)
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2), ("omega", omega), ("Z", z)):
        if not math.isfinite(value):
            raise RegimeError(f"{name} must be finite, got {value}")
    if not lambda1 > 0.0:
        raise RegimeError(f"cubic coefficient must satisfy lambda1 > 0, got {lambda1}")
    if lambda2 == 0.0:
        raise RegimeError(f"quintic coefficient must be nonzero, got {lambda2}")
    if not (-omega > z * z / 4.0):
        raise RegimeError(
            f"-omega > Z^2/4 violated: -omega = {-omega}, Z^2/4 = {z * z / 4.0}"
        )
    kappa_sq = _kappa_sq(lambda1, lambda2, omega)
    if not math.isfinite(kappa_sq):
        raise RegimeError(f"kappa^2 = (lambda1/4)^2 - (lambda2/3)*omega = {kappa_sq} is not finite")
    if lambda2 > 0.0:
        regime = Regime.ATTRACTIVE_ATTRACTIVE
    else:
        regime = Regime.ATTRACTIVE_REPULSIVE
        upper = -3.0 * lambda1 * lambda1 / (16.0 * lambda2)
        if not (-omega < upper):
            raise RegimeError(
                f"-omega < -3*lambda1^2/(16*lambda2) violated: -omega = {-omega}, bound = {upper}"
            )
        z_bound = math.sqrt(3.0) * lambda1 / (2.0 * math.sqrt(-lambda2))
        if not (abs(z) < z_bound):
            raise RegimeError(
                f"|Z| < sqrt(3)*lambda1/(2*sqrt(-lambda2)) violated: |Z| = {abs(z)}, bound = {z_bound}"
            )
    p = WaveParameters(lambda1, lambda2, omega, z, regime)
    if not kappa_sq > 0.0:
        raise RegimeError(f"kappa^2 = {kappa_sq} is not positive: the point rounds onto an edge of the window")
    alpha, kappa, nu = _coefficients(p)
    t = _shift_tanh(z / (2.0 * nu), alpha, kappa)
    if not abs(t) < 1.0:
        raise RegimeError(f"shift tanh(nu*b) = {t} is not in (-1, 1): the point rounds onto an edge of the window")
    return p


def _kappa_sq(lambda1: float, lambda2: float, omega: float) -> float:
    """alpha^2 - beta*omega with alpha = lambda1/4, beta = lambda2/3."""
    alpha = lambda1 / 4.0
    beta = lambda2 / 3.0
    return alpha * alpha - beta * omega


def _coefficients(p: WaveParameters) -> tuple[float, float, float]:
    """(alpha, kappa, nu) with alpha = lambda1/4, beta = lambda2/3,
    kappa = sqrt(alpha^2 - beta*omega), nu = sqrt(-omega)."""
    alpha = p.lambda1 / 4.0
    # kappa^2 is finite, and positive once validate_params has checked it.
    kappa = math.sqrt(_kappa_sq(p.lambda1, p.lambda2, p.omega))
    nu = math.sqrt(-p.omega)
    return alpha, kappa, nu


_ONE_INSIDE = float(np.nextafter(1.0, 0.0))


def _r_raw(arg, alpha: float, kappa: float):
    """R evaluated at hyperbolic argument arg = 2*nu*s, overflow-safe.

    R = kappa*sinh(arg) / (alpha + kappa*cosh(arg)); numerator and denominator
    are rescaled by e^{-|arg|} so large arguments cannot overflow.  The result
    is clamped one ulp inside +-1: the clamp only engages when the true value
    is within an ulp of the boundary, and it keeps the open range (-1, 1) of
    the exact map valid in float semantics (its inverse stays total on outputs).
    """
    arg = np.asarray(arg, dtype=float)
    t = np.abs(arg)
    em = np.exp(-t)
    num = np.sign(arg) * kappa * 0.5 * (1.0 - em * em)
    den = alpha * em + kappa * 0.5 * (1.0 + em * em)
    return np.clip(num / den, -_ONE_INSIDE, _ONE_INSIDE)


def _shift_tanh(y, alpha, kappa, sqrt=math.sqrt):
    # With t = tanh(nu*s) the definition R(s) = y becomes the quadratic
    #   y*(kappa - alpha)*t^2 - 2*kappa*t + y*(alpha + kappa) = 0,
    # whose root in (-1, 1) is, in the cancellation-free form,
    #   t = y*(alpha + kappa) / (kappa + sqrt(kappa^2 - y^2*(kappa^2 - alpha^2))).
    # vk's charge passes complex y and kappa with sqrt = cmath.sqrt; at a real
    # frequency it rounds to the same t that validate_params checked.
    disc = kappa * kappa - y * y * (kappa * kappa - alpha * alpha)
    return y * (alpha + kappa) / (kappa + sqrt(disc))


def _r_inverse_raw(y: float, alpha: float, kappa: float, nu: float) -> float:
    return math.atanh(_shift_tanh(y, alpha, kappa)) / nu


@dataclass(frozen=True)
class ProfileEvaluator:
    """Profile phi, its one-sided derivatives, and the derived constants.

    phi(x) = [alpha/(-omega) + kappa/(-omega) * cosh(2*nu*(|x| + b))]^{-1/2},
    where b = shift_b has the sign of Z.  All evaluations accept scalars or
    numpy arrays and are overflow-safe for arbitrarily large |x|.
    """

    params: WaveParameters
    alpha: float
    kappa: float
    root_minus_omega: float
    shift_b: float

    @classmethod
    def from_params(cls, p: WaveParameters) -> "ProfileEvaluator":
        alpha, kappa, nu = _coefficients(p)
        b = _r_inverse_raw(p.z / (2.0 * nu), alpha, kappa, nu)
        return cls(p, alpha, kappa, nu, b)

    def _arg(self, x):
        return 2.0 * self.root_minus_omega * (np.abs(np.asarray(x, dtype=float)) + self.shift_b)

    def value(self, x):
        """phi(x); even in x, strictly positive, decaying like e^{-nu*|x|}."""
        a = self._arg(x)
        t = np.abs(a)
        em = np.exp(-t)
        phi_sq = (-self.params.omega) * em / (
            self.alpha * em + 0.5 * self.kappa * (1.0 + em * em)
        )
        return np.sqrt(phi_sq)

    def derivative(self, x, side: Side = Side.RIGHT):
        """One-sided derivative; `side` only matters at x = 0."""
        x_arr = np.asarray(x, dtype=float)
        sign = np.sign(x_arr)
        side_sign = 1.0 if side is Side.RIGHT else -1.0
        sign = np.where(x_arr == 0.0, side_sign, sign)
        # -phi'(x)/phi(x) for x > 0, i.e. nu * R(|x| + b).
        slope_factor = self.root_minus_omega * _r_raw(self._arg(x_arr), self.alpha, self.kappa)
        return -sign * slope_factor * self.value(x_arr)
