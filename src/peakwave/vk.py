"""Charge of the standing wave, its frequency derivative, and the slope index.

The squared L^2 norm ("charge") of the profile decides stability through the
sign of -d/domega ||phi||^2: the slope index p is 1 when that quantity is
positive and 0 when it is negative.  Integrating phi^2 with the substitution
u = tanh((|x| + b)*nu) gives the charge in closed form for every admissible
coefficient pair,

    ||phi||^2 = (2/sqrt(beta)) * [arctan(c) - arctan(c*t)]        (lambda2 > 0),
    ||phi||^2 = (2/sqrt(-beta)) * [artanh(c) - artanh(c*t)]       (lambda2 < 0),

with alpha = lambda1/4, beta = lambda2/3, kappa = sqrt(alpha^2 - beta*omega),
nu = sqrt(-omega), c = nu*sqrt(|beta|)/(kappa + alpha) and t = tanh(nu*b),
where b is the profile shift.  t comes from the shift equation in closed form,
so the charge is an analytic function of omega and its derivative is taken by
the complex step Im f(omega + i*h)/h (Squire & Trapp, SIAM Rev. 1998), exact
to rounding with no subtraction.  The step h = 1e-30 shrinks to 1e-20*|omega|
below |omega| = 1e-10, where a fixed step would not be small against omega.
Nothing here integrates numerically, and importing this module loads no scipy
at all; the test suite holds the closed forms to adaptive quadrature and a
Richardson-checked finite difference.

A sign change of the slope occurs for unit coefficients at the defect
strength z* = -sqrt(3)/2; `find_zstar` locates it by bisection on the minimum
`slope` over a frequency probe grid.  The scaling u = A v(Bx, B^2 t) with
A^2 = lambda1/lambda2, B^2 = lambda1^2/lambda2 carries it to
Z*(lambda1, lambda2) = z* * lambda1/sqrt(lambda2) for every focusing pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BracketError, DegenerateError, DomainError, RegimeError
from .profile import Regime, WaveParameters, _shift_tanh, validate_params

__all__ = [
    "VkScanRow",
    "ZSTAR_REFERENCE",
    "slope",
    "p_index",
    "find_zstar",
    "scan",
]

#: Slope threshold for lambda1 = lambda2 = 1, reproduced by find_zstar.
ZSTAR_REFERENCE = -math.sqrt(3.0) / 2.0

#: Default frequency probe grid and strength bracket (z_lo, z_hi) for threshold detection.
DEFAULT_PROBE_GRID = (-1.5, -2.0, -3.0, -5.0, -10.0, -50.0)
DEFAULT_BRACKET = (-0.95, -0.75)

#: Bracket width at which find_zstar's bisection stops.
BISECTION_WIDTH = 1e-7

#: Imaginary frequency step of the complex-step derivative (at most 1e-20*|omega|).
_COMPLEX_STEP = 1e-30


def _charge(p: WaveParameters, omega: complex) -> complex:
    """||phi||^2 at frequency omega for p's coefficients and strength.

    Analytic in omega: a complex omega near the real axis returns the value
    in the real part and omega's imaginary part times the derivative in the
    imaginary part.  The defocusing case uses artanh with sqrt(-beta), so no
    intermediate carries an O(1) imaginary part that would cancel.
    """
    alpha = p.lambda1 / 4.0
    beta = p.lambda2 / 3.0
    root_beta = math.sqrt(abs(beta))
    nu = cmath.sqrt(-omega)
    kappa = cmath.sqrt(alpha * alpha - beta * omega)
    c = nu * root_beta / (kappa + alpha)
    # The shift's tanh(nu*b) by the very formula validate_params checked, so
    # t < 1 and the charge stays positive at points one ulp inside the window.
    t = _shift_tanh(p.z / (2.0 * nu), alpha, kappa, cmath.sqrt)
    # arctan(c) - arctan(c*t) and artanh(c) - artanh(c*t) as one term each
    # (the subtraction formulas hold because c^2*|t| < 1).
    if p.regime is Regime.ATTRACTIVE_ATTRACTIVE:
        return 2.0 / root_beta * cmath.atan(c * (1.0 - t) / (1.0 + c * c * t))
    arg = c * (1.0 - t) / (1.0 - c * c * t)
    if not abs(arg.real) < 1.0:
        raise RegimeError(f"artanh argument {arg.real} of the charge is not in (-1, 1): "
                          "the point rounds onto an edge of the window")
    return 2.0 / root_beta * cmath.atanh(arg)


def _charge_and_slope(p: WaveParameters) -> tuple[float, float]:
    """||phi||^2 and -d/domega ||phi||^2 from one complex step of the charge:
    the real part of the charge at omega + i*step is the charge at omega."""
    step = min(_COMPLEX_STEP, 1e-20 * abs(p.omega))
    if not step > 0.0:
        raise DegenerateError(f"complex step 1e-20*|omega| rounds to 0 at omega={p.omega}")
    value = _charge(p, complex(p.omega, step))
    return value.real, -value.imag / step


def slope(p: WaveParameters) -> float:
    """-d/domega ||phi||^2, by a complex step of min(1e-30, 1e-20*|omega|) of the closed-form charge
    (DegenerateError where the step rounds to 0, below |omega| of about 5e-304)."""
    return _charge_and_slope(p)[1]


def _index_of_slope(s: float, p: WaveParameters, norm_sq: float) -> int:
    """Slope index of slope s at p, whose charge is norm_sq; DegenerateError unless
    |omega*s| > 1e-9*norm_sq (so for NaN too), a bound no rescaling of omega moves."""
    if not abs(p.omega * s) > 1e-9 * norm_sq:
        relative = abs(p.omega * s) / norm_sq if norm_sq > 0.0 else math.nan
        raise DegenerateError(
            f"relative slope |omega * slope| / ||phi||^2 = {relative} <= 1e-9 at omega={p.omega}, "
            f"Z={p.z}: too close to the threshold"
        )
    return 1 if s > 0.0 else 0


def p_index(p: WaveParameters) -> int:
    """Slope index: 1 when -d/domega ||phi||^2 > 0, else 0."""
    norm_sq, s = _charge_and_slope(p)
    return _index_of_slope(s, p, norm_sq)


def find_zstar(omega_probe_grid=DEFAULT_PROBE_GRID, z_lo: float = DEFAULT_BRACKET[0],
               z_hi: float = DEFAULT_BRACKET[1]) -> float:
    """Threshold strength z* where the slope sign flips (unit coefficients).

    Bisects g(z) = min over the probe grid of -d/domega ||phi||^2 down to a
    bracket width of BISECTION_WIDTH.  The minimum over frequencies is the conservative
    detector: the sign is uniform in omega on either side of the threshold.
    DomainError unless finite z_lo < z_hi; BracketError with no sign change.
    """
    if not (math.isfinite(z_lo) and math.isfinite(z_hi) and z_lo < z_hi):
        raise DomainError(f"bracket needs finite z_lo < z_hi, got ({z_lo}, {z_hi})")
    probes = tuple(float(w) for w in omega_probe_grid)
    if not probes:
        raise BracketError("probe grid is empty")

    def g(z: float) -> float:
        return min(slope(validate_params(1.0, 1.0, w, z)) for w in probes)

    g_lo, g_hi = g(z_lo), g(z_hi)
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise BracketError(
            f"g({z_lo}) = {g_lo} and g({z_hi}) = {g_hi} have the same sign"
        )
    lo, hi = z_lo, z_hi
    hi_positive = g_hi > 0.0
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if (g(mid) > 0.0) == hi_positive:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class VkScanRow:
    """One (omega, z) sample of the charge and its slope data."""

    omega: float
    z: float
    norm_sq: float
    dnorm_domega: float
    p_index: int


def scan(lambda1: float, lambda2: float, omegas, zs) -> list[VkScanRow]:
    """Tabulate charge, slope, and slope index over an (omega, z) grid;
    DegenerateError, as in `p_index`, where |omega*slope| <= 1e-9*||phi||^2."""
    rows = []
    for z in zs:
        for omega in omegas:
            p = validate_params(lambda1, lambda2, omega, z)
            norm_sq, s = _charge_and_slope(p)
            rows.append(VkScanRow(omega, z, norm_sq, -s, _index_of_slope(s, p, norm_sq)))
    return rows
