"""Charge of the standing wave, its frequency derivative, and the slope index.

The squared L^2 norm ("charge") of the profile decides stability through the
sign of -d/domega ||phi||^2: the slope index p is 1 when that quantity is
positive and 0 when it is negative.  For unit cubic and quintic coefficients
the norm has the closed form

    ||phi||^2 = -2*sqrt(3) * [arctan(theta) - arctan(theta * tanh(nu*b))],

with theta(omega) = (sqrt(3) - sqrt(3 - 16*omega)) / (4*nu), nu = sqrt(-omega)
and b the profile shift.  Differentiating in omega (b depends on omega through
the shift equation) gives an explicit two-term expression; both are
cross-checked against adaptive quadrature and finite differences in the test
suite.  For general coefficients only the quadrature path is provided.

A sign change of the slope occurs at a unique defect strength z* ~ -0.8660254;
`find_zstar` locates it by bisection on the minimum slope over a frequency
probe grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import BracketError, DegenerateError, RegimeError, StepError
from .profile import ProfileEvaluator, Regime, WaveParameters, validate_params

__all__ = [
    "ClosedFormCoefficients",
    "VkScanRow",
    "ZSTAR_REFERENCE",
    "norm_sq_closed",
    "norm_sq_quadrature",
    "db_domega",
    "dnorm_domega_closed",
    "dnorm_domega_numeric",
    "slope",
    "p_index",
    "find_zstar",
    "scan",
]

SQRT3 = math.sqrt(3.0)

#: Reference threshold for lambda1 = lambda2 = 1, reproduced by find_zstar.
ZSTAR_REFERENCE = -0.866025403784

#: Default frequency probe grid for threshold detection.
DEFAULT_PROBE_GRID = (-1.5, -2.0, -3.0, -5.0, -10.0, -50.0)


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """Frequency-dependent constants of the unit-coefficient closed forms."""

    theta_w: float   # (sqrt(3) - sqrt(3 - 16*omega)) / (4*sqrt(-omega))
    h_w: float       # 3 - 16*omega
    s_w: float       # 2*sqrt(-omega)
    t_w: float       # h^{3/2} * (2*s*b + sinh(2*s*b))
    b: float         # profile shift

    @classmethod
    def from_omega_z(cls, omega: float, z: float) -> "ClosedFormCoefficients":
        p = validate_params(1.0, 1.0, omega, z)
        b = ProfileEvaluator.from_params(p).shift_b
        h = 3.0 - 16.0 * omega
        s = 2.0 * math.sqrt(-omega)
        return cls(
            theta_w=(SQRT3 - math.sqrt(h)) / (4.0 * math.sqrt(-omega)),
            h_w=h,
            s_w=s,
            t_w=h**1.5 * (2.0 * s * b + math.sinh(2.0 * s * b)),
            b=b,
        )


def norm_sq_closed(omega: float, z: float) -> float:
    """||phi||^2 for lambda1 = lambda2 = 1 in closed form.

    Admissibility of (omega, z) for unit coefficients is validated; the
    closed forms are wired only to this coefficient pair by construction.
    """
    c = ClosedFormCoefficients.from_omega_z(omega, z)
    nu = math.sqrt(-omega)
    return -2.0 * SQRT3 * (
        math.atan(c.theta_w) - math.atan(c.theta_w * math.tanh(nu * c.b))
    )


def _truncation_length(ev: ProfileEvaluator, tail_bound: float = 1e-13) -> float:
    """Half-length L such that the integral of phi^2 beyond L is < tail_bound.

    For x > max(0, -b) the integrand is bounded by
    2*(-omega)/kappa * e^{-2*nu*(x + b)}, so the tail beyond L is below
    (-omega)/(kappa*nu) * e^{-2*nu*(L + b)}.
    """
    nu = ev.root_minus_omega
    prefactor = (-ev.params.omega) / (ev.kappa * nu)
    L = -ev.shift_b + math.log(max(prefactor, 1e-30) / tail_bound) / (2.0 * nu)
    return max(L, 10.0 / nu + abs(ev.shift_b))


def norm_sq_quadrature(p: WaveParameters) -> float:
    """||phi||^2 by adaptive quadrature, valid in both regimes.

    The truncation half-length comes from the explicit exponential tail bound
    of phi^2, so the discarded mass is below 1e-13 for every admissible
    frequency.
    """
    ev = ProfileEvaluator.from_params(p)
    L = _truncation_length(ev)

    def integrand(x: float) -> float:
        v = ev.value(x)
        return float(v * v)

    val, _ = quad(integrand, 0.0, L, epsabs=1e-12, epsrel=1e-12, limit=400)
    return 2.0 * val


def db_domega(omega: float, z: float) -> float:
    """d(shift)/d(omega) at fixed Z for lambda1 = lambda2 = 1, in closed form."""
    c = ClosedFormCoefficients.from_omega_z(omega, z)
    h, s, b = c.h_w, c.s_w, c.b
    nu = math.sqrt(-omega)
    num = (
        4.0 * SQRT3 * nu * h * b * math.cosh(s * b)
        + 2.0 * SQRT3 * (3.0 - 32.0 * omega) * math.sinh(s * b)
        + c.t_w
    )
    den = 8.0 * (-omega) ** 1.5 * math.sqrt(h) * (h + SQRT3 * math.sqrt(h) * math.cosh(s * b))
    return num / den


def dnorm_domega_closed(omega: float, z: float) -> float:
    """d/domega of ||phi||^2 for lambda1 = lambda2 = 1, in closed form.

    Differentiates the arctan expression of `norm_sq_closed` directly:

        d/domega = -2*sqrt(3) * [ theta'/(1 + theta^2)
                                  - (theta'*tau + theta*tau')/(1 + theta^2*tau^2) ],

    with tau = tanh(nu*b), theta'/(1 + theta^2) simplifying to
    sqrt(3)/(nu*h), and tau' = sech^2(nu*b)*(nu*b'(omega) - b/(2*nu)) fed by
    the closed-form `db_domega`.
    """
    c = ClosedFormCoefficients.from_omega_z(omega, z)
    nu = math.sqrt(-omega)
    h, b = c.h_w, c.b
    bp = db_domega(omega, z)
    theta = c.theta_w
    theta_p = (math.sqrt(3.0 * h) - 3.0) / (8.0 * (-omega) ** 1.5 * math.sqrt(h))
    tau = math.tanh(nu * b)
    tau_p = (nu * bp - b / (2.0 * nu)) / math.cosh(nu * b) ** 2
    term_a = SQRT3 / (nu * h)
    term_b = (theta_p * tau + theta * tau_p) / (1.0 + theta * theta * tau * tau)
    return -2.0 * SQRT3 * (term_a - term_b)


def dnorm_domega_numeric(p: WaveParameters, step: float | None = None) -> float:
    """Central finite difference of `norm_sq_quadrature` in omega.

    Defaults to step = 1e-5*|omega| and performs one Richardson halving as a
    sanity check: the halved estimate must agree with the full-step one to
    1e-4 relative, otherwise the step is rejected.
    """
    if step is None:
        step = 1e-5 * abs(p.omega)
    if step <= 0.0:
        raise StepError(f"step must be positive, got {step}")

    def norm_at(omega: float) -> float:
        try:
            q = validate_params(p.lambda1, p.lambda2, omega, p.z)
        except RegimeError as exc:
            raise StepError(
                f"omega = {omega} leaves the admissible regime for step {step}"
            ) from exc
        return norm_sq_quadrature(q)

    def central(s: float) -> float:
        return (norm_at(p.omega + s) - norm_at(p.omega - s)) / (2.0 * s)

    d_full = central(step)
    d_half = central(step / 2.0)
    denom = max(abs(d_half), 1e-300)
    if abs(d_full - d_half) / denom >= 1e-4:
        raise StepError(
            "finite-difference estimates at step and step/2 disagree beyond 1e-4 relative; "
            f"step {step} is unreliable at omega = {p.omega}"
        )
    return d_half


def slope(p: WaveParameters, step: float | None = None) -> float:
    """-d/domega ||phi||^2, closed form when available, quadrature otherwise."""
    if p.lambda1 == 1.0 and p.lambda2 == 1.0:
        return -dnorm_domega_closed(p.omega, p.z)
    return -dnorm_domega_numeric(p, step)


def p_index(p: WaveParameters) -> int:
    """Slope index: 1 when -d/domega ||phi||^2 > 0, else 0."""
    s = slope(p)
    if abs(s) <= 1e-9:
        raise DegenerateError(
            f"slope magnitude {abs(s)} <= 1e-9 at omega={p.omega}, Z={p.z}: too close to the threshold"
        )
    return 1 if s > 0.0 else 0


def find_zstar(
    omega_probe_grid=DEFAULT_PROBE_GRID,
    z_lo: float = -0.95,
    z_hi: float = -0.75,
) -> float:
    """Threshold strength z* where the slope sign flips (unit coefficients).

    Bisects g(z) = min over the probe grid of -d/domega ||phi||^2 down to a
    bracket width of 1e-7.  The minimum over frequencies is the conservative
    detector: the sign is uniform in omega on either side of the threshold.
    """
    probes = tuple(float(w) for w in omega_probe_grid)
    if not probes:
        raise BracketError("probe grid is empty")

    def g(z: float) -> float:
        return min(-dnorm_domega_closed(w, z) for w in probes)

    g_lo, g_hi = g(z_lo), g(z_hi)
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise BracketError(
            f"g({z_lo}) = {g_lo} and g({z_hi}) = {g_hi} have the same sign"
        )
    lo, hi = z_lo, z_hi
    hi_positive = g_hi > 0.0
    while hi - lo > 1e-7:
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
    """Tabulate charge, slope, and slope index over an (omega, z) grid."""
    rows = []
    unit = lambda1 == 1.0 and lambda2 == 1.0
    for z in zs:
        for omega in omegas:
            p = validate_params(lambda1, lambda2, omega, z)
            if unit:
                n = norm_sq_closed(omega, z)
                d = dnorm_domega_closed(omega, z)
            else:
                n = norm_sq_quadrature(p)
                d = dnorm_domega_numeric(p)
            rows.append(VkScanRow(omega, z, n, d, 1 if -d > 0.0 else 0))
    return rows
