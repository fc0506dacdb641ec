"""Independent oracles for checking the package's fast paths.

`kernel_propagator_apply` is the linear defect flow in the explicit kernel
form of the defect group: free evolution of the field convolved with an
exponential filter, assembled by half-lines.  It is the scattering
decomposition, exact for fields supported left of a repulsive defect, and
shares no code with the Crank-Nicolson stepper it checks.

`even_sector_operator` assembles the even sector directly on the half line
[0, L], closing the flux condition f'(0+) = -(Z/2) f(0) by a ghost point.
It is the reference for the even parity block sliced from the full-line
operator.

`oscillation_counts` gives the negative counts of the parity blocks of L1
and L2 in closed form, by Sturm oscillation of phi' and a Robin comparison at
the defect; it checks `spectral.parity_counts` with no matrix at all.

`negative_direction_window` tests the paper's whole window for
(L1 phi, phi) < 0, including the bounds `validate_params` already enforces,
and takes phi(0)^2 from `phi_center_sq`, the closed form of the
attractive-repulsive center value, not from the profile evaluator.

`norm_sq_quadrature` and `quadratic_form_phi` integrate the charge and the
form (L1 phi, phi) by adaptive quadrature, and `dnorm_domega_numeric` takes
the charge's frequency derivative by a Richardson-checked central difference
of that quadrature.  They check the closed forms of `vk` and the discrete
form of `spectral`; an IntegrationWarning from quad raises QuadratureError
whatever the warning filters.

`lapack_eigenvalues` and `lapack_eigenvector` take the lowest eigenvalues
and one eigenvector of a `TridiagonalOperator` from LAPACK (bisection by
stebz, inverse iteration by stein).  They check the inertia bisection of
`spectral` and the operator itself, through the eigenfunctions the package
never computes.

`r_map` and `r_inverse` expose the shift diffeomorphism of `profile` and its
closed-form inverse, and `ode_residual` and `jump_defect` measure how well the
closed-form profile solves the ODE and the jump condition; `ode_residual`
takes phi'' from `second_derivative`, the closed form differentiated once
more.  The full-line observables `discrete_energy`, `discrete_charge` and
`orbital_distance`, and the one-step functions `cn_linear_step`,
`nonlinear_phase_step` and `strang_step`, apply the private kernels
`dynamics.simulate` runs on (its cached steppers, rotation kernel and
observables kernel) to a `FieldState`.  Each step makes its own rotation,
as each run of `simulate` does, so its work arrays serve that step alone.
The observables take |u|^2 as re^2 + im^2 of the field they are given, where
a row of `simulate` reuses the |u|^2 of the rotation that ends its step, so
they check that reuse.  The steps choose the stepper as `simulate` does:
bitwise mirror-symmetric samples step on their x >= 0 half and are unfolded
after, any others on the full line.
"""

import math
import warnings
from collections.abc import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from peakwave.dynamics import FieldState, _check_dt_cap, _check_positive_dt, _Observables, _Rotation, _stepper
from peakwave.dynamics import _unfold_even
from peakwave.errors import DegenerateError, DomainError, RegimeError
from peakwave.profile import ProfileEvaluator, Regime, Side, WaveParameters, validate_params
from peakwave.profile import _coefficients, _r_inverse_raw, _r_raw
from peakwave.spectral import GridSpec, OperatorKind, TridiagonalOperator

_PAD_FACTOR = 4  # zero padding of the periodic extension, in multiples of the grid


class QuadratureError(Exception):
    """An adaptive quadrature of an oracle did not converge."""


def kernel_propagator_apply(psi: FieldState, t: float) -> FieldState:
    """Linear defect flow via the explicit kernel decomposition (oracle path).

    Right half-line: free evolution of psi convolved with delta + rho, where
    rho(x) = -(Z/2) e^{-Zx/2} on x <= 0.  Left half-line: free evolution of
    psi plus the mirror image of the free evolution of psi * rho.  Valid for
    Z < 0; exact (up to truncation and padding) for fields supported left of
    the defect, which is the regime the decomposition describes.  The free
    group is applied spectrally on a zero-padded periodic extension.
    """
    z = psi.params.z
    if z >= 0.0:
        raise DomainError("the kernel decomposition is stated for Z < 0")
    if t == 0.0:
        return FieldState(psi.samples.copy(), psi.grid, psi.time, psi.params)
    x = psi.grid.nodes()
    h = psi.grid.spacing
    n = psi.grid.n_points
    rho = np.where(x <= 0.0, -z / 2.0 * np.exp(-z / 2.0 * x), 0.0)
    start = (n - 1) // 2
    psi_rho = np.convolve(psi.samples, rho)[start:start + n] * h
    psi_tau = psi.samples + psi_rho

    def free_group(f: np.ndarray) -> np.ndarray:
        n_pad = _PAD_FACTOR * n
        padded = np.zeros(n_pad, dtype=complex)
        s0 = (n_pad - n) // 2
        padded[s0:s0 + n] = f
        k = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=h)
        evolved = np.fft.ifft(np.fft.fft(padded) * np.exp(-1j * t * k * k))
        return evolved[s0:s0 + n]

    right = free_group(psi_tau)
    left = free_group(psi.samples) + free_group(psi_rho)[::-1]
    out = np.where(x >= 0.0, right, left)
    return FieldState(out, psi.grid, psi.time + t, psi.params)


def even_sector_operator(kind: OperatorKind, p, grid: GridSpec) -> TridiagonalOperator:
    """Ghost-point assembly of the even sector on the x >= 0 half of `grid`.

    The half line [0, L] holds grid.center_index + 1 nodes from the defect
    out.  The ghost value f(-h) = f(h) turns the center row into
    (2 f_0 - 2 f_1)/h^2 - (Z/h) f_0; the similarity that makes the matrix
    symmetric scales its first coupling to -sqrt(2)/h^2.  Its bracket is its
    own Gershgorin enclosure, not the line's that the sliced block carries.
    """
    m = grid.center_index + 1
    h = grid.half_width / (m - 1)
    x = h * np.arange(m)
    if kind is OperatorKind.FREE_WITH_DELTA:
        potential = np.zeros_like(x)
    else:
        phi_sq = ProfileEvaluator.from_params(p).value(x) ** 2
        a, b = (3.0, 5.0) if kind is OperatorKind.L1 else (1.0, 1.0)
        potential = -p.omega - a * p.lambda1 * phi_sq - b * p.lambda2 * phi_sq**2
    diag = 2.0 / h**2 + potential
    diag[0] -= p.z / h
    off = np.full(m - 1, -1.0 / h**2)
    off[0] = -math.sqrt(2.0) / h**2
    radius = np.zeros(m)
    radius[:-1] -= off
    radius[1:] -= off
    return TridiagonalOperator(diag, off, h, (float(np.min(diag - radius)), float(np.max(diag + radius))))


def lapack_eigenvalues(op: TridiagonalOperator, k: int) -> list[float]:
    """The k smallest eigenvalues of `op`, ascending, by LAPACK stebz."""
    return eigvalsh_tridiagonal(op.diagonal, op.offdiagonal, select="i", select_range=(0, k - 1)).tolist()


def lapack_eigenvector(op: TridiagonalOperator, index: int) -> np.ndarray:
    """Eigenvector `index` (0 = lowest) of `op` by LAPACK stein, unit in the
    h-weighted norm; its sign is whatever LAPACK returns."""
    _, vecs = eigh_tridiagonal(op.diagonal, op.offdiagonal, select="i", select_range=(index, index))
    return vecs[:, 0] / math.sqrt(op.spacing)


def even_integral(integrand: Callable[[float], float], half_length: float, tol: float) -> float:
    """Twice `quad` over [0, half_length], at absolute and relative `tol`;
    an IntegrationWarning from quad raises QuadratureError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, _ = quad(integrand, 0.0, half_length, epsabs=tol, epsrel=tol, limit=400)
        except IntegrationWarning as exc:
            raise QuadratureError(f"adaptive quadrature did not converge: {exc}") from exc
    return 2.0 * val


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

    return even_integral(integrand, L, 1e-12)


def dnorm_domega_numeric(p: WaveParameters, step: float | None = None) -> float:
    """Central finite difference of `norm_sq_quadrature` in omega.

    Defaults to step = 1e-5*|omega| and performs one Richardson halving as a
    sanity check: the halved estimate must agree with the full-step one to
    1e-4 relative, otherwise the step is rejected.
    """
    if step is None:
        step = 1e-5 * abs(p.omega)
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step}")

    def norm_at(omega: float) -> float:
        try:
            q = validate_params(p.lambda1, p.lambda2, omega, p.z)
        except RegimeError as exc:
            raise DomainError(
                f"omega = {omega} leaves the admissible regime for step {step}"
            ) from exc
        return norm_sq_quadrature(q)

    def central(s: float) -> float:
        return (norm_at(p.omega + s) - norm_at(p.omega - s)) / (2.0 * s)

    d_full = central(step)
    d_half = central(step / 2.0)
    denom = max(abs(d_half), 1e-300)
    if abs(d_full - d_half) / denom >= 1e-4:
        raise DomainError(
            "finite-difference estimates at step and step/2 disagree beyond 1e-4 relative; "
            f"step {step} is unreliable at omega = {p.omega}"
        )
    return d_half


def quadratic_form_phi(p: WaveParameters) -> float:
    """(L1 phi, phi) via its algebraic reduction to -2*lambda1*phi^4 - 4*lambda2*phi^6,
    by adaptive quadrature."""
    ev = ProfileEvaluator.from_params(p)
    nu = ev.root_minus_omega
    L = 40.0 / nu + 2.0 * abs(ev.shift_b)

    def integrand(x: float) -> float:
        v = float(ev.value(x))
        return -2.0 * p.lambda1 * v**4 - 4.0 * p.lambda2 * v**6

    return even_integral(integrand, L, 1e-13)


def phi_center_sq(p: WaveParameters) -> float:
    """Closed-form phi(0)^2 in the attractive-repulsive regime.

    phi(0)^2 solves the quadratic obtained from the first integral combined
    with the derivative jump; the admissible root is

        (-3*lambda1/(4*lambda2)) * (1 - sqrt(1 - (16*lambda2/(3*lambda1^2))*(omega + Z^2/4))).
    """
    if p.regime is not Regime.ATTRACTIVE_REPULSIVE:
        raise RegimeError("phi_center_sq closed form applies to the attractive-repulsive regime; "
                          "use ProfileEvaluator.value(0)**2 otherwise")
    inner = 1.0 - (16.0 * p.lambda2 / (3.0 * p.lambda1**2)) * (p.omega + p.z * p.z / 4.0)
    return (-3.0 * p.lambda1 / (4.0 * p.lambda2)) * (1.0 - math.sqrt(inner))


def negative_direction_window(p: WaveParameters) -> bool:
    """The paper's full window for (L1 phi, phi) < 0, every bound tested, then the
    center-value condition: the reference for `spectral.negative_direction_check`."""
    z_bound = math.sqrt(3.0) * p.lambda1 / (2.0 * math.sqrt(-p.lambda2))
    upper = min(
        -3.0 * p.lambda1**2 / (16.0 * p.lambda2),
        -p.lambda1**2 / (6.0 * p.lambda2) + p.z**2 / 4.0,
    )
    window = (0.0 < p.z < z_bound) and (p.z**2 / 4.0 < -p.omega < upper)
    return window and p.lambda1 / (2.0 * p.lambda2) + phi_center_sq(p) < 0.0


def oscillation_counts(kind: OperatorKind, p: WaveParameters) -> tuple[int, int]:
    """Negative eigenvalues (n_even, n_odd) of L1 or L2 by Sturm oscillation.

    On x > 0 the decaying solution of L1 u = 0 is phi', which vanishes once
    on (0, inf) exactly when Z < 0; the odd block is Dirichlet at 0 and the
    even block Robin, u'(0) = -(Z/2) u(0), whose comparison reduces through
    the first integral and the jump condition to the sign of sign(Z)*D,
    D = lambda1/2 + (2/3) lambda2 phi(0)^2.  So L1 has
    n_odd = [Z < 0] and n_even = [Z < 0] + [sign(Z)*D > 0]; DegenerateError
    at Z = 0 (the translation zero mode) and at D = 0.  L2's decaying
    solution is phi itself, with no zeros and exactly the Robin slope: (0, 0).
    """
    if kind is OperatorKind.L2:
        return 0, 0
    if kind is not OperatorKind.L1:
        raise DomainError(f"oscillation counts are for L1 and L2, not {kind.value}")
    d = p.lambda1 / 2.0 + (2.0 / 3.0) * p.lambda2 * float(ProfileEvaluator.from_params(p).value(0.0)) ** 2
    if p.z == 0.0 or d == 0.0:
        raise DegenerateError(f"oscillation counts need Z != 0 and D != 0, got Z = {p.z}, D = {d}")
    negative = int(p.z < 0.0)
    return negative + int(math.copysign(1.0, p.z) * d > 0.0), negative


def r_map(s, p: WaveParameters):
    """Odd increasing diffeomorphism R -> (-1, 1) that fixes the profile shift."""
    alpha, kappa, nu = _coefficients(p)
    return _r_raw(2.0 * nu * np.asarray(s, dtype=float), alpha, kappa)


def r_inverse(y: float, p: WaveParameters) -> float:
    """Inverse of :func:`r_map`, computed in closed form (no iteration)."""
    y = float(y)
    if not abs(y) < 1.0:
        raise DomainError(f"r_inverse requires |y| < 1, got {y}")
    alpha, kappa, nu = _coefficients(p)
    return _r_inverse_raw(y, alpha, kappa, nu)


def _r_prime_raw(arg, alpha: float, kappa: float, nu: float):
    """dR/ds at hyperbolic argument arg = 2*nu*s, overflow-safe."""
    arg = np.asarray(arg, dtype=float)
    t = np.abs(arg)
    em = np.exp(-t)
    # R'(s) = 2*nu*kappa*(alpha*cosh + kappa) / (alpha + kappa*cosh)^2,
    # with numerator and denominator scaled by e^{-2|arg|}.
    num = 2.0 * nu * kappa * (alpha * 0.5 * (1.0 + em * em) * em + kappa * em * em)
    den = (alpha * em + kappa * 0.5 * (1.0 + em * em)) ** 2
    return num / den


def second_derivative(ev: ProfileEvaluator, x):
    """phi''(x) for x != 0 by differentiating the closed form once more."""
    x_arr = np.asarray(x, dtype=float)
    a = ev._arg(x_arr)
    nu = ev.root_minus_omega
    r = _r_raw(a, ev.alpha, ev.kappa)
    rp = _r_prime_raw(a, ev.alpha, ev.kappa, nu)
    phi = ev.value(x_arr)
    return (-nu * rp + (nu * r) ** 2) * phi


def ode_residual(x: float, p: WaveParameters) -> float:
    """phi'' + omega*phi + lambda1*phi^3 + lambda2*phi^5 at x != 0.

    Vanishes identically for the exact profile; the returned value measures
    only floating-point error of the closed forms.
    """
    if np.any(np.asarray(x) == 0.0):
        raise DomainError("ode_residual is defined off the defect (x != 0)")
    ev = ProfileEvaluator.from_params(p)
    phi = ev.value(x)
    return second_derivative(ev, x) + p.omega * phi + p.lambda1 * phi**3 + p.lambda2 * phi**5


def jump_defect(p: WaveParameters) -> float:
    """phi'(0+) - phi'(0-) + Z*phi(0); zero up to rounding by construction."""
    ev = ProfileEvaluator.from_params(p)
    right = float(ev.derivative(0.0, Side.RIGHT))
    left = float(ev.derivative(0.0, Side.LEFT))
    return right - left + p.z * float(ev.value(0.0))


def _observables(u: FieldState, p: WaveParameters,
                 phi: np.ndarray | None = None) -> tuple[float, float, float]:
    """Energy and charge of u, and its orbital distance to p's profile `phi`
    (sampled on u's grid when not given)."""
    if phi is None:
        phi = ProfileEvaluator.from_params(p).value(u.grid.nodes())
    v = u.samples
    return _Observables(u.params, u.grid, phi)(v, v.real * v.real + v.imag * v.imag)


def discrete_energy(u: FieldState) -> float:
    """Energy with the defect term: (1/2)int|u_x|^2 - (l1/4)int|u|^4
    - (l2/6)int|u|^6 - (Z/2)|u(0)|^2, trapezoidal in space."""
    return _observables(u, u.params)[0]


def discrete_charge(u: FieldState) -> float:
    """Half the squared discrete L^2 norm."""
    return _observables(u, u.params)[1]


def orbital_distance(u: FieldState, p: WaveParameters, phi: np.ndarray | None = None) -> float:
    """inf over theta of the discrete H^1 distance to e^{i theta} phi.

    The minimizing phase is the argument of the H^1 pairing with the (real)
    profile; the distance to that rotation is then taken directly, which
    resolves it down to rounding of the field rather than of its O(1) norm.
    `phi` is the profile sampled on u's grid; it is sampled here when not given.
    """
    return _observables(u, p, phi)[2]


def _linear_step(u: FieldState, v: np.ndarray, dt: float) -> np.ndarray:
    """The Crank-Nicolson step of the complex samples v on u's grid, on the kernel
    `simulate` would choose: a mirror-symmetric v steps on its x >= 0 half,
    unfolded after, any other v on the full line."""
    if not np.array_equal(v, v[::-1]):
        return _stepper(u.params, u.grid, dt, False).step(v)
    return _unfold_even(_stepper(u.params, u.grid, dt, True).step(v[u.grid.center_index:]))


def cn_linear_step(u: FieldState, dt: float) -> FieldState:
    """One Crank-Nicolson step of the linear defect flow i u_t = A u.

    Unitary in the discrete L^2 norm up to solver roundoff, so the charge is
    conserved to better than 1e-13 relative per step.
    """
    _check_positive_dt(dt)
    return FieldState(_linear_step(u, np.asarray(u.samples, dtype=complex), dt), u.grid, u.time + dt, u.params)


def nonlinear_phase_step(u: FieldState, dt: float) -> FieldState:
    """Exact rotation u -> u * exp(i dt (l1|u|^2 + l2|u|^4)); moduli unchanged."""
    _check_positive_dt(dt)
    v = np.array(u.samples, dtype=complex)
    v *= _Rotation(u.params, len(v))(v, dt)
    return FieldState(v, u.grid, u.time, u.params)


def strang_step(u: FieldState, dt: float) -> FieldState:
    """Nonlinear half step, Crank-Nicolson full step, nonlinear half step."""
    _check_dt_cap(dt, u.grid)
    _check_positive_dt(dt)
    v = np.array(u.samples, dtype=complex)
    rotate = _Rotation(u.params, len(v))
    v *= rotate(v, 0.5 * dt)
    v = _linear_step(u, v, dt)
    v *= rotate(v, 0.5 * dt)
    return FieldState(v, u.grid, u.time + dt, u.params)
