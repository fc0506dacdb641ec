"""Time-domain integration of the defect NLS and its conserved quantities.

The flow i u_t + u_xx + Z delta(x) u + lambda1 |u|^2 u + lambda2 |u|^4 u = 0
is split into an exact pointwise phase rotation for the power nonlinearities
and a Crank-Nicolson step for the linear defect part i u_t = A u, with A the
bare-defect operator of `spectral.discretize_operator`.  Every stepper is
built from that operator, so `simulate`, `strang_step` and `cn_linear_step`
share its grid contract (resolution and extent bounds, GridError otherwise).
Strang composition of the two is second order in time and conserves the
discrete charge to solver roundoff.

The Crank-Nicolson solve is performed on the even/odd parity blocks of the
grid rather than on the full line.  This is not an optimization: an even
field must stay exactly even (the continuum flow preserves parity), and at
spectrally unstable parameters any rounding asymmetry of a generic
tridiagonal solve is amplified exponentially through the odd unstable mode,
destroying the parity of long runs.  Block solves keep the odd component of
an even field identically zero.  That is also why an even field runs on the
even block alone: when the initial samples are bitwise mirror-symmetric,
`simulate` advances only their x >= 0 half (the paper's invariant subspace
H^1_even) and unfolds it to the full line at recorded rows.  Any other field
is advanced on both blocks.

Both kernels are built for speed without giving that up.  Each parity block
of the Crank-Nicolson matrix 1 + B, B = (i dt/2) A, is LU-factored once per
(parameters, grid, dt) and the stepper is cached.  By the Cayley identity
(1 + B)^-1 (1 - B) = 2 (1 + B)^-1 - 1 a step is one back substitution per
block; 1 - B is never applied.  The rotation takes cos and sin of the real
angle, elementwise.  `simulate` runs on raw arrays: between output rows the
closing half rotation of one step and the opening half rotation of the next
are applied as one full rotation, a FieldState is built only for recorded
rows, and the profile for the orbital distance is sampled once per run.
The observables take |u|^2 as re^2 + im^2 with real dot products.
The blow-up guard reads the |u|^2 the rotation already computes and also
trips on NaN and inf, raising BlowupError.  `strang_step`, `cn_linear_step`
and `nonlinear_phase_step` are thin wrappers over the same two kernels.

The explicit kernel form of the defect group (free evolution of the field
convolved with an exponential filter, assembled by half-lines) is provided as
an independent oracle for the linear flow.  It is the scattering
decomposition and is exact for fields supported left of the defect with a
repulsive defect; it is not used in the main time loop.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import BlowupError, DomainError, SolveError, StepError
from .profile import ProfileEvaluator, WaveParameters
from .spectral import (GridSpec, OperatorKind, Sector, TridiagonalOperator, default_grid,
                       discretize_operator)

__all__ = [
    "FieldState",
    "PerturbationKind",
    "Perturbation",
    "SimRow",
    "SimulationResult",
    "discrete_energy",
    "discrete_charge",
    "cn_linear_step",
    "nonlinear_phase_step",
    "strang_step",
    "kernel_propagator_apply",
    "orbital_distance",
    "sampled_profile",
    "simulate",
]


@dataclass(frozen=True, eq=False)
class FieldState:
    """Complex field samples on a full-line grid at one instant."""

    samples: np.ndarray
    grid: GridSpec
    time: float
    params: WaveParameters

    def __post_init__(self):
        if self.grid.sector is not Sector.FULL_LINE:
            raise DomainError("field states live on full-line grids")
        if len(self.samples) != self.grid.n_points:
            raise DomainError(
                f"sample count {len(self.samples)} does not match grid size {self.grid.n_points}"
            )
        if not np.all(np.isfinite(self.samples.view(float))):
            raise DomainError("field samples must be finite")


def discrete_energy(u: FieldState) -> float:
    """Energy with the defect term: (1/2)int|u_x|^2 - (l1/4)int|u|^4
    - (l2/6)int|u|^6 - (Z/2)|u(0)|^2, trapezoidal in space."""
    p = u.params
    h = u.grid.spacing
    re, im = u.samples.real, u.samples.imag
    d_re, d_im = np.diff(re), np.diff(im)
    gradient = float(d_re @ d_re + d_im @ d_im) / h
    mod2 = re * re
    mod2 += im * im
    quartic = _trapezoid_dot(mod2, mod2, h)
    sextic = _trapezoid_dot(mod2 * mod2, mod2, h)
    center = float(mod2[u.grid.center_index])
    return 0.5 * gradient - p.lambda1 / 4.0 * quartic - p.lambda2 / 6.0 * sextic - p.z / 2.0 * center


def _trapezoid_dot(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """Trapezoidal integral of the product a*b of two real sample vectors."""
    return h * (float(a @ b) - 0.5 * float(a[0] * b[0] + a[-1] * b[-1]))


def discrete_charge(u: FieldState) -> float:
    """Half the squared discrete L^2 norm."""
    return 0.5 * u.grid.spacing * float(np.sum(np.abs(u.samples) ** 2))


class _ParityCrankNicolson:
    """Cayley-transform stepper for i u_t = A u on the even/odd parity blocks of A.

    A is a mirror-symmetric full-line tridiagonal operator.  With
    B = (i dt/2) A the step is (1 + B)^-1 (1 - B) u = 2 (1 + B)^-1 u - u, so
    only the LU factors of each block of 1 + B are kept (LAPACK gttrf, formed
    once here).  A step back-substitutes (gttrs) the doubled even and odd
    parts of u, reassembles the full line and subtracts u.  The odd part
    of an even field is zero, so `step_even` advances such a field on the
    even block alone, given and returned as its x >= 0 half.
    """

    def __init__(self, op: TridiagonalOperator, dt: float):
        c = op.grid.center_index
        diag, off = op.diagonal, op.offdiagonal
        gamma = 0.5j * dt
        self._c = c
        # Even block: v_j = u_{c+j}, j = 0..c; the center row couples twice
        # to its single distinct neighbor.  Odd block: v_j = u_{c+j}, j >= 1.
        even_lower = gamma * off[c:]
        even_upper = even_lower.copy()
        even_upper[0] *= 2.0
        odd = gamma * off[c + 1:]
        self._factors = []
        for lower, dd, upper in ((even_lower, diag[c:], even_upper), (odd, diag[c + 1:], odd)):
            *factors, info = zgttrf(lower, 1.0 + gamma * dd, upper)
            if info != 0:  # pragma: no cover - 1 + i(dt/2)A is nonsingular for real dt
                raise SolveError("Crank-Nicolson tridiagonal factorization failed")
            self._factors.append(factors)

    def step(self, u: np.ndarray) -> np.ndarray:
        c = self._c
        even_factors, odd_factors = self._factors
        x_even, _ = zgttrs(*even_factors, u[c:] + u[c::-1], overwrite_b=1)
        x_odd, _ = zgttrs(*odd_factors, u[c + 1:] - u[c - 1::-1], overwrite_b=1)
        out = np.empty_like(u)
        out[c] = x_even[0]
        out[c + 1:] = x_even[1:] + x_odd
        out[:c] = (x_even[1:] - x_odd)[::-1]
        out -= u
        return out

    def step_even(self, v: np.ndarray) -> np.ndarray:
        """`step` of the even field whose x >= 0 half is v, as its x >= 0 half."""
        x, _ = zgttrs(*self._factors[0], v + v, overwrite_b=1)
        x -= v
        return x


def _unfold_even(v: np.ndarray) -> np.ndarray:
    """The full-line samples of the even field whose x >= 0 half is v."""
    return np.concatenate((v[:0:-1], v))


@functools.lru_cache(maxsize=16)
def _stepper(p: WaveParameters, grid: GridSpec, dt: float) -> _ParityCrankNicolson:
    return _ParityCrankNicolson(discretize_operator(OperatorKind.FREE_WITH_DELTA, p, grid), dt)


def _rotate(v: np.ndarray, dt: float, p: WaveParameters) -> np.ndarray:
    """Rotate v in place by exp(i dt (l1|v|^2 + l2|v|^4)); returns |v|^2.

    The phase is written as cos + i sin of a real angle rather than a complex
    exponential.  Elementwise, so it never mixes parity.
    """
    re, im = v.real, v.imag
    mod2 = re * re
    mod2 += im * im
    theta = mod2 * mod2
    theta *= p.lambda2
    theta += p.lambda1 * mod2
    theta *= dt
    phase = np.empty_like(v)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    v *= phase
    return mod2


def _check_positive_dt(dt: float) -> None:
    if not dt > 0.0:
        raise StepError(f"dt must be positive, got {dt}")


def _check_dt_cap(dt: float, grid: GridSpec) -> None:
    if dt > 0.5 * grid.spacing:
        raise StepError(f"dt = {dt} exceeds the stability/accuracy cap 0.5*h = {0.5 * grid.spacing}")


def cn_linear_step(u: FieldState, dt: float) -> FieldState:
    """One Crank-Nicolson step of the linear defect flow i u_t = A u.

    Unitary in the discrete L^2 norm up to solver roundoff, so the charge is
    conserved to better than 1e-13 relative per step.
    """
    _check_positive_dt(dt)
    stepper = _stepper(u.params, u.grid, dt)
    return FieldState(stepper.step(np.asarray(u.samples, dtype=complex)), u.grid, u.time + dt, u.params)


def nonlinear_phase_step(u: FieldState, dt: float) -> FieldState:
    """Exact rotation u -> u * exp(i dt (l1|u|^2 + l2|u|^4)); moduli unchanged."""
    v = np.array(u.samples, dtype=complex)
    _rotate(v, dt, u.params)
    return FieldState(v, u.grid, u.time, u.params)


def strang_step(u: FieldState, dt: float) -> FieldState:
    """Nonlinear half step, Crank-Nicolson full step, nonlinear half step."""
    _check_dt_cap(dt, u.grid)
    _check_positive_dt(dt)
    v = np.array(u.samples, dtype=complex)
    _rotate(v, 0.5 * dt, u.params)
    v = _stepper(u.params, u.grid, dt).step(v)
    _rotate(v, 0.5 * dt, u.params)
    return FieldState(v, u.grid, u.time + dt, u.params)


_PAD_FACTOR = 4  # zero padding of the periodic extension, in multiples of the grid


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


def _h1_norm_sq(v: np.ndarray, h: float) -> float:
    """Squared discrete H^1 norm of a real sample vector."""
    return float(np.sum(v**2)) * h + float(np.sum(np.diff(v) ** 2)) / h


def sampled_profile(p: WaveParameters, grid: GridSpec) -> np.ndarray:
    return ProfileEvaluator.from_params(p).value(grid.nodes())


def orbital_distance(u: FieldState, p: WaveParameters, phi: np.ndarray | None = None) -> float:
    """inf over theta of the discrete H^1 distance to e^{i theta} phi.

    The minimizing phase is the argument of the H^1 pairing with the (real)
    profile; the distance to that rotation is then taken directly, which
    resolves it down to rounding of the field rather than of its O(1) norm.
    `phi` is the profile sampled on u's grid; it is sampled here when not given.
    """
    h = u.grid.spacing
    if phi is None:
        phi = sampled_profile(p, u.grid)
    re, im = u.samples.real, u.samples.imag
    d_re, d_im, d_phi = np.diff(re), np.diff(im), np.diff(phi)
    theta = math.atan2(float(im @ phi) * h + float(d_im @ d_phi) / h,
                       float(re @ phi) * h + float(d_re @ d_phi) / h)
    cos, sin = math.cos(theta), math.sin(theta)
    w_re, w_im = re - cos * phi, im - sin * phi
    dw_re, dw_im = d_re - cos * d_phi, d_im - sin * d_phi
    return math.sqrt(float(w_re @ w_re + w_im @ w_im) * h + float(dw_re @ dw_re + dw_im @ dw_im) / h)


class PerturbationKind(enum.Enum):
    # Declaration order is the order `peakwave simulate --help` lists the choices in.
    NONE = "none"
    EVEN_BUMP = "even"
    ODD_BUMP = "odd"


@dataclass(frozen=True)
class Perturbation:
    kind: PerturbationKind
    amplitude: float = 0.0


@dataclass(frozen=True)
class SimRow:
    time: float
    energy: float
    charge: float
    orbital_distance: float


@dataclass(frozen=True, eq=False)
class SimulationResult:
    rows: list[SimRow]
    final: FieldState


def _initial_state(p: WaveParameters, perturbation: Perturbation, grid: GridSpec,
                   phi: np.ndarray) -> FieldState:
    if not math.isfinite(perturbation.amplitude):
        raise DomainError(f"perturbation amplitude must be finite, got {perturbation.amplitude}")
    x = grid.nodes()
    h = grid.spacing
    u0 = phi.astype(complex)
    if perturbation.kind is not PerturbationKind.NONE:
        if abs(perturbation.amplitude) > 0.1 * math.sqrt(_h1_norm_sq(phi, h)):
            raise DomainError(
                f"perturbation amplitude {perturbation.amplitude} exceeds 10% of the wave norm"
            )
        bump = np.exp(-x * x)
        if perturbation.kind is PerturbationKind.ODD_BUMP:
            bump = x * bump
        bump = bump / math.sqrt(_h1_norm_sq(bump, h))
        u0 = u0 + perturbation.amplitude * bump
    return FieldState(u0, grid, 0.0, p)


def simulate(
    p: WaveParameters,
    perturbation: Perturbation,
    horizon_T: float,
    dt: float | None = None,
    grid: GridSpec | None = None,
    output_stride: int | None = None,
) -> SimulationResult:
    """Strang-split run from phi plus an optional normalized Gaussian bump.

    Records (time, energy, charge, orbital distance) every `output_stride`
    steps.  Between recorded steps the closing half rotation of one Strang
    step and the opening half rotation of the next are applied as one full
    rotation.  A bitwise mirror-symmetric start (no bump or an even one)
    is advanced on its x >= 0 half by the even-block solve alone.  Raises
    DomainError unless `horizon_T` is finite and positive, `output_stride`
    is None or at least 1, the amplitude is finite (for every kind, `NONE`
    included) and, when a bump is added, |amplitude| is at most a tenth of
    phi's discrete H^1 norm; GridError if the grid fails
    `discretize_operator`'s resolution or extent bound, and BlowupError if
    the amplitude exceeds one thousand times its initial peak or the field
    stops being finite.
    """
    if not (math.isfinite(horizon_T) and horizon_T > 0.0):
        raise DomainError(f"horizon_T must be finite and positive, got {horizon_T}")
    if output_stride is not None and output_stride < 1:
        raise DomainError(f"output_stride must be at least 1, got {output_stride}")
    if grid is None:
        grid = default_grid(p)
    if dt is None:
        dt = 0.25 * grid.spacing
    _check_dt_cap(dt, grid)
    _check_positive_dt(dt)
    phi = sampled_profile(p, grid)
    state = _initial_state(p, perturbation, grid, phi)
    steps = max(1, int(round(horizon_T / dt)))
    if output_stride is None:
        output_stride = max(1, steps // 400)
    guard_sq = (1e3 * float(np.max(np.abs(state.samples)))) ** 2
    stepper = _stepper(p, grid, dt)

    def row(s: FieldState) -> SimRow:
        return SimRow(s.time, discrete_energy(s), discrete_charge(s), orbital_distance(s, p, phi))

    rows = [row(state)]
    u = state.samples.copy()
    advance, unfold = stepper.step, np.copy
    if np.array_equal(u, u[::-1]):
        u = u[grid.center_index:]
        advance, unfold = stepper.step_even, _unfold_even
    t = state.time
    _rotate(u, 0.5 * dt, p)
    for i in range(steps):
        u = advance(u)
        t = t + dt
        record = (i + 1) % output_stride == 0 or i == steps - 1
        mod2 = _rotate(u, 0.5 * dt if record else dt, p)
        if not float(np.max(mod2)) <= guard_sq:
            raise BlowupError(f"amplitude exceeded the blow-up guard or became non-finite at t = {t}")
        if record:
            state = FieldState(unfold(u), grid, t, p)
            rows.append(row(state))
            _rotate(u, 0.5 * dt, p)
    return SimulationResult(rows, state)
