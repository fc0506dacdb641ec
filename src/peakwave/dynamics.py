"""Time-domain integration of the defect NLS and its conserved quantities.

The flow i u_t + u_xx + Z delta(x) u + lambda1 |u|^2 u + lambda2 |u|^4 u = 0
is split into an exact pointwise phase rotation for the power nonlinearities
and a Crank-Nicolson step for the linear defect part i u_t = A u, with A the
tridiagonal bare-defect operator.  Strang composition of the two is second
order in time and conserves the discrete charge to solver roundoff.

The Crank-Nicolson solve is performed on the even/odd parity blocks of the
grid rather than on the full line.  This is not an optimization: an even
field must stay exactly even (the continuum flow preserves parity), and at
spectrally unstable parameters any rounding asymmetry of a generic
tridiagonal solve is amplified exponentially through the odd unstable mode,
destroying the parity of long runs.  Block solves keep the odd component of
an even field identically zero.

Both kernels are built for speed without giving that up.  Each parity block
of the Crank-Nicolson matrix is LU-factored once per (grid, Z, dt) and the
stepper is cached, so a step is a right-hand side and a back substitution.
The rotation takes cos and sin of the real angle, elementwise.  `simulate`
runs on raw arrays: between output rows the closing half rotation of one
step and the opening half rotation of the next are applied as one full
rotation, a FieldState is built only for recorded rows, and the profile for
the orbital distance is sampled once per run.  The blow-up guard reads the
|u|^2 the rotation already computes and also trips on NaN and inf, raising
BlowupError.  `strang_step`, `cn_linear_step` and `nonlinear_phase_step`
are thin wrappers over the same two kernels.

The explicit kernel form of the defect group (free evolution of the field
convolved with an exponential filter, assembled by half-lines) is provided as
an independent oracle for the linear flow.  It is the scattering
decomposition and is exact for fields supported left of the defect with a
repulsive defect; it is not used in the main time loop.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import BlowupError, DomainError, GridError, SolveError, StepError
from .profile import ProfileEvaluator, WaveParameters
from .spectral import GridSpec, Sector, default_grid

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
    v = u.samples
    gradient = float(np.sum(np.abs(np.diff(v)) ** 2)) / h
    mod2 = np.abs(v) ** 2
    quartic = float(np.trapezoid(mod2**2, dx=h))
    sextic = float(np.trapezoid(mod2**3, dx=h))
    center = float(mod2[u.grid.center_index])
    return 0.5 * gradient - p.lambda1 / 4.0 * quartic - p.lambda2 / 6.0 * sextic - p.z / 2.0 * center


def discrete_charge(u: FieldState) -> float:
    """Half the squared discrete L^2 norm."""
    return 0.5 * u.grid.spacing * float(np.sum(np.abs(u.samples) ** 2))


class _ParityCrankNicolson:
    """Cayley-transform stepper for i u_t = A u on even/odd parity blocks.

    Each block matrix 1 + (i dt/2) A is LU-factored once here (LAPACK
    gttrf); a step forms the right-hand side (1 - (i dt/2) A) v per block and
    back-substitutes with gttrs against the stored factors.  scipy's gttrf
    and gttrs take at least three rows, so the odd block of (n - 1)/2 rows
    needs n >= 7; smaller grids raise GridError.
    """

    def __init__(self, grid: GridSpec, z: float, dt: float):
        if grid.n_points < 7:
            raise GridError(f"Crank-Nicolson parity blocks need n_points >= 7, got {grid.n_points}")
        # Bare-defect tridiagonal pieces; the potential-free diagonal is
        # mirror-symmetric so A commutes with the reflection exactly.
        h = grid.spacing
        n = grid.n_points
        c = grid.center_index
        diag = np.full(n, 2.0 / h**2)
        diag[c] -= z / h
        off = -1.0 / h**2
        self._c = c
        gamma = 0.5j * dt
        blocks = []
        # Even block: v_j = u_{c+j}, j = 0..c; the center row couples twice
        # to its single distinct neighbor.  Odd block: v_j = u_{c+j}, j >= 1.
        for dd, first_upper in ((diag[c:], 2.0 * off), (diag[c + 1:], off)):
            upper = np.full(len(dd) - 1, off, dtype=complex)
            if len(upper):
                upper[0] = first_upper
            lower = np.full(len(dd) - 1, off, dtype=complex)
            *factors, info = zgttrf(gamma * lower, 1.0 + gamma * dd, gamma * upper)
            if info != 0:  # pragma: no cover - 1 + i(dt/2)A is nonsingular for real dt
                raise SolveError("Crank-Nicolson tridiagonal factorization failed")
            blocks.append((1.0 - gamma * dd, gamma * upper, gamma * lower, factors))
        self._blocks = blocks

    @staticmethod
    def _solve(block, v: np.ndarray) -> np.ndarray:
        diagonal, upper, lower, factors = block
        rhs = diagonal * v
        rhs[:-1] -= upper * v[1:]
        rhs[1:] -= lower * v[:-1]
        x, _ = zgttrs(*factors, rhs, overwrite_b=1)
        return x

    def step(self, u: np.ndarray) -> np.ndarray:
        c = self._c
        v_even = self._solve(self._blocks[0], 0.5 * (u[c:] + u[c::-1]))
        v_odd = self._solve(self._blocks[1], 0.5 * (u[c + 1:] - u[c - 1::-1]))
        out = np.empty_like(u)
        out[c] = v_even[0]
        out[c + 1:] = v_even[1:] + v_odd
        out[:c] = (v_even[1:] - v_odd)[::-1]
        return out


@functools.lru_cache(maxsize=16)
def _stepper(grid: GridSpec, z: float, dt: float) -> _ParityCrankNicolson:
    return _ParityCrankNicolson(grid, z, dt)


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
    stepper = _stepper(u.grid, u.params.z, dt)
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
    v = _stepper(u.grid, u.params.z, dt).step(v)
    _rotate(v, 0.5 * dt, u.params)
    return FieldState(v, u.grid, u.time + dt, u.params)


def kernel_propagator_apply(psi: FieldState, t: float, pad_factor: int = 4) -> FieldState:
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
    if pad_factor < 4:
        raise DomainError(f"pad_factor must be >= 4, got {pad_factor}")
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
        n_pad = pad_factor * n
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
    return float(np.sum(np.abs(v) ** 2)) * h + float(np.sum(np.abs(np.diff(v)) ** 2)) / h


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
    pairing = complex(np.sum(u.samples * phi) * h + np.sum(np.diff(u.samples) * np.diff(phi)) / h)
    return math.sqrt(_h1_norm_sq(u.samples - cmath.exp(1j * cmath.phase(pairing)) * phi, h))


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
    x = grid.nodes()
    h = grid.spacing
    u0 = phi.astype(complex)
    if perturbation.kind is not PerturbationKind.NONE:
        if perturbation.amplitude > 0.1 * math.sqrt(_h1_norm_sq(phi, h)):
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
    rotation.  Raises DomainError unless `horizon_T` is finite and positive
    and `output_stride` is None or at least 1, and BlowupError if the
    amplitude exceeds one thousand times its initial peak or the field stops
    being finite.
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
    stepper = _stepper(grid, p.z, dt)

    def row(s: FieldState) -> SimRow:
        return SimRow(s.time, discrete_energy(s), discrete_charge(s), orbital_distance(s, p, phi))

    rows = [row(state)]
    u = state.samples.copy()
    t = state.time
    _rotate(u, 0.5 * dt, p)
    for i in range(steps):
        u = stepper.step(u)
        t = t + dt
        record = (i + 1) % output_stride == 0 or i == steps - 1
        mod2 = _rotate(u, 0.5 * dt if record else dt, p)
        if not float(np.max(mod2)) <= guard_sq:
            raise BlowupError(f"amplitude exceeded the blow-up guard or became non-finite at t = {t}")
        if record:
            state = FieldState(u, grid, t, p)
            rows.append(row(state))
            u = u.copy()
            _rotate(u, 0.5 * dt, p)
    return SimulationResult(rows, state)
