"""Time-domain integration of the defect NLS and its conserved quantities.

The flow i u_t + u_xx + Z delta(x) u + lambda1 |u|^2 u + lambda2 |u|^4 u = 0
is split into an exact pointwise phase rotation for the power nonlinearities
and a Crank-Nicolson step for the linear defect part i u_t = A u, with A the
bare-defect operator of `spectral.discretize_operator`.  The stepper is
built from that operator, so `simulate` shares its grid contract (resolution,
extent and coupling bounds, GridError otherwise), which it checks before it
samples anything and without assembling the operator.
Strang composition of the two is second order in time and conserves the
discrete charge to solver roundoff.

A start whose samples are bitwise mirror-symmetric (no bump, or an even
one) runs on its x >= 0 half, the paper's invariant subspace H^1_even: the
Crank-Nicolson matrix is the even half of the operator, so the run is exactly
even by construction, which matters at spectrally unstable parameters, where
any rounding asymmetry would grow exponentially through the odd unstable
mode.  The half is unfolded to the full line once, for the final state.  Any
other start runs on the full line and keeps no parity: the nonlinear phase
mixes the parities of a field that has both.

The Crank-Nicolson matrix 1 + B, B = (i dt/2) A, of the half or the line is
factored once per (parameters, grid, dt, half) as L D U with no row
interchange, and the stepper is cached.  No interchange is needed for any
dt: every pivot has real part at least 1, because the matrix is 1 + iS with
S real symmetric up to a diagonal similarity.  By the Cayley identity
(1 + B)^-1 (1 - B) = 2 (1 + B)^-1 - 1 a step is two unit band sweeps (BLAS
tbsv) around one multiply by twice the reciprocal pivots; 1 - B is never
applied.  scipy.linalg's BLAS module is imported when the first stepper is
built, not with this module, so importing `dynamics` (and `cli`) loads numpy
only and a command that never steps a field never loads scipy.

The rotation is one kernel, `_Rotation`, which each run makes for itself:
it owns the run's work arrays for |u|^2 = re^2 + im^2, the angle and the
phase, and fills them in place at every call.  It takes cos and sin of the
real angle only on the window from the first to the last node where the
angle is at least 2^-27 in magnitude; outside it the rounded phase is
exactly (1, angle), so the window changes no bit.  `simulate` runs on raw
arrays: between output rows the closing half rotation of one step and the
opening half rotation of the next are applied as one full rotation, and on
a recorded step one half-step phase is applied twice, before and after the
row.  Rows come from one fused kernel over the array the loop steps (for an
even run the x >= 0 half, weighted as its mirror image), which reuses the
rotation's |u|^2, that of the field before the rotation and so the rotated
field's to rounding, and pairs the field with the profile in one product
each; the profile for the orbital distance is sampled once per run, and
only the final state is unfolded and wrapped in a FieldState.  The blow-up
guard reads the same |u|^2 and also trips on NaN and inf, raising
BlowupError.  A run may take at most `MAX_STEPS` steps.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, DomainError
from .profile import ProfileEvaluator, WaveParameters
from .spectral import GridSpec, OperatorKind, TridiagonalOperator, default_grid, discretize_operator
from .spectral import _check_grid

__all__ = [
    "FieldState",
    "PerturbationKind",
    "Perturbation",
    "SimRow",
    "SimulationResult",
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
        if len(self.samples) != self.grid.n_points:
            raise DomainError(
                f"sample count {len(self.samples)} does not match grid size {self.grid.n_points}"
            )
        if not np.all(np.isfinite(self.samples.view(float))):
            raise DomainError("field samples must be finite")


def _unpivoted_ldu(lower: np.ndarray, diag: np.ndarray,
                   upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L D U factors of the tridiagonal (lower, diag, upper), with no row interchange.

    L and U are unit bidiagonal.  They are returned as one Fortran-ordered
    (2, m) band array: row 1 holds the multipliers lower/d, row 0 the
    multipliers upper/d shifted one column right.  Those are the layouts of
    a unit lower and a unit upper `ztbsv` band with one off-diagonal, whose
    diagonal rows `diag=1` never reads, so the one array serves both
    sweeps.  The second result is the pivots d.
    """
    lo, up, dd = lower.tolist(), upper.tolist(), diag.tolist()
    lower_mult, pivots = [], [dd[0]]
    for a, b, d_next in zip(lo, up, dd[1:]):
        m = a / pivots[-1]
        lower_mult.append(m)
        pivots.append(d_next - m * b)
    pivots = np.array(pivots)
    band = np.zeros((2, len(dd)), dtype=complex, order="F")
    band[1, :-1] = lower_mult
    band[0, 1:] = upper / pivots[:-1]
    return band, pivots


class _CrankNicolson:
    """Cayley-transform stepper for i u_t = A u on one tridiagonal realization of A.

    A is the mirror-symmetric full-line operator `op`, or with `half` its
    even half: the x >= 0 half of an even field, whose center row couples
    twice to its single distinct neighbor.  With B = (i dt/2) A the step is
    (1 + B)^-1 (1 - B) v = 2 (1 + B)^-1 v - v, so only factors of 1 + B are
    kept: L D U with unit bidiagonal L and U and no row interchange
    (`_unpivoted_ldu`), formed once here, and twice the reciprocal pivots
    2/d.  No interchange is needed for any dt.  The pivots depend only on
    the diagonal and the products lower*upper, and those equal the ones of
    1 + iS with S = (dt/2) times the symmetrized matrix, S real.  So
    d_0 = 1 + i s_00 and d_{j+1} = 1 + i s_{j+1,j+1} + s_{j,j+1}^2 / d_j,
    and Re d_j >= 1 gives Re d_{j+1} >= 1: every pivot has real part at
    least 1, in rounded arithmetic too, since each rounding keeps the sign
    of the term it adds.  LAPACK gttrf compares |d| with |lower| and does
    interchange rows at large dt (dt = 100h with Z > 0, say), which is why a
    short loop forms the factors instead.  A step is two unit band sweeps
    (BLAS ztbsv) around one multiply by 2/d.  scipy's BLAS is bound here, at
    the first stepper build, so that no other command loads scipy.
    """

    def __init__(self, op: TridiagonalOperator, dt: float, half: bool):
        from scipy.linalg.blas import ztbsv

        self._ztbsv = ztbsv
        c = op.size // 2 if half else 0
        gamma = 0.5j * dt
        lower = gamma * op.offdiagonal[c:]
        upper = lower
        if half:
            upper = lower.copy()
            upper[0] *= 2.0
        self._band, pivots = _unpivoted_ldu(lower, 1.0 + gamma * op.diagonal[c:], upper)
        scale = 1.0 / pivots
        self._twice = scale + scale

    def step(self, v: np.ndarray) -> np.ndarray:
        x = self._ztbsv(1, self._band, v, lower=1, diag=1)
        x *= self._twice
        x = self._ztbsv(1, self._band, x, diag=1, overwrite_x=1)
        x -= v
        return x


def _unfold_even(v: np.ndarray) -> np.ndarray:
    """The full-line samples of the even field whose x >= 0 half is v."""
    return np.concatenate((v[:0:-1], v))


@functools.lru_cache(maxsize=16)
def _stepper(p: WaveParameters, grid: GridSpec, dt: float, half: bool) -> _CrankNicolson:
    return _CrankNicolson(discretize_operator(OperatorKind.FREE_WITH_DELTA, p, grid), dt, half)


#: Default step of `simulate` (and `simulate --dt`), as a multiple of the grid spacing.
DEFAULT_STEP_PER_SPACING = 0.25

#: Most Strang steps one `simulate` run may take (horizon_T / dt).
MAX_STEPS = 10**7

#: Below this |angle| the rounded cos is exactly 1.0 and the rounded sin is the angle.
_TRIVIAL_ANGLE = 2.0**-27


def _unit_phase(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cos(theta) + i sin(theta) of a real angle array, elementwise, into `out`.

    For |theta| < 2^-27, cos(theta) = 1 - theta^2/2 + ... lies within half an
    ulp of 1 and sin(theta) within half an ulp of theta, so the correctly
    rounded values are exactly (1, theta); the tests check that numpy's cos
    and sin return them there.  cos and sin therefore run only on
    the window from the first to the last angle at or above that bound, and
    the phase is (1, theta) outside it.  A NaN angle does not open the
    window; outside it its phase is 1 + i NaN.
    """
    out.real = 1.0
    out.imag = theta
    active = np.abs(theta) >= _TRIVIAL_ANGLE
    lo = int(active.argmax())
    hi = len(active) - int(active[::-1].argmax()) if active[lo] else lo
    np.cos(theta[lo:hi], out=out.real[lo:hi])
    np.sin(theta[lo:hi], out=out.imag[lo:hi])
    return out


class _Rotation:
    """The phase exp(i dt (l1|v|^2 + l2|v|^4)) of fields of one length, on work arrays.

    A call fills `mod2` with |v|^2 = re^2 + im^2, forms the angle
    (dt l2 |v|^2 + dt l1) |v|^2 in a scratch array and returns the phase in
    a third array; all three are overwritten by the next call, so each run
    makes its own rotation and no two runs share one.  The phase is
    elementwise, so it never mixes parity; multiplying v by it keeps the
    moduli to rounding, so one phase serves two equal rotations in a row,
    and `mod2` stays |v|^2 of the rotated field to rounding.
    """

    def __init__(self, p: WaveParameters, size: int):
        self._lambda1, self._lambda2 = p.lambda1, p.lambda2
        self.mod2 = np.empty(size)
        self._theta = np.empty(size)
        self._phase = np.empty(size, dtype=complex)

    def __call__(self, v: np.ndarray, dt: float) -> np.ndarray:
        mod2, theta = self.mod2, self._theta
        np.multiply(v.real, v.real, out=mod2)
        np.multiply(v.imag, v.imag, out=theta)
        mod2 += theta
        np.multiply(mod2, dt * self._lambda2, out=theta)
        theta += dt * self._lambda1
        theta *= mod2
        return _unit_phase(theta, self._phase)


def _check_positive_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be finite and positive, got {dt}")


def _check_dt_cap(dt: float, grid: GridSpec) -> None:
    if dt > 0.5 * grid.spacing:
        raise DomainError(f"dt = {dt} exceeds the stability/accuracy cap 0.5*h = {0.5 * grid.spacing}")


def _h1_norm_sq(v: np.ndarray, h: float) -> float:
    """Squared discrete H^1 norm of a real sample vector."""
    return float(np.sum(v**2)) * h + float(np.sum(np.diff(v) ** 2)) / h


class _Observables:
    """Energy, charge and orbital distance of fields on one grid, in one pass.

    A field is given as its full-line samples or, with `half`, as the x >= 0
    half of an even field, together with its |u|^2.  A half is weighted as
    its mirror image on the full line: the center node counts once, every
    other node and every difference twice, and the two trapezoid ends are
    its last node.  The squared norms of differences and of the distance are
    vdot products, and each pairing with the profile is one product of the
    profile weights with the (re, im) pairs of the field or of its
    differences.  `phi` is the profile of the orbit on the same nodes.
    """

    def __init__(self, p: WaveParameters, grid: GridSpec, phi: np.ndarray, half: bool = False):
        self._p = p
        self._h = grid.spacing
        self._fold = 2.0 if half else 1.0
        self._center = 0 if half else grid.center_index
        nodes = np.full(grid.center_index + 1 if half else grid.n_points, self._fold)
        nodes[0] = 1.0
        self._nodes = nodes
        self._trapezoid = nodes.copy()
        self._trapezoid[-1] *= 0.5
        if not half:
            self._trapezoid[0] *= 0.5
        self._phi = phi.astype(complex)
        self._d_phi = np.diff(phi)
        self._node_phi = nodes * phi

    def __call__(self, v: np.ndarray, mod2: np.ndarray) -> tuple[float, float, float]:
        p, h, fold, nodes = self._p, self._h, self._fold, self._nodes
        v = np.ascontiguousarray(v, dtype=complex)
        dv = v[1:] - v[:-1]
        weighted = self._trapezoid * mod2
        quartic = h * float(weighted @ mod2)
        sextic = h * float(weighted @ (mod2 * mod2))
        energy = (0.5 * fold * float(np.vdot(dv, dv).real) / h - p.lambda1 / 4.0 * quartic
                  - p.lambda2 / 6.0 * sextic - p.z / 2.0 * float(mod2[self._center]))
        charge = 0.5 * h * float(nodes @ mod2)
        node_re, node_im = (self._node_phi @ v.view(float).reshape(-1, 2)).tolist()
        diff_re, diff_im = (self._d_phi @ dv.view(float).reshape(-1, 2)).tolist()
        theta = math.atan2(h * node_im + fold * diff_im / h, h * node_re + fold * diff_re / h)
        w = self._phi * complex(math.cos(theta), math.sin(theta))
        np.subtract(v, w, out=w)
        dw = w[1:] - w[:-1]
        w_sq = fold * float(np.vdot(w, w).real) - (fold - 1.0) * abs(w[0]) ** 2
        distance = math.sqrt(h * w_sq + fold * float(np.vdot(dw, dw).real) / h)
        return energy, charge, distance


class PerturbationKind(enum.Enum):
    # Declaration order is the order `peakwave simulate --help` lists the choices in.
    NONE = "none"
    EVEN_BUMP = "even"
    ODD_BUMP = "odd"


@dataclass(frozen=True)
class Perturbation:
    kind: PerturbationKind
    amplitude: float


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


def _initial_state(perturbation: Perturbation, grid: GridSpec, phi: np.ndarray) -> np.ndarray:
    """phi's samples plus the amplitude times the bump of unit discrete H^1 norm;
    DomainError when the bump's norm is not positive (an odd bump with h > ~26)."""
    u0 = phi.astype(complex)
    if perturbation.kind is PerturbationKind.NONE:
        return u0
    h = grid.spacing
    if abs(perturbation.amplitude) > 0.1 * math.sqrt(_h1_norm_sq(phi, h)):
        raise DomainError(
            f"perturbation amplitude {perturbation.amplitude} exceeds 10% of the wave norm"
        )
    x = grid.nodes()
    bump = np.exp(-x * x)
    if perturbation.kind is PerturbationKind.ODD_BUMP:
        bump = x * bump
    bump_norm_sq = _h1_norm_sq(bump, h)
    if not bump_norm_sq > 0.0:
        raise DomainError(f"the {perturbation.kind.value} bump has zero discrete H^1 norm at h = {h}")
    return u0 + perturbation.amplitude * (bump / math.sqrt(bump_norm_sq))


def simulate(
    p: WaveParameters,
    perturbation: Perturbation,
    horizon_T: float,
    dt: float | None = None,
    grid: GridSpec | None = None,
) -> SimulationResult:
    """Strang-split run from phi plus an optional normalized Gaussian bump.

    Takes round(horizon_T / dt) steps and records (time, energy, charge,
    orbital distance) at the start, every max(1, steps // 400) steps and
    after the last.  Between recorded steps the closing half rotation of one
    Strang step and the opening half rotation of the next are applied as one
    full rotation; on a recorded step one half-step phase serves both.  A bitwise
    mirror-symmetric start (no bump or an even one) is advanced on its
    x >= 0 half by the even-half stepper, its rows are taken from that half
    with mirror weights, and it is unfolded only for the final state; any
    other start is advanced on the full line.  The grid is checked before
    phi and the bump are sampled, and the operator is assembled only when
    the stepper is not cached.  Raises DomainError unless `horizon_T` is
    finite and positive, horizon_T / dt is at most `MAX_STEPS` and rounds to
    at least one step, the amplitude is finite, zero for kind `NONE` and,
    when a bump is added, at most a tenth of phi's discrete H^1 norm in
    magnitude, and the bump has a positive discrete H^1 norm on the grid;
    GridError if the grid fails one of `discretize_operator`'s bounds, and
    BlowupError if the amplitude exceeds one thousand times its initial peak
    or the field stops being finite.
    """
    if not (math.isfinite(horizon_T) and horizon_T > 0.0):
        raise DomainError(f"horizon_T must be finite and positive, got {horizon_T}")
    if grid is None:
        grid = default_grid(p)
    if dt is None:
        dt = DEFAULT_STEP_PER_SPACING * grid.spacing
    _check_dt_cap(dt, grid)
    _check_positive_dt(dt)
    if horizon_T / dt > MAX_STEPS:
        raise DomainError(f"horizon_T / dt = {horizon_T / dt:.6g} steps exceeds the cap of {MAX_STEPS}")
    steps = int(round(horizon_T / dt))
    if steps == 0:
        raise DomainError(f"horizon_T = {horizon_T} is shorter than half a step dt = {dt}")
    if not math.isfinite(perturbation.amplitude):
        raise DomainError(f"perturbation amplitude must be finite, got {perturbation.amplitude}")
    if perturbation.kind is PerturbationKind.NONE and perturbation.amplitude != 0.0:
        raise DomainError(f"perturbation kind 'none' takes amplitude 0, got {perturbation.amplitude}")
    _check_grid(p, grid)  # GridError before any sampling
    phi = ProfileEvaluator.from_params(p).value(grid.nodes())
    u = _initial_state(perturbation, grid, phi)
    stride = max(1, steps // 400)
    guard_sq = (1e3 * float(np.max(np.abs(u)))) ** 2
    half = bool(np.array_equal(u, u[::-1]))
    if half:
        c = grid.center_index
        u, phi = u[c:], phi[c:]
    advance = _stepper(p, grid, dt, half).step
    observables = _Observables(p, grid, phi, half)
    rotate = _Rotation(p, len(u))
    phase = rotate(u, 0.5 * dt)
    rows = [SimRow(0.0, *observables(u, rotate.mod2))]
    u *= phase
    t = 0.0
    for i in range(steps):
        u = advance(u)
        t = t + dt
        record = (i + 1) % stride == 0 or i == steps - 1
        phase = rotate(u, 0.5 * dt if record else dt)
        if not rotate.mod2.max() <= guard_sq:
            raise BlowupError(f"amplitude exceeded the blow-up guard or became non-finite at t = {t}")
        u *= phase
        if record:
            rows.append(SimRow(t, *observables(u, rotate.mod2)))
            if i < steps - 1:
                u *= phase
    return SimulationResult(rows, FieldState(_unfold_even(u) if half else u, grid, t, p))
