"""Finite-difference spectral analysis of the linearized operators.

The second variation of the action at the standing wave splits into two
Schroedinger operators on the line with the defect folded into the domain
condition g'(0+) - g'(0-) = -Z g(0):

    L1 = -d^2/dx^2 - omega - 3*lambda1*phi^2 - 5*lambda2*phi^4
    L2 = -d^2/dx^2 - omega -   lambda1*phi^2 -   lambda2*phi^4

plus the free operator with the bare defect (no potential).  Each is realized
as a symmetric tridiagonal matrix on a uniform grid: three-point Laplacian,
potential on the diagonal, and -Z/h lumped on the center node.  The even
sector is the half-line reduction with the flux condition f'(0+) = -(Z/2) f(0)
closed by a ghost point; its first off-diagonal entry is -sqrt(2)/h^2 so the
reduced matrix stays symmetric with the same spectrum as the even-restricted
full operator.

Eigenvalue counts come from Sturm/Sylvester inertia (negative pivots of the
shifted triangular factorization), eigenvalues from bisection on the count,
and eigenvectors from one LAPACK stein call (inverse iteration with
reorthogonalization) at the bisected eigenvalues.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.linalg.lapack import dstein

from .errors import ConvergenceError, DomainError, GridError, InstabilityError, RegimeError
from .profile import ProfileEvaluator, Regime, WaveParameters, phi_center_sq

__all__ = [
    "Sector",
    "OperatorKind",
    "GridSpec",
    "TridiagonalOperator",
    "SpectrumReport",
    "KernelReport",
    "default_grid",
    "discretize_operator",
    "inertia_below",
    "lowest_eigenpairs",
    "morse_index",
    "zero_exclusion_shift",
    "kernel_residual",
    "spectrum_report",
    "quadratic_form_phi",
    "quadratic_form_discrete",
    "negative_direction_check",
]


class Sector(enum.Enum):
    FULL_LINE = "full"
    EVEN_SECTOR = "even"


class OperatorKind(enum.Enum):
    L1 = "L1"
    L2 = "L2"
    FREE_WITH_DELTA = "free"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid, either symmetric about the defect or on the half line.

    Full-line grids have an odd number of nodes so x = 0 is a node; even-sector
    grids live on [0, L] with the first node at the defect.  Values beyond the
    outermost nodes are treated as zero (Dirichlet truncation).
    """

    half_width: float
    n_points: int
    sector: Sector = Sector.FULL_LINE

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise GridError(f"half_width must be positive, got {self.half_width}")
        if self.sector is Sector.FULL_LINE:
            if self.n_points < 3 or self.n_points % 2 == 0:
                raise GridError(f"full-line grid needs an odd n_points >= 3, got {self.n_points}")
        elif self.n_points < 2:
            raise GridError(f"even-sector grid needs n_points >= 2, got {self.n_points}")
        if not math.isfinite(self.spacing):
            raise GridError(f"spacing {self.spacing} of half_width {self.half_width} is not finite")

    @property
    def spacing(self) -> float:
        if self.sector is Sector.FULL_LINE:
            return 2.0 * self.half_width / (self.n_points - 1)
        return self.half_width / (self.n_points - 1)

    @property
    def center_index(self) -> int:
        return (self.n_points - 1) // 2 if self.sector is Sector.FULL_LINE else 0

    def nodes(self) -> np.ndarray:
        # Built as h*(i - c) so that x[c+j] and x[c-j] are exact negatives;
        # bitwise mirror symmetry matters for parity-exact time stepping.
        if self.sector is Sector.FULL_LINE:
            return self.spacing * (np.arange(self.n_points) - self.center_index)
        return self.spacing * np.arange(self.n_points)

    def refined(self) -> "GridSpec":
        """Same extent with doubled resolution."""
        return GridSpec(self.half_width, 2 * self.n_points - 1, self.sector)

    def even_half(self) -> "GridSpec":
        """Even-sector companion of a full-line grid (same spacing and extent)."""
        if self.sector is not Sector.FULL_LINE:
            raise GridError("even_half is defined for full-line grids")
        return GridSpec(self.half_width, self.center_index + 1, Sector.EVEN_SECTOR)


def default_grid(p: WaveParameters, n_points: int = 4001, sector: Sector = Sector.FULL_LINE) -> GridSpec:
    """Grid at the precondition floor L = 30/sqrt(-omega)."""
    L = 30.0 / math.sqrt(-p.omega)
    return GridSpec(L, n_points, sector)


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix with the defect on the center diagonal."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    kind: OperatorKind
    grid: GridSpec
    params: WaveParameters

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.offdiagonal * v[1:]
        out[1:] += self.offdiagonal * v[:-1]
        return out

    def gershgorin_bounds(self) -> tuple[float, float]:
        radius = np.zeros(self.size)
        radius[:-1] += np.abs(self.offdiagonal)
        radius[1:] += np.abs(self.offdiagonal)
        return float(np.min(self.diagonal - radius)), float(np.max(self.diagonal + radius))


def _potential(kind: OperatorKind, p: WaveParameters, x: np.ndarray) -> np.ndarray:
    if kind is OperatorKind.FREE_WITH_DELTA:
        return np.zeros_like(x)
    phi_sq = ProfileEvaluator.from_params(p).value(x) ** 2
    if kind is OperatorKind.L1:
        return -p.omega - 3.0 * p.lambda1 * phi_sq - 5.0 * p.lambda2 * phi_sq**2
    return -p.omega - p.lambda1 * phi_sq - p.lambda2 * phi_sq**2


def discretize_operator(kind: OperatorKind, p: WaveParameters, grid: GridSpec) -> TridiagonalOperator:
    """Assemble the tridiagonal realization of L1, L2, or the bare defect.

    Preconditions: the grid must resolve the wave (h <= 0.05/sqrt(-omega)) and
    contain it (L >= 30/sqrt(-omega)); GridError otherwise.
    """
    nu = math.sqrt(-p.omega)
    h = grid.spacing
    if h > 0.05 / nu + 1e-12:
        raise GridError(f"spacing h = {h} exceeds the resolution bound 0.05/sqrt(-omega) = {0.05 / nu}")
    if grid.half_width < 30.0 / nu - 1e-9:
        raise GridError(f"half width L = {grid.half_width} below the extent bound 30/sqrt(-omega) = {30.0 / nu}")
    x = grid.nodes()
    diag = 2.0 / h**2 + _potential(kind, p, x)
    off = np.full(grid.n_points - 1, -1.0 / h**2)
    diag[grid.center_index] -= p.z / h
    if grid.sector is Sector.EVEN_SECTOR:
        # Ghost-point closure of f'(0+) = -(Z/2) f(0), symmetrized: the
        # similarity that restores symmetry scales the first coupling by sqrt(2).
        off[0] = -math.sqrt(2.0) / h**2
    return TridiagonalOperator(diag, off, kind, grid, p)


def inertia_below(op: TridiagonalOperator, shift: float) -> int:
    """Number of eigenvalues strictly below `shift` (Sylvester inertia).

    Counts negative pivots of the LDL^T factorization of (op - shift*I).
    Pivot breakdowns (exact zeros) are replaced by +-1e-300, equivalent to an
    infinitesimal shift perturbation.
    """
    d = op.diagonal
    e2 = op.offdiagonal * op.offdiagonal
    count = 0
    t = d[0] - shift
    if t < 0.0:
        count += 1
    for i in range(1, len(d)):
        if t == 0.0:
            t = 1e-300
        t = (d[i] - shift) - e2[i - 1] / t
        if t < 0.0:
            count += 1
    return count


#: Width of the bracket at which eigenvalue bisection stops.
_BISECTION_TOL = 1e-10


def _eigenvalue_by_index(op: TridiagonalOperator, index: int) -> float:
    lo, hi = op.gershgorin_bounds()
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if inertia_below(op, mid) > index:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def lowest_eigenpairs(op: TridiagonalOperator, k: int) -> list[tuple[float, np.ndarray]]:
    """k smallest eigenpairs; eigenvalues by inertia bisection to 1e-10,
    eigenvectors by LAPACK stein (inverse iteration with reorthogonalization)
    at those eigenvalues, normalized in the h-weighted norm and signed so the
    entry of largest magnitude at x >= 0 is positive."""
    if not 1 <= k <= 5:
        raise DomainError(f"k must be between 1 and 5, got {k}")
    n = op.size
    lams = [_eigenvalue_by_index(op, j) for j in range(k)]
    # Every coupling is -1/h^2 or -sqrt(2)/h^2, so the matrix is one unsplit block.
    vecs, info = dstein(op.diagonal, op.offdiagonal, lams, np.ones(n, np.int32), np.full(n, n, np.int32))
    if info != 0:
        raise ConvergenceError(f"LAPACK stein failed with info = {info} at eigenvalues {lams}")
    vecs = vecs.T / math.sqrt(op.grid.spacing)
    c = op.grid.center_index
    # Signing on x >= 0 alone keeps the mirrored peaks of an odd vector from tying.
    return [(lam, v if v[c + int(np.argmax(np.abs(v[c:])))] > 0.0 else -v) for lam, v in zip(lams, vecs)]


def zero_exclusion_shift(grid: GridSpec, p: WaveParameters) -> float:
    """Shift -eps used to keep the discrete zero mode out of negative counts.

    The discrete image of a true zero eigenvalue lands at O(h^2 * omega^2), so
    the exclusion must scale the same way; 3*h^2*omega^2 gives an order of
    magnitude of margin at the mandated grids while remaining far below the
    smallest genuinely negative eigenvalues at tested parameters.
    """
    return max(1e-6 * max(1.0, abs(p.omega)), 3.0 * grid.spacing**2 * p.omega**2)


def morse_index(kind: OperatorKind, p: WaveParameters, grid: GridSpec) -> int:
    """Number of negative eigenvalues, verified stable under one refinement."""
    counts = []
    for g in (grid, grid.refined()):
        op = discretize_operator(kind, p, g)
        counts.append(inertia_below(op, -zero_exclusion_shift(g, p)))
    if counts[0] != counts[1]:
        raise InstabilityError(
            f"negative count changed under refinement: {counts[0]} -> {counts[1]} "
            f"for {kind.value} at omega={p.omega}, Z={p.z}"
        )
    return counts[0]


@dataclass(frozen=True)
class KernelReport:
    """Numerical kernel checks of the linearized pair.

    `l2_zero_abs` is |lowest eigenvalue of L2| (tends to 0 at second order in
    h: zero is an exact simple eigenvalue with eigenfunction phi).
    `l1_distance_to_zero` is the distance from 0 to the spectrum of L1, which
    stays bounded away from 0 for Z != 0 (trivial kernel).
    """

    l2_zero_abs: float
    l1_distance_to_zero: float
    grid: GridSpec


def _distance_to_zero(op: TridiagonalOperator, lowest: Sequence[float] = ()) -> float:
    """Distance from 0 to the spectrum: the nearer of the eigenvalues either side.

    Eigenvalues 0, 1, ... already bisected are passed in `lowest`; any other
    index is bisected here.
    """
    below = inertia_below(op, 0.0)
    either_side = range(max(below - 1, 0), below + 1)
    return min(abs(lowest[j] if j < len(lowest) else _eigenvalue_by_index(op, j)) for j in either_side)


def kernel_residual(p: WaveParameters, grid: GridSpec) -> KernelReport:
    """Measure the L2 zero mode and the spectral gap of L1 around zero."""
    l2_zero = abs(_eigenvalue_by_index(discretize_operator(OperatorKind.L2, p, grid), 0))
    gap = _distance_to_zero(discretize_operator(OperatorKind.L1, p, grid))
    return KernelReport(l2_zero, gap, grid)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Discrete-spectrum summary of one operator realization."""

    negative_count: int
    lowest_pairs: list[tuple[float, np.ndarray]] = field(repr=False)
    kernel_residual: float
    essential_edge: float
    grid: GridSpec


def spectrum_report(kind: OperatorKind, p: WaveParameters, grid: GridSpec, k: int = 3) -> SpectrumReport:
    """Negative count, k lowest eigenpairs, and the essential-spectrum edge.

    Only eigenvalues below the essential edge are listed (-omega for the
    linearized operators, 0 for the bare defect); deeper entries would be
    box artifacts of the Dirichlet truncation.
    """
    op = discretize_operator(kind, p, grid)
    edge = 0.0 if kind is OperatorKind.FREE_WITH_DELTA else -p.omega
    lowest = lowest_eigenpairs(op, k)
    lams = [lam for lam, _ in lowest]
    pairs = [(lam, v) for lam, v in lowest if lam < edge]
    negative = inertia_below(op, -zero_exclusion_shift(grid, p))
    if kind is OperatorKind.L2:
        resid = abs(lams[0])
    elif kind is OperatorKind.L1:
        resid = _distance_to_zero(op, lams)
    else:
        resid = math.nan
    return SpectrumReport(negative, pairs, resid, edge, grid)


def quadratic_form_phi(p: WaveParameters) -> float:
    """(L1 phi, phi) via its algebraic reduction to -2*lambda1*phi^4 - 4*lambda2*phi^6."""
    ev = ProfileEvaluator.from_params(p)
    nu = ev.root_minus_omega
    L = 40.0 / nu + 2.0 * abs(ev.shift_b)

    def integrand(x: float) -> float:
        v = float(ev.value(x))
        return -2.0 * p.lambda1 * v**4 - 4.0 * p.lambda2 * v**6

    val, _ = quad(integrand, 0.0, L, epsabs=1e-13, epsrel=1e-13, limit=400)
    return 2.0 * val


def quadratic_form_discrete(p: WaveParameters, grid: GridSpec) -> float:
    """h-weighted discrete quadratic form v^T L1 v with v the sampled profile."""
    op = discretize_operator(OperatorKind.L1, p, grid)
    v = ProfileEvaluator.from_params(p).value(grid.nodes())
    return float(np.sum(v * op.apply(v)) * grid.spacing)


def negative_direction_check(p: WaveParameters) -> bool:
    """Whether the attractive-repulsive window guaranteeing (L1 phi, phi) < 0 holds.

    The window is 0 < Z < sqrt(3)*lambda1/(2*sqrt(-lambda2)) together with
    Z^2/4 < -omega < min(-3*lambda1^2/(16*lambda2), -lambda1^2/(6*lambda2) + Z^2/4);
    inside it the center value satisfies lambda1/(2*lambda2) + phi(0)^2 < 0,
    which forces the quadratic form negative.
    """
    if p.regime is not Regime.ATTRACTIVE_REPULSIVE:
        raise RegimeError("negative_direction_check applies to the attractive-repulsive regime")
    z_bound = math.sqrt(3.0) * p.lambda1 / (2.0 * math.sqrt(-p.lambda2))
    upper = min(
        -3.0 * p.lambda1**2 / (16.0 * p.lambda2),
        -p.lambda1**2 / (6.0 * p.lambda2) + p.z**2 / 4.0,
    )
    window = (0.0 < p.z < z_bound) and (p.z**2 / 4.0 < -p.omega < upper)
    if not window:
        return False
    return p.lambda1 / (2.0 * p.lambda2) + phi_center_sq(p) < 0.0
