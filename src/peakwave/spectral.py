"""Finite-difference spectral analysis of the linearized operators.

The second variation of the action at the standing wave splits into two
Schroedinger operators on the line with the defect folded into the domain
condition g'(0+) - g'(0-) = -Z g(0):

    L1 = -d^2/dx^2 - omega - 3*lambda1*phi^2 - 5*lambda2*phi^4
    L2 = -d^2/dx^2 - omega -   lambda1*phi^2 -   lambda2*phi^4

plus the free operator with the bare defect (no potential).  Each is
assembled as a symmetric tridiagonal matrix on a uniform grid symmetric about
the defect: three-point Laplacian, potential on the diagonal, and -Z/h lumped
on the center node.  It commutes with x -> -x, and its one realization is the
pair of parity blocks sliced from it (`parity_blocks`): the even one is the
half-line reduction with the flux condition f'(0+) = -(Z/2) f(0), the odd one
the Dirichlet half-line operator.  The full line is both blocks, the even
sector the even one, and a count on the line is n_even + n_odd.

Counts come from Sturm/Sylvester inertia (negative pivots of the shifted
triangular factorization) and eigenvalues from bisection on the count, on the
line's Gershgorin bracket (both blocks carry it) cut at a bound: a spectrum
report bisects only the eigenvalues below the essential edge, the ones it
lists.  No eigenvector is computed, and importing this module loads no scipy.
`kernel_residual` measures how far the blocks are from the kernel facts (L2's
zero mode, L1's trivial kernel); the spectrum report and the verdict's
preconditions both read it.  `quadratic_form_discrete` samples the form
(L1 phi, phi) on a grid.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, InstabilityError, RegimeError
from .profile import ProfileEvaluator, Regime, WaveParameters

__all__ = [
    "Space",
    "OperatorKind",
    "GridSpec",
    "TridiagonalOperator",
    "SpectrumReport",
    "default_grid",
    "discretize_operator",
    "parity_blocks",
    "inertia_below",
    "lowest_eigenvalues",
    "parity_counts",
    "zero_exclusion_shift",
    "kernel_residual",
    "spectrum_report",
    "quadratic_form_discrete",
    "negative_direction_check",
]


class OperatorKind(enum.Enum):
    L1 = "L1"
    L2 = "L2"
    FREE_WITH_DELTA = "free"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-half_width, half_width] with an odd node count, so
    x = 0 is a node.  Values beyond the outermost nodes are treated as zero."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise GridError(f"half_width must be positive, got {self.half_width}")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise GridError(f"grid needs an odd n_points >= 3, got {self.n_points}")
        if not math.isfinite(self.spacing):
            raise GridError(f"spacing {self.spacing} of half_width {self.half_width} is not finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    @property
    def center_index(self) -> int:
        return (self.n_points - 1) // 2

    def nodes(self) -> np.ndarray:
        # Built as h*(i - c) so that x[c+j] and x[c-j] are exact negatives;
        # bitwise mirror symmetry matters for parity-exact time stepping.
        return self.spacing * (np.arange(self.n_points) - self.center_index)

    def refined(self) -> "GridSpec":
        """Same extent with doubled resolution."""
        return GridSpec(self.half_width, 2 * self.n_points - 1)


#: Grid size of `default_grid` when the caller gives none (`spectrum --n`, `simulate --n`).
DEFAULT_GRID_POINTS = 4001


def default_grid(p: WaveParameters, n_points: int = DEFAULT_GRID_POINTS) -> GridSpec:
    """Grid at the precondition floor L = 30/sqrt(-omega)."""
    L = 30.0 / math.sqrt(-p.omega)
    return GridSpec(L, n_points)


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix whose spectrum lies in `bracket` = (lo, hi):
    a line's Gershgorin enclosure, which its parity blocks carry too."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    spacing: float
    bracket: tuple[float, float]

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.offdiagonal * v[1:]
        out[1:] += self.offdiagonal * v[:-1]
        return out


def _potential(kind: OperatorKind, p: WaveParameters, x: np.ndarray) -> np.ndarray:
    if kind is OperatorKind.FREE_WITH_DELTA:
        return np.zeros_like(x)
    phi_sq = ProfileEvaluator.from_params(p).value(x) ** 2
    if kind is OperatorKind.L1:
        return -p.omega - 3.0 * p.lambda1 * phi_sq - 5.0 * p.lambda2 * phi_sq**2
    return -p.omega - p.lambda1 * phi_sq - p.lambda2 * phi_sq**2


def _check_grid(p: WaveParameters, grid: GridSpec) -> None:
    """GridError unless `grid` meets the preconditions of `discretize_operator`;
    builds no array, so `dynamics.simulate` checks a grid before sampling on it."""
    nu = math.sqrt(-p.omega)
    h = grid.spacing
    if h > (0.05 + 1e-12) / nu:
        raise GridError(f"spacing h = {h} exceeds the resolution bound 0.05/sqrt(-omega) = {0.05 / nu}")
    if grid.half_width < (30.0 - 1e-9) / nu:
        raise GridError(f"half width L = {grid.half_width} below the extent bound 30/sqrt(-omega) = {30.0 / nu}")
    even_coupling = math.sqrt(2.0) / h**2 if h**2 > 0.0 else math.inf
    if not math.isfinite(even_coupling * even_coupling):
        raise GridError(f"spacing h = {h} is so fine that the squared coupling 2/h^4 overflows")
    if (1.0 / h**2) ** 2 < sys.float_info.min:
        raise GridError(f"spacing h = {h} is so coarse that the squared coupling 1/h^4 underflows")


def discretize_operator(kind: OperatorKind, p: WaveParameters, grid: GridSpec) -> TridiagonalOperator:
    """Assemble the tridiagonal realization of L1, L2, or the bare defect.

    Preconditions: the grid must resolve the wave (h <= 0.05/sqrt(-omega)) and
    contain it (L >= 30/sqrt(-omega)), and the squared couplings of an inertia
    count must neither overflow (2/h^4, the even block's center row, so h^2 > 0)
    nor underflow (1/h^4, below |omega| of about 1.3e-157 at 2001 nodes, where
    a count would miss negative eigenvalues); GridError otherwise.  The bounds
    allow relative slacks of 1e-12/0.05 and 1e-9/30 (1e-12 and 1e-9 at omega = -1).
    """
    _check_grid(p, grid)
    h = grid.spacing
    x = grid.nodes()
    diag = 2.0 / h**2 + _potential(kind, p, x)
    off = np.full(grid.n_points - 1, -1.0 / h**2)
    diag[grid.center_index] -= p.z / h
    # Every row's Gershgorin radius is at most 2/h^2.
    bracket = (float(np.min(diag)) - 2.0 / h**2, float(np.max(diag)) + 2.0 / h**2)
    return TridiagonalOperator(diag, off, h, bracket)


class Space(enum.Enum):
    """H^1 on the line, or its invariant even subspace H^1_even (the even parity block)."""

    FULL_H1 = "full"
    EVEN_H1 = "even"


def parity_blocks(op: TridiagonalOperator) -> tuple[TridiagonalOperator, TridiagonalOperator]:
    """Even and odd blocks of a full-line operator, as slices of it at its center row.

    On the x >= 0 half of an even vector the center row couples twice to its
    neighbor; symmetrizing scales that coupling by sqrt(2) (the ghost-point
    closure of f'(0+) = -(Z/2) f(0)).  The odd block is Dirichlet on x > 0.
    Each block's spectrum is part of the line's, so both carry its bracket.
    """
    c, h = op.size // 2, op.spacing
    even_off = op.offdiagonal[c:].copy()
    even_off[0] = -math.sqrt(2.0) / h**2
    return (TridiagonalOperator(op.diagonal[c:], even_off, h, op.bracket),
            TridiagonalOperator(op.diagonal[c + 1:], op.offdiagonal[c + 1:], h, op.bracket))


def inertia_below(op: TridiagonalOperator, shift: float) -> int:
    """Number of eigenvalues strictly below `shift` (Sylvester inertia).

    Counts negative pivots of the LDL^T factorization of (op - shift*I).
    Pivot breakdowns (exact zeros) are replaced by +1e-300, equivalent to an
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


#: Width, relative to its starting width when that is below 1, of the
#: bracket at which eigenvalue bisection stops.
_BISECTION_TOL = 1e-10


def _eigenvalue_by_index(op: TridiagonalOperator, index: int, upper: float) -> float:
    """Eigenvalue `index` (0 the lowest) by bisection on the inertia count,
    on `op.bracket` with its upper end cut to `upper`.

    The bracket must hold the eigenvalue (pass math.inf for the whole span).
    Bisection stops at a width of 1e-10*min(1, hi - lo) of the starting
    bracket: 1e-10 on a bracket at least 1 wide, and relative on a narrower
    one, whose eigenvalues are too small for an absolute 1e-10 to tell apart.
    """
    lo, hi = op.bracket
    hi = min(hi, upper)
    tol = _BISECTION_TOL * min(1.0, hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if inertia_below(op, mid) > index:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def lowest_eigenvalues(op: TridiagonalOperator, k: int, below: float) -> list[float]:
    """The eigenvalues under `below`, ascending, at most k of them.

    One inertia count at `below` gives how many there are, m; eigenvalues
    0 .. min(k, m) - 1 are bisected on `op.bracket` cut at `below` (see
    `_eigenvalue_by_index` for the stop).  With below = math.inf these are
    the k lowest eigenvalues, on the whole bracket.
    """
    if not 1 <= k <= 5:
        raise DomainError(f"k must be between 1 and 5, got {k}")
    m = inertia_below(op, below)
    return [_eigenvalue_by_index(op, j, below) for j in range(min(k, m))]


def zero_exclusion_shift(grid: GridSpec, p: WaveParameters) -> float:
    """Shift -eps used to keep the discrete zero mode out of negative counts.

    The discrete image of a true zero eigenvalue lands at O(h^2 * omega^2), so
    the exclusion must scale the same way; 3*h^2*omega^2 gives an order of
    magnitude of margin at the mandated grids while remaining far below the
    smallest genuinely negative eigenvalues at tested parameters.  The floor
    1e-6*|omega| is relative too: the whole spectrum scales with |omega|.
    """
    return max(1e-6 * abs(p.omega), 3.0 * grid.spacing**2 * p.omega**2)


def parity_counts(kind: OperatorKind, p: WaveParameters, grid: GridSpec) -> tuple[int, int]:
    """Negative eigenvalues (n_even, n_odd) of the two parity blocks,
    verified stable under one refinement."""
    counts = []
    for g in (grid, grid.refined()):
        blocks = parity_blocks(discretize_operator(kind, p, g))
        counts.append(tuple(inertia_below(block, -zero_exclusion_shift(g, p)) for block in blocks))
    if counts[0] != counts[1]:
        moved = " and ".join(name for name, a, b in zip(("even", "odd"), *counts) if a != b)
        raise InstabilityError(
            f"{moved} negative count of {kind.value} changed under refinement: "
            f"(even, odd) = {counts[0]} -> {counts[1]} at omega={p.omega}, Z={p.z}"
        )
    return counts[0]


def kernel_residual(kind: OperatorKind, blocks: Sequence[TridiagonalOperator],
                    lowest: Sequence[Sequence[float]] = ((), ())) -> float | None:
    """The kernel measure of a realization of `kind`, given as its parity
    blocks (even first; the even one alone is the even sector).

    L2 is nonnegative with zero a simple eigenvalue, whose eigenfunction phi
    is positive, hence even: the measure is |lowest eigenvalue of the even
    block|, which tends to 0 at second order in h.  L1 has a trivial kernel
    for Z != 0: the measure is the distance from 0 to the nearest eigenvalue
    on either side, over all blocks.  The bare defect has none: None.
    lowest[b] holds eigenvalues 0, 1, ... of blocks[b] already bisected; any
    other index is bisected here, on the whole bracket.
    """
    if kind is OperatorKind.FREE_WITH_DELTA:
        return None
    # L2 reads the even block and takes no count: its eigenvalue at 0 is the lowest.
    below = [0] if kind is OperatorKind.L2 else [inertia_below(block, 0.0) for block in blocks]
    return min(abs(lowest[b][j] if j < len(lowest[b]) else _eigenvalue_by_index(blocks[b], j, math.inf))
               for b, m in enumerate(below) for j in range(max(m - 1, 0), m + 1))


@dataclass(frozen=True)
class SpectrumReport:
    """Discrete-spectrum summary of one operator realization.

    `eigenvalues` are the lowest ones below `essential_edge`, ascending, at
    most k of them.  The bare defect has no kernel to measure, so its
    `kernel_residual` is None.  `n_points` is the summed size of the parity
    blocks measured (the line's in the full sector)."""

    negative_count: int
    eigenvalues: list[float]
    kernel_residual: float | None
    essential_edge: float
    n_points: int


def spectrum_report(kind: OperatorKind, p: WaveParameters, grid: GridSpec, k: int,
                    sector: Space) -> SpectrumReport:
    """Negative count, the k lowest eigenvalues below the essential edge, and the edge.

    The full sector is both parity blocks, the even sector the even one: the
    count sums the blocks' counts and the list is the k lowest of theirs.
    The edge is -omega for the linearized operators and 0 for the bare
    defect; eigenvalues above it would be box artifacts of the truncation, so
    only those below it are bisected, each once, on a bracket that ends at
    the edge; `kernel_residual` reuses them.
    """
    blocks = parity_blocks(discretize_operator(kind, p, grid))
    if sector is Space.EVEN_H1:
        blocks = blocks[:1]
    edge = 0.0 if kind is OperatorKind.FREE_WITH_DELTA else -p.omega
    lowest = [lowest_eigenvalues(block, k, edge) for block in blocks]
    shift = -zero_exclusion_shift(grid, p)
    return SpectrumReport(sum(inertia_below(block, shift) for block in blocks),
                          sorted(lam for lams in lowest for lam in lams)[:k],
                          kernel_residual(kind, blocks, lowest), edge, sum(block.size for block in blocks))


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
    which forces the quadratic form negative.  `validate_params` already
    enforces |Z| < sqrt(3)*lambda1/(2*sqrt(-lambda2)), Z^2/4 < -omega and
    -omega < -3*lambda1^2/(16*lambda2) for every attractive-repulsive point,
    so only 0 < Z and -omega < -lambda1^2/(6*lambda2) + Z^2/4 are tested here.
    """
    if p.regime is not Regime.ATTRACTIVE_REPULSIVE:
        raise RegimeError("negative_direction_check applies to the attractive-repulsive regime")
    if not (0.0 < p.z and -p.omega < -p.lambda1**2 / (6.0 * p.lambda2) + p.z**2 / 4.0):
        return False
    phi0 = float(ProfileEvaluator.from_params(p).value(0.0))
    return p.lambda1 / (2.0 * p.lambda2) + phi0 * phi0 < 0.0
