"""Orbital stability verdicts from index bookkeeping.

The criterion compares the Morse index n of the linearized pair (all of it
carried by L1, since L2 is nonnegative with a simple kernel) to the slope
index p: equality means orbitally stable, an odd difference means orbitally
unstable, and an even nonzero difference is outside the criterion's reach.

For a negative defect the second negative eigenfunction of L1 is odd, so it
drops out when the dynamics is restricted to even fields; in that sector the
index is 1 and the bookkeeping closes again.  When the full-space difference
is even and nonzero, instability established in the invariant even sector is
inherited by the full space (an even field escaping the orbit witnesses
escape in the full norm), which is how the unstable strengths below the
threshold are classified.

One rule turns indices into verdicts, and both classifiers feed it; each
returns both spaces' verdicts as a `{Space: Verdict}` dict, and `compare`
compares the two dicts.  `classify_numeric` makes one pass per parameter
point: the kernel preconditions (`spectral.kernel_residual` of each
operator's parity blocks), the slope index p and each operator's negative
counts (n_even, n_odd) on its two parity blocks are computed once; the full
index is n_even + n_odd.  `classify_analytic` supplies the proven indices
instead: n = 1 for Z >= 0 and 2 for Z < 0 on the full line, n = 1 in the
even sector, and p = 1 except below the unit-coefficient threshold
z* = -sqrt(3)/2 of a focusing pair (a focusing cubic with defocusing quintic
has p = 1 throughout).  Any other focusing pair is reduced to the unit
coefficients by the exact scaling u = A v(Bx, B^2 t) with A^2 =
lambda1/lambda2 and B^2 = lambda1^2/lambda2, which maps the strength to
Z * sqrt(lambda2) / lambda1 and keeps the Morse counts and the slope sign.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import spectral, vk
from .errors import DegenerateError, PreconditionError
from .profile import Regime, WaveParameters
from .spectral import GridSpec, OperatorKind, Space

__all__ = [
    "Space",
    "Outcome",
    "Provenance",
    "Verdict",
    "classify_numeric",
    "classify_analytic",
    "compare",
]


class Outcome(enum.Enum):
    ORBITALLY_STABLE = "OrbitallyStable"
    ORBITALLY_UNSTABLE = "OrbitallyUnstable"
    INDETERMINATE = "Indeterminate"


class Provenance(enum.Enum):
    NUMERIC_PIPELINE = "numeric"
    ANALYTIC_TABLE = "analytic"


@dataclass(frozen=True)
class Verdict:
    """Stability verdict with the indices that produced it."""

    n_hessian: int
    p_index: int
    outcome: Outcome
    provenance: Provenance
    note: str


#: Grid size of the numeric verdict `compare` reads, and the default of `classify --n`.
NUMERIC_GRID_POINTS = 2001

#: Half-width of the strength interval around the threshold excluded from
#: classification (slope index degenerates there).
ZSTAR_EXCLUSION = 1e-6

_ODD_NOTE = "index difference odd: nonlinear instability inferred from the linearized flow"


def _bookkeep(n: int, p: int) -> Outcome:
    if n == p:
        return Outcome.ORBITALLY_STABLE
    if (n - p) % 2 == 1:
        return Outcome.ORBITALLY_UNSTABLE
    return Outcome.INDETERMINATE


def _check_preconditions(p: WaveParameters, grid: GridSpec) -> None:
    if p.z == 0.0:
        raise PreconditionError(
            "Z = 0 carries a translation zero mode of L1; the phase-only criterion does not apply"
        )
    l2_zero, l1_gap = (
        spectral.kernel_residual(kind, spectral.parity_blocks(spectral.discretize_operator(kind, p, grid)))
        for kind in (OperatorKind.L2, OperatorKind.L1))
    zero_tol = 1e-2 * max(1.0, abs(p.omega))
    if l2_zero > zero_tol:
        raise PreconditionError(
            f"L2 lowest eigenvalue {l2_zero} too far from 0 (tol {zero_tol}); "
            "kernel check failed at this grid"
        )
    gap_tol = spectral.zero_exclusion_shift(grid, p)
    if l1_gap <= gap_tol:
        raise PreconditionError(
            f"L1 spectrum approaches 0 within {l1_gap}; "
            "trivial-kernel check failed at this grid"
        )


def _verdicts(n_full: int, n_even: int, p_idx: int, provenance: Provenance) -> dict[Space, Verdict]:
    """Both verdicts from the Morse index of each space and the slope index."""
    n = {Space.FULL_H1: n_full, Space.EVEN_H1: n_even}
    outcome = {space: _bookkeep(count, p_idx) for space, count in n.items()}
    note = {space: _ODD_NOTE if o is Outcome.ORBITALLY_UNSTABLE else "" for space, o in outcome.items()}
    if (outcome[Space.FULL_H1] is Outcome.INDETERMINATE
            and outcome[Space.EVEN_H1] is Outcome.ORBITALLY_UNSTABLE):
        outcome[Space.FULL_H1] = Outcome.ORBITALLY_UNSTABLE
        note[Space.FULL_H1] = (
            "full-space index difference is even; instability inherited from the "
            "invariant even sector"
        )
    return {space: Verdict(n[space], p_idx, outcome[space], provenance, note[space])
            for space in Space}


def classify_numeric(p: WaveParameters, grid: GridSpec) -> dict[Space, Verdict]:
    """Both numeric verdicts from one precondition check, one slope index and
    one pair of parity counts per operator."""
    _check_preconditions(p, grid)
    p_idx = vk.p_index(p)
    even, odd = zip(*(spectral.parity_counts(kind, p, grid) for kind in (OperatorKind.L1, OperatorKind.L2)))
    return _verdicts(sum(even) + sum(odd), sum(even), p_idx, Provenance.NUMERIC_PIPELINE)


def classify_analytic(p: WaveParameters) -> dict[Space, Verdict]:
    """Both verdicts from the proven classification tables.

    A focusing pair is compared with the unit-coefficient threshold
    `vk.ZSTAR_REFERENCE` = -sqrt(3)/2 after scaling Z onto unit coefficients.
    """
    if p.regime is Regime.ATTRACTIVE_REPULSIVE:
        if p.z == 0.0:
            raise DegenerateError("the attractive-repulsive classification covers Z != 0 only")
        z_u, p_idx = p.z, 1
    else:
        # Exact scaling onto unit coefficients; z_u == Z for lambda1 = lambda2 = 1.
        z_u = p.z * math.sqrt(p.lambda2) / p.lambda1
        if abs(z_u - vk.ZSTAR_REFERENCE) <= ZSTAR_EXCLUSION:
            raise DegenerateError(
                f"scaled strength Z * sqrt(lambda2) / lambda1 = {z_u} within {ZSTAR_EXCLUSION} "
                f"of the unit threshold {vk.ZSTAR_REFERENCE}"
            )
        p_idx = 1 if z_u > vk.ZSTAR_REFERENCE else 0
    return _verdicts(1 if z_u >= 0.0 else 2, 1, p_idx, Provenance.ANALYTIC_TABLE)


def compare(p: WaveParameters) -> bool:
    """True when the numeric and analytic classifiers agree in both spaces,
    the numeric one on the default grid of `NUMERIC_GRID_POINTS` nodes.

    Raises DegenerateError near the threshold (both classifiers decline
    there, which is a shared exclusion, not a disagreement).
    """
    numeric = classify_numeric(p, spectral.default_grid(p, n_points=NUMERIC_GRID_POINTS))
    analytic = classify_analytic(p)
    return all(numeric[space].outcome is analytic[space].outcome for space in Space)
