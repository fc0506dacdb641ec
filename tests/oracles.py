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
"""

import math

import numpy as np

from peakwave.dynamics import FieldState
from peakwave.errors import DomainError
from peakwave.profile import ProfileEvaluator
from peakwave.spectral import GridSpec, OperatorKind, TridiagonalOperator

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


def even_sector_operator(kind: OperatorKind, p, grid: GridSpec) -> TridiagonalOperator:
    """Ghost-point assembly of the even sector on the x >= 0 half of `grid`.

    The half line [0, L] holds grid.center_index + 1 nodes from the defect
    out.  The ghost value f(-h) = f(h) turns the center row into
    (2 f_0 - 2 f_1)/h^2 - (Z/h) f_0; the similarity that makes the matrix
    symmetric scales its first coupling to -sqrt(2)/h^2.
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
    return TridiagonalOperator(diag, off, h, 0)
