"""Independent oracles for checking the package's fast paths.

`kernel_propagator_apply` is the linear defect flow in the explicit kernel
form of the defect group: free evolution of the field convolved with an
exponential filter, assembled by half-lines.  It is the scattering
decomposition, exact for fields supported left of a repulsive defect, and
shares no code with the Crank-Nicolson stepper it checks.
"""

import numpy as np

from peakwave.dynamics import FieldState
from peakwave.errors import DomainError

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
