"""Peak standing waves of the cubic-quintic NLS with a delta defect.

Closed-form profiles, charge-slope (Vakhitov-Kolokolov type) indices, Morse
indices of the linearized operators by tridiagonal inertia counts, the
stability threshold of the defect strength, and split-step time integration.
"""

from .errors import (
    BlowupError,
    BracketError,
    DegenerateError,
    DomainError,
    GridError,
    InstabilityError,
    PeakwaveError,
    PreconditionError,
    RegimeError,
)
from .profile import (
    ProfileEvaluator,
    Regime,
    Side,
    WaveParameters,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BlowupError",
    "BracketError",
    "DegenerateError",
    "DomainError",
    "GridError",
    "InstabilityError",
    "PeakwaveError",
    "PreconditionError",
    "RegimeError",
    "ProfileEvaluator",
    "Regime",
    "Side",
    "WaveParameters",
    "validate_params",
]
