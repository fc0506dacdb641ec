"""Exception hierarchy for peakwave.

Every error raised by the library derives from :class:`PeakwaveError`.  A bad
argument is a :class:`RegimeError` (the wave parameters) or a
:class:`DomainError` (anything else, a time step included); the CLI exits 2 on
those two and 3 on every other, numerical, failure.
"""


class PeakwaveError(Exception):
    """Base class for all peakwave errors."""


class RegimeError(PeakwaveError):
    """Parameters violate the admissible sign/inequality regime."""


class DomainError(PeakwaveError):
    """Argument outside the domain of an operation (an inadmissible time step included)."""


class DegenerateError(PeakwaveError):
    """Quantity too close to a degeneracy (e.g. the slope threshold) to classify."""


class BracketError(PeakwaveError):
    """Root bracket endpoints do not straddle a sign change."""


class GridError(PeakwaveError):
    """Grid does not resolve or contain the structures being discretized."""


class InstabilityError(PeakwaveError):
    """A count or check changed under grid refinement."""


class BlowupError(PeakwaveError):
    """Field amplitude exceeded the blow-up guard during time integration."""


class PreconditionError(PeakwaveError):
    """A spectral precondition required by a classification failed."""
