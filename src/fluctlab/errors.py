"""Exception types shared across the package."""


class FluctLabError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidRecipe(FluctLabError, ValueError):
    """Construction parameters outside their admissible range (also a ValueError)."""


class NormalizationError(FluctLabError):
    """Amplitudes or weights fail their normalization invariant."""


class DecayGuardViolation(FluctLabError):
    """State does not vanish at the grid edges; spectral moments untrustworthy."""


class GridMismatch(FluctLabError):
    """Operands live on incompatible grids."""


class TruncationError(FluctLabError):
    """Truncated basis leaves too much weight in the tail."""


class NumericalFailure(FluctLabError):
    """A computed value is off by more than roundoff can explain."""


class NonPositiveInput(FluctLabError):
    """Input must be strictly positive."""


class ZeroSeparation(FluctLabError):
    """Phase-space point coincides with a mean along some axis."""


class StepTooLarge(FluctLabError):
    """Finite-difference step outside the usable range."""


class ResolutionError(FluctLabError):
    """Quadrature mesh too coarse to resolve the integrand."""


class FileFormatError(FluctLabError):
    """Malformed state or ensemble file."""
