"""Exception types, and the one admission rule for numbers (require_positive, require_count and
require_finite, each raising InvalidRecipe naming the quantity).  NumericalFailure and its subclasses
DecayGuardViolation, TruncationError and ResolutionError exit 3; every other FluctLabError exits 2."""

import math


class FluctLabError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidRecipe(FluctLabError, ValueError):
    """Construction parameters outside their admissible range (also a ValueError)."""


class NormalizationError(FluctLabError):
    """Amplitudes or weights fail their normalization invariant."""


class NumericalFailure(FluctLabError):
    """A computed value is off by more than roundoff can explain (base class)."""


class DecayGuardViolation(NumericalFailure):
    """State does not vanish at the grid edges; spectral moments untrustworthy."""


class GridMismatch(FluctLabError):
    """Operands live on incompatible grids."""


class TruncationError(NumericalFailure):
    """Truncated basis leaves too much weight in the tail."""


class NonPositiveInput(FluctLabError):
    """Input must be strictly positive."""


class ZeroSeparation(FluctLabError):
    """Phase-space point coincides with a mean along some axis."""


class StepTooLarge(FluctLabError):
    """Finite-difference step outside the usable range."""


class ResolutionError(NumericalFailure):
    """Quadrature mesh too coarse to resolve the integrand."""


class FileFormatError(FluctLabError):
    """Malformed state or ensemble file."""


def require_positive(name: str, value) -> None:
    """InvalidRecipe naming the parameter unless value is finite and > 0."""
    if not 0 < value < math.inf:
        raise InvalidRecipe(f"{name} must be finite and positive, got {value}")


def require_count(name: str, value, high=math.inf) -> int:
    """value as an int when it is a whole number in [0, high], else InvalidRecipe
    naming it; ints of any size pass exactly, NaN and infinities are refused."""
    if not (value % 1 == 0 and 0 <= value <= high):
        raise InvalidRecipe(f"{name} must be an integer in [0, {high}], got {value}")
    return int(value)


def require_finite(name: str, *values) -> None:
    """InvalidRecipe naming the quantity unless every value is finite (ints of any size are)."""
    if not all(-math.inf < v < math.inf for v in values):
        raise InvalidRecipe(f"{name} must be finite, got {', '.join(map(str, values))}")
