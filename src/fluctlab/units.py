"""Working units and the trapezoid rule: what states and densities both
need, kept apart so that a density command loads no state machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import require_positive

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UnitSystem:
    """Working units, fixed by the Planck constant h (default h = 2*pi, i.e. hbar = 1)."""

    h: float = TWO_PI

    def __post_init__(self):
        require_positive("Planck constant", self.h)

    @property
    def hbar(self) -> float:
        return self.h / TWO_PI

    @property
    def bound(self) -> float:
        """Lower bound h/(4*pi) on the product of position and momentum spreads."""
        return self.h / (4.0 * math.pi)


def _trapz(y, dx: float) -> float:
    return float(dx * (y.sum() - 0.5 * (y[0] + y[-1])))
