"""Uncertainty-product audits: bound comparison, regime labels, time-energy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidRecipe, NonPositiveInput, require_finite
from .states import (
    HamiltonianSpec,
    MixedEnsemble,
    MomentReport,
    UnitSystem,
    _mixture,
    _state_energy,
    _total_variance,
    ensemble_moments,
)


class Verdict(str, Enum):
    """Where the product sits relative to the bound.

    MINIMAL marks saturation within tolerance (the regime conventionally
    labeled equilibrium), STRICT a genuine excess (non-equilibrium label),
    BELOW_BOUND a product under the bound - always a numerical artifact of
    discretized inputs, flagged rather than raised.
    """

    MINIMAL = "minimal"
    STRICT = "strict"
    BELOW_BOUND = "below_bound"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    product: float
    bound: float
    relative_excess: float


@dataclass(frozen=True)
class SelfSimilarityReport:
    """Energy spreads of each member next to the ensemble spread.

    max_relative_spread is reported, never asserted small: generic mixtures
    separate the member and ensemble spreads arbitrarily far.
    """

    member_delta_e: tuple
    ensemble_delta_e: float
    max_relative_spread: float


def uncertainty_product(report) -> float:
    """sqrt(var_x * var_p) of a MomentReport or FluctuationParams, binary exponents set apart first (an
    exact scaling): the plain formula's value where var_x * var_p is a normal float, right where it is not."""
    (mx, ex), (mp, ep) = math.frexp(report.var_x), math.frexp(report.var_p)
    return math.ldexp(math.sqrt(math.ldexp(mx * mp, (ex + ep) % 2)), (ex + ep) // 2)


def classify(report: MomentReport, units: UnitSystem, epsilon: float = 1e-6) -> Classification:
    """Label a moment report against the bound h/(4*pi).

    epsilon is the relative half-width of the saturation band and must lie
    in (0, 0.1).
    """
    if not (0.0 < epsilon < 0.1):
        raise InvalidRecipe(f"epsilon must lie in (0, 0.1), got {epsilon}")
    product = uncertainty_product(report)
    bound = units.bound
    excess = product / bound - 1.0
    if abs(excess) <= epsilon:
        verdict = Verdict.MINIMAL
    elif excess > epsilon:
        verdict = Verdict.STRICT
    else:
        verdict = Verdict.BELOW_BOUND
    return Classification(verdict=verdict, product=product, bound=bound, relative_excess=excess)


def time_energy(delta_e: float, units: UnitSystem) -> float:
    """Reference-time interval h/(4*pi*delta_e) paired with an energy spread.

    Applying it twice returns the input, so it converts either way.
    """
    if not (delta_e > 0 and math.isfinite(delta_e)):
        raise NonPositiveInput(f"energy spread must be positive and finite, got {delta_e}")
    delta_t = units.bound / delta_e
    require_finite("delta_t = h/(4*pi*delta_e)", delta_t)
    return delta_t


def _weight_entropy(w) -> float:
    """-sum(w*ln w) of mixture weights; 0 for one weight 1, at most ln(len(w))."""
    return float(max(0.0, -(w @ np.log(w))))


def entropy_surrogate(ensemble: MixedEnsemble) -> float:
    """Weight entropy of a mixture (a pure state counts as the one-member mixture)."""
    return _weight_entropy(_mixture(ensemble)[0])


def self_similarity_report(
    ensemble: MixedEnsemble, hamiltonian: HamiltonianSpec, units: UnitSystem
) -> SelfSimilarityReport:
    """Member energy spreads (about each member's own mean) versus the
    ensemble spread (about the ensemble mean); each member is measured
    once and the ensemble spread combines those measurements by the law of
    total variance."""
    energies = [_state_energy(m, hamiltonian, units) for m in ensemble.members]
    member = tuple(math.sqrt(var) for _, var in energies)
    ensemble_delta = math.sqrt(_total_variance(ensemble.weights, *zip(*energies))[1])
    spread = max(abs(d - ensemble_delta) for d in member) / max(ensemble_delta, 1e-300)
    return SelfSimilarityReport(
        member_delta_e=member,
        ensemble_delta_e=ensemble_delta,
        max_relative_spread=spread,
    )


def audit_report(target, units: UnitSystem, epsilon: float = 1e-6, delta_e: float | None = None) -> dict:
    """Assemble the JSON-ready audit of a PureState or MixedEnsemble; a pure
    state is audited as the one-member mixture.

    delta_t is filled from an externally supplied energy spread when given,
    else null; the moment data alone carries no energy scale.
    """
    result = classify(ensemble_moments(target, units), units, epsilon)
    return {
        "product": result.product,
        "bound": result.bound,
        "classification": result.verdict.value,
        "relative_excess": result.relative_excess,
        "delta_t": time_energy(delta_e, units) if delta_e is not None else None,
        "entropy_surrogate": entropy_surrogate(target),
    }
