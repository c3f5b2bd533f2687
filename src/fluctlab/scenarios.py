"""Reproducible experiment harness: parameter sweeps over model systems and
a toy relaxation walk toward the bound.

The walk is invented dynamics - a seeded multiplicative contraction of the
gap above the bound - included to illustrate monotone approach to
saturation, not to model any equation of motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audit import _weight_entropy, classify, uncertainty_product
from .density import FluctuationParams
from .errors import InvalidRecipe, require_count
from .states import (
    GridSpec,
    UnitSystem,
    _boltzmann_weights,
    _eigenstate_levels,
    _mixture_report,
    phase_space_moments,
)

MAX_SWEEP_LEVEL = 30


@dataclass(frozen=True)
class SweepRow:
    label: str
    parameter: float
    product: float
    bound: float
    classification: str
    entropy_surrogate: float


@dataclass(frozen=True)
class WalkTrace:
    step: int
    product: float
    distance_to_bound: float


def _sweep_row(label: str, parameter: float, weights, report, units: UnitSystem, epsilon: float) -> SweepRow:
    """Audit of a mixture of these weights (one weight 1 for a pure state) whose moments are `report`."""
    result = classify(report, units, epsilon)
    return SweepRow(
        label=label,
        parameter=parameter,
        product=result.product,
        bound=result.bound,
        classification=result.verdict.value,
        entropy_surrogate=_weight_entropy(weights),
    )


def eigenstate_sweep(
    n_max: int,
    mass: float,
    omega: float,
    grid: GridSpec,
    units: UnitSystem,
    epsilon: float = 1e-6,
) -> list[SweepRow]:
    """One row per oscillator level 0..n_max, each measured, then dropped; products are (2n+1) x bound."""
    n_max = require_count("n_max", n_max, high=MAX_SWEEP_LEVEL)
    return [
        _sweep_row(f"n={n}", float(n), np.ones(1), phase_space_moments(state, units), units, epsilon)
        for n, state in enumerate(_eigenstate_levels(n_max, mass, omega, grid, units))
    ]


def thermal_sweep(
    temperatures,
    mass: float,
    omega: float,
    n_max: int,
    grid: GridSpec,
    units: UnitSystem,
    epsilon: float = 1e-6,
) -> list[SweepRow]:
    """One row per temperature for the Boltzmann oscillator mixture (k_B = 1).

    Every temperature's weights come first; then the levels down to the deepest
    any temperature keeps are built, measured and dropped one at a time.  Each row
    combines the leading levels' moments with its weights, as ensemble_moments(thermal_ensemble(...)) would.
    """
    temperatures = [float(t) for t in temperatures]
    weights = [_boltzmann_weights(omega, mass, t, n_max, units) for t in temperatures]
    if not weights:
        return []
    levels = _eigenstate_levels(max(w.size for w in weights) - 1, mass, omega, grid, units)
    reports = [phase_space_moments(level, units) for level in levels]
    return [
        _sweep_row(f"T={t:g}", t, w, _mixture_report(w, reports[: w.size]), units, epsilon)
        for t, w in zip(temperatures, weights)
    ]


def relaxation_walk(
    start: FluctuationParams,
    steps: int,
    step_size: float,
    seed: int,
    units: UnitSystem,
) -> list[WalkTrace]:
    """Seeded contraction of the product toward the bound.

    Each step multiplies the gap above the bound by (1 - step_size * u) with
    u uniform on (0, 1), then projects so the product never crosses below
    the bound.  The trace has steps + 1 points and is monotone nonincreasing.
    """
    steps = require_count("steps", steps)
    if not (0.0 < step_size < 0.5):
        raise InvalidRecipe(f"step_size must lie in (0, 0.5), got {step_size}")
    seed = require_count("seed", seed)
    bound = units.bound
    gap0 = max(uncertainty_product(start) - bound, 0.0)
    draws = np.random.default_rng(seed).random(steps)
    gaps = np.empty(steps + 1)
    gaps[0] = gap0
    gaps[1:] = gap0 * np.cumprod(1.0 - step_size * draws)
    np.maximum(gaps, 0.0, out=gaps)
    return [
        WalkTrace(step=k, product=bound + gap, distance_to_bound=gap)
        for k, gap in enumerate(gaps.tolist())
    ]
