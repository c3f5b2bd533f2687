"""Reproducible experiment harness: parameter sweeps over model systems and
a toy relaxation walk toward the bound.

The walk is invented dynamics - a seeded multiplicative contraction of the
gap above the bound - included to illustrate monotone approach to
saturation, not to model any equation of motion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._turns import BLOCK_ROWS, _shared
from .audit import SATURATION_EPSILON, _weight_entropy, classify, uncertainty_product
from .errors import InvalidRecipe, require_count
from .states import (
    GridSpec,
    UnitSystem,
    _boltzmann_weights,
    _eigenstate_level,
    _hermite_rows,
    _mixture_report,
    _moments,
)
from .units import _Record

if TYPE_CHECKING:  # a sweep needs no density module; the walk's caller makes the params
    from .density import FluctuationParams

MAX_SWEEP_LEVEL = 30


class SweepRow(_Record):
    label: str
    parameter: float
    product: float
    bound: float
    classification: str
    entropy_surrogate: float


class WalkTrace(_Record):
    step: int
    product: float
    distance_to_bound: float


def _sweep_row(label: str, parameter: float, weights, report, units: UnitSystem, epsilon: float) -> SweepRow:
    """Audit of a mixture of these weights (one weight 1 for a pure state) whose moments are `report`."""
    result = classify(report, units, epsilon)
    return SweepRow(label, parameter, result.product, result.bound, result.verdict.value, _weight_entropy(weights))


def eigenstate_sweep(
    n_max: int,
    mass: float,
    omega: float,
    grid: GridSpec,
    units: UnitSystem,
    epsilon: float = SATURATION_EPSILON,
) -> list[SweepRow]:
    """One row per oscillator level 0..n_max, each measured, then dropped; products are (2n+1) x bound."""
    n_max = require_count("n_max", n_max, high=MAX_SWEEP_LEVEL)
    return [
        _sweep_row(f"n={n}", float(n), np.ones(1), report, units, epsilon)
        for n, report in enumerate(_measured_levels(n_max, mass, omega, grid, units))
    ]


def thermal_sweep(
    temperatures,
    mass: float,
    omega: float,
    n_max: int,
    grid: GridSpec,
    units: UnitSystem,
    epsilon: float = SATURATION_EPSILON,
) -> list[SweepRow]:
    """One row per temperature for the Boltzmann oscillator mixture (k_B = 1).

    Every temperature's weights come first; then the levels down to the deepest
    any temperature keeps are built, measured and dropped one at a time, shared
    by two processes where they can be (see _measured_levels), each level
    admitted and refused as thermal_ensemble admits it.  Each row combines
    the leading levels' moments with its weights, as
    ensemble_moments(thermal_ensemble(...)) would.
    """
    temperatures = [float(t) for t in temperatures]
    weights = [_boltzmann_weights(omega, mass, t, n_max, units) for t in temperatures]
    if not weights:
        return []
    reports = _measured_levels(max(w.size for w in weights) - 1, mass, omega, grid, units)
    return [
        _sweep_row(f"T={t:g}", t, w, _mixture_report(w, reports[: w.size]), units, epsilon)
        for t, w in zip(temperatures, weights)
    ]


def _measured_levels(n_max, mass, omega, grid: GridSpec, units: UnitSystem) -> list:
    """_level_moments of oscillator levels 0..n_max, in order, in one of two
    processes where two CPUs are free (see _turns._shared).  Each process
    runs the recurrence itself, and builds and measures every level it takes
    in the same three arrays, its own copy of the ones made here."""
    level = grid, units, np.empty(grid.n, np.complex128), np.empty(grid.n), np.empty(grid.n)
    return list(_shared(lambda k, item: _level_moments(*level, item), _hermite_rows(n_max, mass, omega, grid, units)))


def _level_moments(grid: GridSpec, units: UnitSystem, amp, prob, scratch, item):
    """phase_space_moments of the oscillator level of item (see states._hermite_rows),
    built into amp (complex), admitted as build_state admits its state (see
    states._eigenstate_level), and measured there: the admission's |psi|^2 in
    prob is the probability, and the DFT overwrites amp, as the level is
    dropped.  scratch is a third array."""
    return _moments(grid, units, _eigenstate_level(grid, item, amp, prob), prob, amp, scratch)


def relaxation_walk(
    start: FluctuationParams,
    steps: int,
    step_size: float,
    seed: int,
) -> list[WalkTrace]:
    """Seeded contraction of the product toward the bound of start.units.

    Each step multiplies the gap above the bound by (1 - step_size * u) with
    u uniform on (0, 1), then projects so the product never crosses below
    the bound.  The trace has steps + 1 points and is monotone nonincreasing.
    """
    return [
        WalkTrace(k, product, gap)
        for rows, products, gaps in walk_blocks(start, steps, step_size, seed)
        for k, product, gap in zip(rows, products.tolist(), gaps.tolist())
    ]


def walk_blocks(start: FluctuationParams, steps: int, step_size: float, seed: int):
    """relaxation_walk's points in order, as (rows, products, gaps) blocks of
    at most BLOCK_ROWS points: a range of step numbers and two float arrays.

    The uniforms are drawn one block at a time, and the running product of
    the factors so far is folded into each block's first factor before the
    block's cumulative product, so every gap is the same float as one
    cumulative product over all the steps gives.  Arguments are admitted
    before the first block.
    """
    steps = require_count("steps", steps)
    if not (0.0 < step_size < 0.5):
        raise InvalidRecipe(f"step_size must lie in (0, 0.5), got {step_size}")
    seed = require_count("seed", seed)
    bound = start.units.bound
    gap0 = max(uncertainty_product(start) - bound, 0.0)
    return _walk_blocks(bound, gap0, steps, step_size, np.random.default_rng(seed))


def _walk_blocks(bound: float, gap0: float, steps: int, step_size: float, rng):
    running = 1.0  # product of every earlier factor; point 0's factor is 1
    for first in range(0, steps + 1, BLOCK_ROWS):
        rows = range(first, min(first + BLOCK_ROWS, steps + 1))
        head = 1 if first == 0 else 0
        factors = np.empty(len(rows))
        factors[:head] = 1.0
        factors[head:] = 1.0 - step_size * rng.random(len(rows) - head)
        factors[0] *= running
        cumulative = np.cumprod(factors)
        running = cumulative[-1]
        gaps = np.maximum(gap0 * cumulative, 0.0)
        yield rows, bound + gaps, gaps
