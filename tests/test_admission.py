"""One admission rule for user-set numbers: every physical parameter goes
through errors.require_positive and every count through
errors.require_count, so NaN, infinities, non-integers and out-of-range
values are refused the same way everywhere, with a message naming the
parameter."""

import math

import numpy as np
import pytest

from fluctlab.density import FluctuationParams, normalization_check, reduced_box_integral, sample
from fluctlab.errors import InvalidRecipe, require_count, require_positive
from fluctlab.scenarios import MAX_SWEEP_LEVEL, eigenstate_sweep, relaxation_walk
from fluctlab.states import (
    CoherentState,
    GaussianPacket,
    GridSpec,
    HamiltonianSpec,
    UnitSystem,
    _boltzmann_weights,
    build_state,
    oscillator_eigenstates,
)

UNITS = UnitSystem()
GRID = GridSpec(-12.0, 12.0, 256)
PARAMS = FluctuationParams(0.0, 0.0, 1.0, 0.25, UNITS)
BAD_POSITIVE = [0.0, -1.0, math.nan, math.inf, -math.inf]

POSITIVE = {
    "UnitSystem.h": ("Planck constant", lambda v: UnitSystem(h=v)),
    "HamiltonianSpec.mass": ("mass", lambda v: HamiltonianSpec(mass=v, potential=np.zeros(GRID.n))),
    "HamiltonianSpec.harmonic.omega": ("omega", lambda v: HamiltonianSpec.harmonic(GRID, 1.0, v)),
    "oscillator_eigenstates.mass": ("mass", lambda v: oscillator_eigenstates(2, v, 1.0, GRID, UNITS)),
    "oscillator_eigenstates.omega": ("omega", lambda v: oscillator_eigenstates(2, 1.0, v, GRID, UNITS)),
    "build_state.gaussian.sigma": ("sigma", lambda v: build_state(GaussianPacket(sigma=v), GRID, UNITS)),
    "build_state.coherent.mass": ("mass", lambda v: build_state(CoherentState(1.0, mass=v), GRID, UNITS)),
    "build_state.coherent.omega": ("omega", lambda v: build_state(CoherentState(1.0, omega=v), GRID, UNITS)),
    "_boltzmann_weights.omega": ("omega", lambda v: _boltzmann_weights(v, 1.0, 0.5, 40, UNITS)),
    "_boltzmann_weights.mass": ("mass", lambda v: _boltzmann_weights(1.0, v, 0.5, 40, UNITS)),
    "FluctuationParams.var_x": ("var_x", lambda v: FluctuationParams(0.0, 0.0, v, 1.0, UNITS)),
    "FluctuationParams.var_p": ("var_p", lambda v: FluctuationParams(0.0, 0.0, 1.0, v, UNITS)),
    "normalization_check.half_width_sigmas": (
        "half_width_sigmas", lambda v: normalization_check(PARAMS, half_width_sigmas=v)
    ),
    "reduced_box_integral.half_width": ("half_width", lambda v: reduced_box_integral(0.0, 0.0, UNITS, v)),
}

COUNTS = {
    "oscillator_eigenstates.n_max": (
        "n_max", 0, None, lambda v: oscillator_eigenstates(v, 1.0, 1.0, GRID, UNITS)
    ),
    "_boltzmann_weights.n_max": ("n_max", 0, None, lambda v: _boltzmann_weights(1.0, 1.0, 0.5, v, UNITS)),
    "sample.count": ("count", 0, None, lambda v: sample(PARAMS, v, 1)),
    "sample.seed": ("seed", 0, None, lambda v: sample(PARAMS, 3, v)),
    "eigenstate_sweep.n_max": (
        "n_max", 0, MAX_SWEEP_LEVEL, lambda v: eigenstate_sweep(v, 1.0, 1.0, GRID, UNITS)
    ),
    "relaxation_walk.steps": ("steps", 0, None, lambda v: relaxation_walk(PARAMS, v, 0.05, 1, UNITS)),
    "relaxation_walk.seed": ("seed", 0, None, lambda v: relaxation_walk(PARAMS, 3, 0.05, v, UNITS)),
}


def _bad_counts(low, high):
    return [low - 1, 2.5, math.nan, math.inf] + ([] if high is None else [high + 1])


POSITIVE_CASES = [
    pytest.param(name, call, value, id=f"{key}={value}")
    for key, (name, call) in POSITIVE.items()
    for value in BAD_POSITIVE
]
COUNT_CASES = [
    pytest.param(name, call, value, id=f"{key}={value}")
    for key, (name, low, high, call) in COUNTS.items()
    for value in _bad_counts(low, high)
]


@pytest.mark.parametrize("name, call, value", POSITIVE_CASES + COUNT_CASES)
def test_every_admission_names_its_parameter(name, call, value):
    with pytest.raises(InvalidRecipe, match=f"^{name} must be "):
        call(value)


def test_helper_messages():
    with pytest.raises(InvalidRecipe) as exc:
        require_positive("mass", -2.0)
    assert str(exc.value) == "mass must be finite and positive, got -2.0"
    with pytest.raises(InvalidRecipe) as exc:
        require_count("n_max", 31, high=30)
    assert str(exc.value) == "n_max must be an integer in [0, 30], got 31"


def test_require_count_returns_the_admitted_int():
    huge = 10**400
    assert require_count("seed", huge) == huge
    assert require_count("count", 3.0) == 3 and type(require_count("count", 3.0)) is int
    assert require_count("count", np.int64(7)) == 7


@pytest.mark.parametrize(
    "h, admitted, refused",
    [(1e300, 1e300, 1e200), (1e-300, 1e-150, 1e-310), (2.0 * math.pi, 0.5, 0.4999)],
    ids=["bound-squared-overflows", "bound-squared-underflows", "in-range"],
)
def test_bound_holds_where_its_square_leaves_the_floats(h, admitted, refused):
    # (h/4pi)**2 is 6.3e597 at h = 1e300 and 6.3e-603 at h = 1e-300
    units = UnitSystem(h=h)
    FluctuationParams(0.0, 0.0, admitted, admitted, units)
    with pytest.raises(InvalidRecipe, match="violates the bound"):
        FluctuationParams(0.0, 0.0, refused, refused, units)


def test_four_hundred_digit_seed_still_works():
    seed = int("7" * 400)
    assert sample(PARAMS, 5, seed).shape == (5, 2)
    assert np.array_equal(sample(PARAMS, 5, seed), sample(PARAMS, 5, seed))
    walk = relaxation_walk(FluctuationParams(0.0, 0.0, 2.0, 2.0, UNITS), 5, 0.05, seed, UNITS)
    assert len(walk) == 6
    assert walk == relaxation_walk(FluctuationParams(0.0, 0.0, 2.0, 2.0, UNITS), 5, 0.05, seed, UNITS)
