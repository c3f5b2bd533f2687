"""One admission rule for user-set numbers: every physical parameter goes
through errors.require_positive, every count through errors.require_count
and every other number that must be finite through errors.require_finite,
so NaN, infinities, non-integers, out-of-range values and overflowing
intermediate results are refused the same way everywhere, with a message
naming the quantity."""

import math
import re
import sys

import numpy as np
import pytest

from fluctlab.audit import time_energy
from fluctlab.density import (
    FluctuationParams,
    PhasePoint,
    extremal_variances,
    normalization_check,
    reduced_box_integral,
    reduced_density,
    reduced_grid,
    sample,
    verify_extremum,
)
from fluctlab.errors import InvalidRecipe, require_count, require_finite, require_positive
from fluctlab.scenarios import MAX_SWEEP_LEVEL, eigenstate_sweep, relaxation_walk
from fluctlab.states import (
    CoherentState,
    GaussianPacket,
    GridSpec,
    HamiltonianSpec,
    MomentReport,
    UnitSystem,
    _boltzmann_weights,
    build_state,
    oscillator_eigenstates,
    phase_space_moments,
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


POINT = PhasePoint(1.0, 1.0)
AXIS = np.linspace(-1.0, 1.0, 3)
FLOAT_MAX = sys.float_info.max

# Numbers taken as given: each is fed NaN and both infinities.
FINITE = {
    "GridSpec.x_min": ("grid endpoints and span", lambda v: GridSpec(v, 1.0, 8)),
    "GridSpec.x_max": ("grid endpoints and span", lambda v: GridSpec(-1.0, v, 8)),
    "PhasePoint.x": ("phase point", lambda v: PhasePoint(v, 0.0)),
    "PhasePoint.p": ("phase point", lambda v: PhasePoint(0.0, v)),
    "FluctuationParams.mean_x": ("means", lambda v: FluctuationParams(v, 0.0, 1.0, 1.0, UNITS)),
    "FluctuationParams.mean_p": ("means", lambda v: FluctuationParams(0.0, v, 1.0, 1.0, UNITS)),
    "build_state.gaussian.center": (
        "center and momentum", lambda v: build_state(GaussianPacket(center=v), GRID, UNITS)
    ),
    "build_state.gaussian.momentum": (
        "center and momentum", lambda v: build_state(GaussianPacket(momentum=v), GRID, UNITS)
    ),
    "build_state.coherent.alpha": (
        "center and momentum", lambda v: build_state(CoherentState(complex(v, 0.0)), GRID, UNITS)
    ),
    **{
        f"MomentReport.{field}": (field, lambda v, i=i: MomentReport(*[v if j == i else 1.0 for j in range(4)]))
        for i, field in enumerate(("mean_x", "mean_p", "var_x", "var_p"))
    },
    "reduced_density.mean_x": ("separations and rate 4*pi/h", lambda v: reduced_density(v, 0.0, POINT, UNITS)),
    "reduced_density.mean_p": ("separations and rate 4*pi/h", lambda v: reduced_density(0.0, v, POINT, UNITS)),
    "reduced_grid.mean_x": ("separations and rate 4*pi/h", lambda v: reduced_grid(v, 0.0, UNITS, AXIS, AXIS)),
    "reduced_grid.mean_p": ("separations and rate 4*pi/h", lambda v: reduced_grid(0.0, v, UNITS, AXIS, AXIS)),
    "extremal_variances.mean_x": ("separations", lambda v: extremal_variances(v, 0.0, POINT, UNITS)),
    "extremal_variances.mean_p": ("separations", lambda v: extremal_variances(0.0, v, POINT, UNITS)),
    "verify_extremum.mean_x": ("separations", lambda v: verify_extremum(v, 0.0, POINT, UNITS)),
}

# Results of finite inputs that leave the floats, each with an input that
# makes it overflow (or, for an infinite rate times zero, NaN).
OVERFLOWS = {
    "GridSpec span": ("grid endpoints and span", lambda v: GridSpec(-v, v, 8), [1e308, FLOAT_MAX]),
    "gaussian phase": (
        "phase momentum*x/hbar", lambda v: build_state(GaussianPacket(momentum=v), GRID, UNITS), [FLOAT_MAX]
    ),
    "gaussian phase at tiny h": (
        "phase momentum*x/hbar", lambda v: build_state(GaussianPacket(), GRID, UnitSystem(h=v)), [1e-310]
    ),
    "harmonic omega**2": ("omega**2", lambda v: HamiltonianSpec.harmonic(GRID, 1.0, v), [1e200]),
    "phase_space_moments momenta": (
        "momenta hbar*k", lambda v: phase_space_moments(build_state(GaussianPacket(), GRID, UNITS), UnitSystem(h=v)),
        [FLOAT_MAX],
    ),
    "phase_space_moments squared deviation": (
        "squared momentum deviations",
        lambda v: phase_space_moments(build_state(GaussianPacket(), GRID, UNITS), UnitSystem(h=v)),
        [1e200],
    ),
    "phase_space_moments squared position deviation": (
        "squared position deviations",
        lambda v: phase_space_moments(
            build_state(GaussianPacket(sigma=v), GridSpec(-1e155, 1e155, 1024), UNITS), UNITS
        ),
        [1e153],
    ),
    "eigenstate Hermite argument": (
        "Hermite argument sqrt(m*omega/hbar)*|x|",
        lambda v: oscillator_eigenstates(1, 1.0, 1.0, GRID, UnitSystem(h=v)), [1e-320],
    ),
    # xi*xi overflows wherever x != 0, so level 1 vanishes on every grid point
    "eigenstate Hermite square": (
        "eigenstate n=1", lambda v: oscillator_eigenstates(1, 1.0, v, GRID, UNITS), [FLOAT_MAX]
    ),
    "time_energy delta_t": ("delta_t = h/(4*pi*delta_e)", lambda v: time_energy(v, UNITS), [1e-320]),
    "reduced_density rate": (
        "separations and rate 4*pi/h", lambda v: reduced_density(0.0, 0.0, POINT, UnitSystem(h=v)), [1e-320]
    ),
    "reduced_grid rate": (
        "separations and rate 4*pi/h", lambda v: reduced_grid(0.0, 0.0, UnitSystem(h=v), AXIS, AXIS), [1e-320]
    ),
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


FINITE_CASES = [
    pytest.param(name, call, value, id=f"{key}={value}")
    for key, (name, call) in FINITE.items()
    for value in [math.nan, math.inf, -math.inf]
] + [
    pytest.param(name, call, value, id=f"{key}={value}")
    for key, (name, call, values) in OVERFLOWS.items()
    for value in values
]


@pytest.mark.parametrize("name, call, value", POSITIVE_CASES + COUNT_CASES)
def test_every_admission_names_its_parameter(name, call, value):
    with pytest.raises(InvalidRecipe, match=f"^{name} must be "):
        call(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, call, value", FINITE_CASES)
def test_every_finiteness_check_names_its_quantity(name, call, value):
    with pytest.raises(InvalidRecipe, match=f"^{re.escape(name)} must be finite"):
        call(value)


def test_helper_messages():
    with pytest.raises(InvalidRecipe) as exc:
        require_positive("mass", -2.0)
    assert str(exc.value) == "mass must be finite and positive, got -2.0"
    with pytest.raises(InvalidRecipe) as exc:
        require_count("n_max", 31, high=30)
    assert str(exc.value) == "n_max must be an integer in [0, 30], got 31"
    with pytest.raises(InvalidRecipe) as exc:
        require_finite("means", math.nan, 1.0)
    assert str(exc.value) == "means must be finite, got nan, 1.0"
    require_finite("seed", 10**400, -1.0, 0.0)


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
