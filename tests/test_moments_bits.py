"""The moments kernel against the out-of-place expressions it replaced.

states._moments overwrites the arrays it is given, with out= ufuncs, and
keeps every reduction's order, so each moment must be the same float, bit
for bit, as the plain numpy expressions below give.  phase_space_moments,
ensemble_moments (one set of arrays for all members) and the sweeps'
per-level function (the level built and transformed in place) all use it,
and a level that build_state refuses, the sweeps' function refuses with the
same error.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluctlab import scenarios
from fluctlab.errors import FluctLabError
from fluctlab.states import (
    CoherentState,
    GaussianPacket,
    GridSpec,
    MixedEnsemble,
    MomentReport,
    OscillatorEigenstate,
    RawSamples,
    UnitSystem,
    _hermite_rows,
    _mixture_report,
    build_state,
    ensemble_moments,
    phase_space_moments,
)
from fluctlab.units import _trapz


def reference_moments(state, units) -> MomentReport:
    """The moments as out-of-place expressions compute them, one new array each."""
    x = state.grid.points()
    dx = state.grid.dx
    prob = np.abs(state.amplitudes) ** 2
    prob = prob / _trapz(prob, dx)
    mean_x = _trapz(prob * x, dx)
    power = np.abs(np.fft.fft(state.amplitudes)) ** 2
    power = power / power.sum()
    p = units.hbar * state.grid._wavenumbers
    mean_p = float((power * p).sum())
    var_p = float((power * (p - mean_p) ** 2).sum())
    return MomentReport(mean_x=mean_x, mean_p=mean_p, var_x=_trapz(prob * (x - mean_x) ** 2, dx), var_p=var_p)


def bits(report: MomentReport) -> tuple:
    return tuple(float.hex(getattr(report, name)) for name in ("mean_x", "mean_p", "var_x", "var_p"))


def recipes(half_width: float):
    return st.one_of(
        st.builds(GaussianPacket, center=st.floats(-half_width / 2, half_width / 2),
                  momentum=st.floats(-3.0, 3.0), sigma=st.floats(0.3, 3.0)),
        st.builds(CoherentState, alpha=st.complex_numbers(max_magnitude=3.0)),
        st.builds(OscillatorEigenstate, n=st.integers(0, 20)),
        # at mass 1e12 a level is far narrower than any step here: a spike on x = 0 where the grid holds it
        st.builds(OscillatorEigenstate, n=st.integers(0, 4), mass=st.just(1e12)),
        st.integers(0, 2**32 - 1).map(lambda seed: ("raw", seed)),
    )


def realized(recipe, grid, units):
    if isinstance(recipe, tuple):  # raw samples of a seed, zero at both edges
        rng = np.random.default_rng(recipe[1])
        amp = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        amp[0] = amp[-1] = 0.0
        recipe = RawSamples(tuple(amp))
    return build_state(recipe, grid, units)


def level_refusal(recipe, grid, units):
    """The error that the sweeps' per-level function raises for the level of recipe, or None."""
    try:
        *_, item = _hermite_rows(recipe.n, recipe.mass, recipe.omega, grid, units)
        scenarios._level_moments(grid, units, np.empty(grid.n, np.complex128), np.empty(grid.n), np.empty(grid.n), item)
    except FluctLabError as exc:
        return exc
    return None


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data(), n=st.integers(8, 4096), half_width=st.floats(4.0, 30.0))
def test_kernel_moments_are_the_out_of_place_bits(data, n, half_width):
    units = UnitSystem()
    grid = GridSpec(-half_width, half_width, n)
    recipe = data.draw(recipes(half_width), label="recipe")
    try:
        state = realized(recipe, grid, units)
    except FluctLabError as exc:  # refused on this grid: nothing to measure, and a sweep refuses its level alike
        if isinstance(recipe, OscillatorEigenstate):
            refusal = level_refusal(recipe, grid, units)
            assert (type(refusal), str(refusal)) == (type(exc), str(exc))
        assume(False)
    expected = reference_moments(state, units)
    try:
        other = build_state(GaussianPacket(sigma=half_width / 8), grid, units)  # measured second, in the same arrays
    except FluctLabError:
        assume(False)  # refused on this grid: nothing to measure
    before = state.amplitudes.tobytes()
    assert bits(phase_space_moments(state, units)) == bits(expected)
    assert state.amplitudes.tobytes() == before

    weights = np.array([0.25, 0.75])
    mixed = ensemble_moments(MixedEnsemble(weights, (state, other)), units)
    assert bits(mixed) == bits(_mixture_report(weights, [expected, reference_moments(other, units)]))
    assert state.amplitudes.tobytes() == before

    if isinstance(recipe, OscillatorEigenstate):  # the sweeps' level, built and transformed in place
        *_, item = _hermite_rows(recipe.n, recipe.mass, recipe.omega, grid, units)
        arrays = np.empty(n, np.complex128), np.empty(n), np.empty(n)
        assert bits(scenarios._level_moments(grid, units, *arrays, item)) == bits(expected)
