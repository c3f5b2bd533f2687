"""States, ensembles, and moment operations."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from fluctlab import (
    CoherentState,
    DecayGuardViolation,
    GaussianPacket,
    GridSpec,
    HamiltonianSpec,
    InvalidRecipe,
    GridMismatch,
    MixedEnsemble,
    MomentReport,
    NormalizationError,
    OscillatorEigenstate,
    PureState,
    RawSamples,
    TruncationError,
    UnitSystem,
    build_state,
    energy_moments,
    ensemble_moments,
    oscillator_eigenstates,
    phase_space_moments,
    thermal_ensemble,
    uncertainty_product,
)

# oscillator eigenfunctions at m = omega = hbar = 1, mpmath at 40 digits
PSI_ORACLE = {
    (0, 0.0): 0.751125544464942483,
    (0, 1.0): 0.455580672011332535,
    (1, 0.5): 0.468717019889251726,
    (3, 1.5): 0.316776627187735052,
    (5, 2.0): -0.0262468952793100552,
}


def test_unit_system_defaults(units):
    assert units.h == pytest.approx(2 * math.pi, rel=1e-15)
    assert units.hbar == pytest.approx(1.0, rel=1e-15)
    assert units.bound == pytest.approx(0.5, rel=1e-15)


def test_unit_system_rejects_nonpositive_h():
    with pytest.raises(InvalidRecipe):
        UnitSystem(h=0.0)
    with pytest.raises(InvalidRecipe):
        UnitSystem(h=-1.0)


@pytest.mark.parametrize("x_min,x_max,n", [(1.0, 0.0, 64), (0.0, 0.0, 64), (-1.0, 1.0, 7), (-1.0, 1.0, math.nan),
                                         (-1.0, 1.0, math.inf)])
def test_grid_spec_rejects_bad_parameters(x_min, x_max, n):
    with pytest.raises(InvalidRecipe):
        GridSpec(x_min, x_max, n)


def test_grid_points_and_spacing():
    g = GridSpec(-4.0, 4.0, 16)
    x = g.points()
    assert g.dx == pytest.approx(0.5)
    assert x[0] == -4.0
    assert x.size == 16
    assert x[-1] == pytest.approx(4.0 - g.dx)


def _measure_gaussians_on_distinct_grids(units, count, n):
    for i in range(count):
        grid = GridSpec(-12.0 - i, 12.0 + i, n)
        phase_space_moments(build_state(GaussianPacket(), grid, units), units)


def test_grid_arrays_are_freed_with_the_grid(units):
    """A grid keeps its points and wavenumbers on itself, so once the grids
    are dropped nothing of their size is still held."""
    tracemalloc.start()
    try:
        _measure_gaussians_on_distinct_grids(units, 16, 2**16)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20, held


def test_a_pickled_grid_leaves_its_arrays_behind(units):
    grid = GridSpec(-12.0, 12.0, 2**16)
    small = len(pickle.dumps(grid))
    phase_space_moments(build_state(GaussianPacket(), grid, units), units)
    assert len(pickle.dumps(grid)) == small
    assert pickle.loads(pickle.dumps(grid)) == grid


def test_gaussian_packet_is_normalized(grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    prob = np.abs(state.amplitudes) ** 2
    norm = grid.dx * (prob.sum() - 0.5 * (prob[0] + prob[-1]))
    assert abs(norm - 1.0) <= 1e-10


def test_ground_state_equals_narrow_gaussian(grid, units):
    ground = build_state(OscillatorEigenstate(0), grid, units)
    packet = build_state(GaussianPacket(0.0, 0.0, 1.0 / math.sqrt(2.0)), grid, units)
    assert np.max(np.abs(ground.amplitudes - packet.amplitudes)) <= 1e-8


def test_eigenstate_matches_closed_form_pointwise(units):
    g = GridSpec(-16.0, 16.0, 2048)
    for (n, xv), expected in PSI_ORACLE.items():
        state = build_state(OscillatorEigenstate(n), g, units)
        j = round((xv - g.x_min) / g.dx)
        assert g.points()[j] == pytest.approx(xv, abs=1e-12)
        assert state.amplitudes[j].real == pytest.approx(expected, abs=1e-8)
        assert abs(state.amplitudes[j].imag) <= 1e-12


def test_eigenstate_decay_guard_boundary(units):
    # |psi_3| at the edge is 4.65e-6 of the peak on [-6, 6] (above the 1e-6
    # guard) and 1.12e-8 on [-7, 7]; both ratios from the mpmath oracle
    with pytest.raises(DecayGuardViolation):
        build_state(OscillatorEigenstate(3), GridSpec(-6.0, 6.0, 256), units)
    build_state(OscillatorEigenstate(3), GridSpec(-7.0, 7.0, 256), units)


def test_gaussian_moments(grid, units):
    report = phase_space_moments(build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units), units)
    assert report.mean_x == pytest.approx(0.0, abs=1e-12)
    assert report.mean_p == pytest.approx(0.0, abs=1e-12)
    assert report.var_x == pytest.approx(1.0, rel=1e-10)
    assert report.var_p == pytest.approx(0.25, rel=1e-10)
    assert uncertainty_product(report) == pytest.approx(0.5, rel=1e-10)


def test_translation_shifts_mean_only(grid, units):
    base = phase_space_moments(build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units), units)
    moved = phase_space_moments(build_state(GaussianPacket(2.0, 0.0, 1.0), grid, units), units)
    assert moved.mean_x == pytest.approx(2.0, abs=1e-8)
    assert moved.var_x == pytest.approx(base.var_x, abs=1e-8)
    assert moved.var_p == pytest.approx(base.var_p, abs=1e-8)


def test_boost_covariance(grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 0.7), grid, units)
    base = phase_space_moments(state, units)
    k = 1.7
    boosted = PureState(grid, state.amplitudes * np.exp(1j * k * grid.points()))
    report = phase_space_moments(boosted, units)
    assert report.mean_p - base.mean_p == pytest.approx(units.hbar * k, abs=1e-6)
    assert report.var_p == pytest.approx(base.var_p, abs=1e-6)


def test_oscillator_first_excited_moments(units):
    g = GridSpec(-15.0, 15.0, 2048)
    report = phase_space_moments(build_state(OscillatorEigenstate(1), g, units), units)
    # var_x = var_p = 3/2 from direct quadrature of x^2 psi_1^2 (mpmath)
    assert report.var_x == pytest.approx(1.5, rel=1e-10)
    assert report.var_p == pytest.approx(1.5, rel=1e-10)
    assert uncertainty_product(report) == pytest.approx(1.5, rel=1e-10)


def test_grid_convergence(units):
    coarse = phase_space_moments(
        build_state(GaussianPacket(0.0, 0.0, 1.0), GridSpec(-12.0, 12.0, 1024), units), units
    )
    fine = phase_space_moments(
        build_state(GaussianPacket(0.0, 0.0, 1.0), GridSpec(-12.0, 12.0, 2048), units), units
    )
    for field in ("mean_x", "mean_p", "var_x", "var_p"):
        assert abs(getattr(coarse, field) - getattr(fine, field)) < 1e-8


def test_raw_samples_renormalize(grid, units):
    reference = build_state(GaussianPacket(0.5, 1.0, 0.8), grid, units)
    rebuilt = build_state(RawSamples(tuple(2.0 * reference.amplitudes)), grid, units)
    assert np.max(np.abs(rebuilt.amplitudes - reference.amplitudes)) <= 1e-12


@pytest.mark.parametrize(
    "recipe",
    [
        GaussianPacket(0.0, 0.0, -1.0),
        GaussianPacket(0.0, 0.0, 0.0),
        OscillatorEigenstate(-1),
        OscillatorEigenstate(2, mass=-1.0),
        CoherentState(1 + 0j, omega=0.0),
    ],
)
def test_build_state_rejects_bad_recipes(recipe, grid, units):
    with pytest.raises(InvalidRecipe):
        build_state(recipe, grid, units)


def test_pure_state_enforces_normalization(grid, units):
    amplitudes = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units).amplitudes * 1.001
    with pytest.raises(NormalizationError):
        PureState(grid, amplitudes)


def test_pure_state_enforces_decay_guard():
    g = GridSpec(-4.0, 4.0, 64)
    flat = np.full(64, 1.0 / math.sqrt(g.dx * 63), dtype=complex)
    with pytest.raises(DecayGuardViolation):
        PureState(g, flat)


def test_amplitudes_are_immutable(grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_pure_state_copies_the_callers_array(grid, units):
    """Only the builders hand their own arrays over; a caller's array stays the caller's."""
    amplitudes = build_state(GaussianPacket(0.5, 0.3, 1.0), grid, units).amplitudes.copy()
    state = PureState(grid, amplitudes)
    kept = state.amplitudes.copy()
    amplitudes[:] = 0.0
    assert not np.shares_memory(state.amplitudes, amplitudes)
    assert state.amplitudes.tobytes() == kept.tobytes()
    assert not state.amplitudes.flags.writeable and amplitudes.flags.writeable


def test_gaussian_build_memory_per_grid_point(units, peak_bytes):
    """The packet's complex array becomes the state's, with no copy: 40 bytes a
    grid point at the peak (56 when the state copied it), in the phase factor."""
    grid = GridSpec(-40.0, 40.0, 2**16)
    assert peak_bytes(lambda: build_state(GaussianPacket(momentum=0.5), grid, units)) / grid.n < 44


# --- ensembles ----------------------------------------------------------------

def test_single_member_ensemble_degenerates(grid, units):
    state = build_state(GaussianPacket(1.0, 0.5, 0.9), grid, units)
    single = MixedEnsemble(np.array([1.0]), (state,))
    direct = phase_space_moments(state, units)
    mixed = ensemble_moments(single, units)
    assert mixed == direct


def test_phase_space_moments_refuses_mixture(grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    single = MixedEnsemble(np.array([1.0]), (state,))
    with pytest.raises(InvalidRecipe, match="MixedEnsemble"):
        phase_space_moments(single, units)
    assert ensemble_moments(single, units) == ensemble_moments(state, units)


def test_two_packet_mixture_total_variance(grid, units):
    left = build_state(GaussianPacket(-2.0, 0.0, 1.0), grid, units)
    right = build_state(GaussianPacket(2.0, 0.0, 1.0), grid, units)
    ensemble = MixedEnsemble(np.array([0.5, 0.5]), (left, right))
    report = ensemble_moments(ensemble, units)
    # law of total variance: 0.5*(1+4) + 0.5*(1+4) = 5
    assert report.mean_x == pytest.approx(0.0, abs=1e-10)
    assert report.var_x == pytest.approx(5.0, abs=1e-8)
    assert report.var_p == pytest.approx(0.25, abs=1e-10)


def test_weights_must_sum_to_one(grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    with pytest.raises(InvalidRecipe):
        MixedEnsemble(np.array([0.6, 0.6]), (state, state))
    with pytest.raises(InvalidRecipe):
        MixedEnsemble(np.array([1.5, -0.5]), (state, state))


def test_members_must_share_grid(units):
    a = build_state(GaussianPacket(0.0, 0.0, 1.0), GridSpec(-12.0, 12.0, 1024), units)
    b = build_state(GaussianPacket(0.0, 0.0, 1.0), GridSpec(-12.0, 12.0, 512), units)
    with pytest.raises(GridMismatch):
        MixedEnsemble(np.array([0.5, 0.5]), (a, b))


def test_law_of_total_variance_identity(grid, units):
    rng = np.random.default_rng(2024)
    for _ in range(10):
        count = rng.integers(2, 5)
        members = tuple(
            build_state(
                GaussianPacket(rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(0.5, 1.5)),
                grid,
                units,
            )
            for _ in range(count)
        )
        raw = rng.uniform(0.1, 1.0, count)
        ensemble = MixedEnsemble(raw / raw.sum(), members)
        mixed = ensemble_moments(ensemble, units)
        parts = [phase_space_moments(m, units) for m in members]
        w = ensemble.weights
        var_x = sum(wi * (p.var_x + (p.mean_x - mixed.mean_x) ** 2) for wi, p in zip(w, parts))
        var_p = sum(wi * (p.var_p + (p.mean_p - mixed.mean_p) ** 2) for wi, p in zip(w, parts))
        assert mixed.var_x == pytest.approx(var_x, abs=1e-10)
        assert mixed.var_p == pytest.approx(var_p, abs=1e-10)


def test_moment_report_rejects_negative_variance():
    with pytest.raises(InvalidRecipe):
        MomentReport(0.0, 0.0, -1.0, 1.0)


# --- energy -------------------------------------------------------------------

def test_ground_state_energy(grid, units):
    state = build_state(OscillatorEigenstate(0), grid, units)
    mean_e, var_e = energy_moments(state, HamiltonianSpec.harmonic(grid, 1.0, 1.0), units)
    assert mean_e == pytest.approx(0.5, abs=1e-10)
    assert var_e <= 1e-6


def test_coherent_state_energy(grid, units):
    # <E> = hbar*omega*(|a|^2 + 1/2), varE = (hbar*omega)^2 |a|^2
    state = build_state(CoherentState(1 + 0j), grid, units)
    mean_e, var_e = energy_moments(state, HamiltonianSpec.harmonic(grid, 1.0, 1.0), units)
    assert mean_e == pytest.approx(1.5, abs=1e-4)
    assert var_e == pytest.approx(1.0, abs=1e-4)


def test_zero_temperature_ensemble_energy(grid, units):
    ensemble = thermal_ensemble(1.0, 1.0, 0.0, 10, grid, units)
    _, var_e = energy_moments(ensemble, HamiltonianSpec.harmonic(grid, 1.0, 1.0), units)
    assert var_e <= 1e-10


def test_energy_grid_mismatch(grid, units):
    state = build_state(OscillatorEigenstate(0), grid, units)
    bad = HamiltonianSpec(mass=1.0, potential=np.zeros(grid.n - 1))
    with pytest.raises(GridMismatch):
        energy_moments(state, bad, units)


# --- thermal ensembles ----------------------------------------------------------

def test_thermal_zero_temperature(grid, units):
    ensemble = thermal_ensemble(1.0, 1.0, 0.0, 25, grid, units)
    assert len(ensemble.members) == 1
    assert ensemble.weights[0] == 1.0


def test_thermal_boltzmann_ratio(grid, units):
    ensemble = thermal_ensemble(1.0, 1.0, 1.0, 40, grid, units)
    assert ensemble.weights[1] / ensemble.weights[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_thermal_product_matches_coth(units):
    # (hbar/2) coth(hbar*omega/(2T)) = 1.08197670686932642 at T = 1 (mpmath)
    g = GridSpec(-15.0, 15.0, 2048)
    ensemble = thermal_ensemble(1.0, 1.0, 1.0, 40, g, units)
    product = uncertainty_product(ensemble_moments(ensemble, units))
    assert product == pytest.approx(1.08197670686932642, rel=1e-6)


def test_thermal_truncation_guard(grid, units):
    with pytest.raises(TruncationError):
        thermal_ensemble(1.0, 1.0, 1.0, 10, grid, units)


def test_thermal_rejects_bad_parameters(grid, units):
    with pytest.raises(InvalidRecipe):
        thermal_ensemble(-1.0, 1.0, 1.0, 40, grid, units)
    with pytest.raises(InvalidRecipe):
        thermal_ensemble(1.0, 1.0, -0.5, 40, grid, units)


def test_eigenstates_share_basis_with_build_state(units):
    g = GridSpec(-15.0, 15.0, 2048)
    family = oscillator_eigenstates(4, 1.0, 1.0, g, units)
    single = build_state(OscillatorEigenstate(4), g, units)
    assert np.array_equal(family[4].amplitudes, single.amplitudes)


def _gaussian(grid, units):
    return build_state(GaussianPacket(), grid, units)


def _mixture(grid, units):
    return MixedEnsemble(np.array([1.0]), (_gaussian(grid, units),))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda grid, units: PureState(grid, np.zeros(grid.n - 1)), r"^expected 1024 amplitudes, got shape \(1023,\)$"),
        (lambda grid, units: MixedEnsemble(np.array([0.5, 0.5]), (_gaussian(grid, units),) * 3),
         r"^2 weights for 3 members$"),
        (lambda grid, units: HamiltonianSpec(1.0, np.full(grid.n, np.nan)),
         r"^potential must be a finite 1-D sample array$"),
        (lambda grid, units: build_state("gaussian", grid, units), r"^unknown recipe type str$"),
        (lambda grid, units: ensemble_moments(grid, units), r"^expected PureState or MixedEnsemble, got GridSpec$"),
        # raw samples meet PureState's shape and finiteness rules before the norm is taken
        (lambda grid, units: build_state(RawSamples(()), grid, units), r"^expected 1024 amplitudes, got shape \(0,\)$"),
        (lambda grid, units: build_state(RawSamples(((1.0, 0.0),) * grid.n), grid, units),
         r"^expected 1024 amplitudes, got shape \(1024, 2\)$"),
        (lambda grid, units: build_state(RawSamples((math.nan,) * grid.n), grid, units),
         r"^amplitudes must be finite$"),
        (lambda grid, units: MixedEnsemble(np.array([1.0]), (1,)), r"^member 0: expected PureState, got int$"),
        (lambda grid, units: MixedEnsemble(np.array([0.5, 0.5]), (_gaussian(grid, units), _mixture(grid, units))),
         r"^member 1: expected PureState, got MixedEnsemble$"),
    ],
    ids=["pure-state-shape", "weights-for-members", "nan-potential", "unknown-recipe", "moments-of-non-state",
         "raw-samples-empty", "raw-samples-2d", "raw-samples-nan", "member-not-a-state", "ensemble-of-ensembles"],
)
def test_library_refusals_name_their_cause(grid, units, make, message):
    with pytest.raises(InvalidRecipe, match=message):
        make(grid, units)
