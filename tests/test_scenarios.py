"""Sweeps and the relaxation walk."""

import numpy as np
import pytest

from fluctlab import (
    DecayGuardViolation,
    FluctuationParams,
    GridSpec,
    InvalidRecipe,
    UnitSystem,
    classify,
    eigenstate_sweep,
    oscillator_eigenstates,
    phase_space_moments,
    relaxation_walk,
    thermal_ensemble,
    thermal_sweep,
)


def test_eigenstate_sweep_products(units):
    grid = GridSpec(-15.0, 15.0, 2048)
    rows = eigenstate_sweep(10, 1.0, 1.0, grid, units)
    assert len(rows) == 11
    for n, row in enumerate(rows):
        assert row.label == f"n={n}"
        assert row.parameter == float(n)
        assert row.product == pytest.approx((2 * n + 1) * 0.5, rel=1e-4)
        assert row.bound == pytest.approx(0.5, rel=1e-15)
        assert row.entropy_surrogate == 0.0
    assert rows[0].classification == "minimal"
    assert all(row.classification == "strict" for row in rows[1:])


def test_eigenstate_sweep_matches_each_level_measured_alone(units):
    grid = GridSpec(-15.0, 15.0, 2048)
    rows = eigenstate_sweep(12, 1.0, 1.0, grid, units)
    for n, (row, state) in enumerate(zip(rows, oscillator_eigenstates(12, 1.0, 1.0, grid, units))):
        result = classify(phase_space_moments(state, units), units)
        assert (row.product, row.bound, row.classification, row.entropy_surrogate) == (
            result.product, result.bound, result.verdict.value, 0.0
        ), n


def test_eigenstate_sweep_memory_does_not_grow_with_levels(units, peak_bytes):
    grid = GridSpec(-15.0, 15.0, 16384)
    few = peak_bytes(lambda: eigenstate_sweep(3, 1.0, 1.0, grid, units))
    many = peak_bytes(lambda: eigenstate_sweep(30, 1.0, 1.0, grid, units))
    assert many <= 1.5 * few, (few, many)


def test_eigenstate_sweep_memory_per_grid_point(units, peak_bytes):
    """Each level is multiplied into one complex array and scaled in place: about
    88 bytes a grid point in all, where the level's own copies made it 104."""
    grid = GridSpec(-15.0, 15.0, 16384)
    assert peak_bytes(lambda: eigenstate_sweep(30, 1.0, 1.0, grid, units)) / grid.n < 96


def test_thermal_sweep_memory_does_not_grow_with_levels(units, peak_bytes):
    grid = GridSpec(-22.0, 22.0, 8192)
    # at T = 1 every level up to 120 keeps a nonzero weight
    few = peak_bytes(lambda: thermal_sweep([1.0], 1.0, 1.0, 40, grid, units))
    many = peak_bytes(lambda: thermal_sweep([1.0], 1.0, 1.0, 120, grid, units))
    assert many <= 1.5 * few, (few, many)


def test_thermal_sweep_measures_each_level_once(units, monkeypatch):
    grid = GridSpec(-15.0, 15.0, 2048)
    temperatures = [0.0, 0.5, 1.0, 2.0]
    kept = len(thermal_ensemble(1.0, 1.0, max(temperatures), 40, grid, units).members)
    calls = []
    original = np.fft.fft

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    rows = thermal_sweep(temperatures, 1.0, 1.0, 40, grid, units)
    assert len(rows) == len(temperatures)
    assert len(calls) == kept


def test_eigenstate_sweep_level_cap(units):
    with pytest.raises(InvalidRecipe):
        eigenstate_sweep(31, 1.0, 1.0, GridSpec(-15.0, 15.0, 2048), units)


def test_eigenstate_sweep_escalates_decay_guard(units):
    with pytest.raises(DecayGuardViolation, match="n="):
        eigenstate_sweep(10, 1.0, 1.0, GridSpec(-4.0, 4.0, 256), units)


def test_thermal_sweep_matches_coth(units):
    grid = GridSpec(-15.0, 15.0, 2048)
    rows = thermal_sweep([0.0, 0.5, 1.0], 1.0, 1.0, 40, grid, units)
    assert rows[0].classification == "minimal"
    assert rows[0].product == pytest.approx(0.5, rel=1e-8)
    # 0.5*coth(0.5/T): mpmath 40-digit values
    assert rows[1].product == pytest.approx(0.656517642749665652, rel=1e-6)
    assert rows[2].product == pytest.approx(1.08197670686932642, rel=1e-6)
    assert rows[1].label == "T=0.5"
    assert rows[0].entropy_surrogate == 0.0
    assert rows[2].entropy_surrogate > rows[1].entropy_surrogate > 0.0


def test_thermal_sweep_monotone(units):
    grid = GridSpec(-15.0, 15.0, 2048)
    rows = thermal_sweep([0.1, 0.25, 0.5, 1.0], 1.0, 1.0, 60, grid, units)
    products = [row.product for row in rows]
    assert all(a < b for a, b in zip(products, products[1:]))


def test_walk_zero_steps(units):
    start = FluctuationParams(0.0, 0.0, 2.0, 2.0, units)
    trace = relaxation_walk(start, 0, 0.05, 7)
    assert len(trace) == 1
    assert trace[0].step == 0
    assert trace[0].product == pytest.approx(2.0, rel=1e-15)
    # the walk's bound is the start's own: at h = 1 step 0 still reports the start's product
    trace = relaxation_walk(FluctuationParams(0.0, 0.0, 2.0, 2.0, UnitSystem(h=1.0)), 0, 0.05, 7)
    assert trace[0].product == pytest.approx(2.0, rel=1e-15)


def test_walk_start_on_bound(units):
    start = FluctuationParams(0.0, 0.0, 0.5, 0.5, units)
    trace = relaxation_walk(start, 20, 0.1, 3)
    assert all(point.distance_to_bound == 0.0 for point in trace)
    assert all(point.product == units.bound for point in trace)


def test_walk_contracts_to_bound(units):
    start = FluctuationParams(0.0, 0.0, 2.0, 2.0, units)
    trace = relaxation_walk(start, 500, 0.05, 7)
    assert len(trace) == 501
    assert trace[-1].distance_to_bound < 1e-4
    products = [point.product for point in trace]
    assert all(a >= b for a, b in zip(products, products[1:]))
    assert all(point.product >= units.bound for point in trace)
    # replay the defining recurrence on the same stream
    gap = 2.0 - units.bound
    for u_k, point in zip(np.random.default_rng(7).random(500), trace[1:]):
        gap *= 1.0 - 0.05 * u_k
        assert point.distance_to_bound == pytest.approx(gap, rel=1e-12)


def test_walk_deterministic(units):
    start = FluctuationParams(0.0, 0.0, 1.0, 1.0, units)
    a = relaxation_walk(start, 50, 0.2, 123)
    b = relaxation_walk(start, 50, 0.2, 123)
    assert a == b


def test_walk_validation(units):
    start = FluctuationParams(0.0, 0.0, 1.0, 1.0, units)
    for step_size in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(InvalidRecipe):
            relaxation_walk(start, 10, step_size, 1)
    with pytest.raises(InvalidRecipe):
        relaxation_walk(start, -1, 0.1, 1)
