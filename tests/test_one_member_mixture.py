"""A pure state is the one-member mixture: one moments path, one parse per
load, and one basis build per thermal sweep."""

import json

import numpy as np
import pytest

from fluctlab import (
    FileFormatError,
    GaussianPacket,
    GridSpec,
    MixedEnsemble,
    OscillatorEigenstate,
    PureState,
    audit_report,
    build_state,
    classify,
    ensemble_moments,
    entropy_surrogate,
    phase_space_moments,
    scenarios,
    thermal_ensemble,
    thermal_sweep,
)
from fluctlab import io as fio


@pytest.mark.parametrize("recipe", [GaussianPacket(center=0.3, momentum=-0.7, sigma=0.9), OscillatorEigenstate(4)])
def test_pure_moments_equal_one_member_mixture(recipe, grid, units):
    state = build_state(recipe, grid, units)
    single = MixedEnsemble(np.array([1.0]), (state,))
    assert phase_space_moments(state, units) == ensemble_moments(single, units)
    assert ensemble_moments(state, units) == ensemble_moments(single, units)
    assert audit_report(state, units) == audit_report(single, units)
    assert entropy_surrogate(state) == 0.0


def _count_json_loads(monkeypatch):
    calls = []
    original = json.load

    def counting(handle, *args, **kwargs):
        calls.append(handle.name)
        return original(handle, *args, **kwargs)

    monkeypatch.setattr(json, "load", counting)
    return calls


def test_load_target_parses_each_file_once(tmp_path, grid, units, monkeypatch):
    state = build_state(GaussianPacket(), grid, units)
    ensemble = MixedEnsemble(
        np.array([0.25, 0.75]),
        (state, build_state(GaussianPacket(center=1.0, sigma=0.8), grid, units)),
    )
    state_path, ensemble_path = str(tmp_path / "s.json"), str(tmp_path / "e.json")
    fio.save_state(state_path, state, units)
    fio.save_ensemble(ensemble_path, ensemble, units)
    calls = _count_json_loads(monkeypatch)

    loaded, _ = fio.load_target(state_path)
    assert calls == [state_path]
    assert isinstance(loaded, PureState)
    np.testing.assert_array_equal(loaded.amplitudes, state.amplitudes)

    loaded, _ = fio.load_target(ensemble_path)
    assert calls == [state_path, ensemble_path]
    assert isinstance(loaded, MixedEnsemble)
    np.testing.assert_array_equal(loaded.weights, ensemble.weights)

    with pytest.raises(FileFormatError):
        fio.load_state(ensemble_path)
    with pytest.raises(FileFormatError):
        fio.load_ensemble(state_path)


def test_thermal_sweep_builds_levels_once(units, monkeypatch):
    grid = GridSpec(-22.0, 22.0, 8192)
    temperatures = [0.0, 0.15, 1.0, 4.0]
    # at T = 0.15 the weights of the deepest levels underflow and are dropped
    assert thermal_ensemble(1.0, 1.0, 0.15, 120, grid, units).weights.size < 121
    calls = []
    original = scenarios._eigenstate_levels

    def counting(n_max, *args):
        calls.append(n_max)
        return original(n_max, *args)

    monkeypatch.setattr(scenarios, "_eigenstate_levels", counting)
    rows = thermal_sweep(temperatures, 1.0, 1.0, 120, grid, units)
    assert calls == [120]
    for row, temperature in zip(rows, temperatures):
        ensemble = thermal_ensemble(1.0, 1.0, temperature, 120, grid, units)
        result = classify(ensemble_moments(ensemble, units), units)
        assert (row.product, row.bound, row.classification, row.entropy_surrogate) == (
            result.product, result.bound, result.verdict.value, entropy_surrogate(ensemble)
        )
