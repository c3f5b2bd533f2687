"""A pure state is the one-member mixture: one moments path, one parse per
load, and one basis build per thermal sweep."""

import json
import os

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


def _count_reads(monkeypatch):
    """[path, characters read] for each file fluctlab.io opens, and the files
    json.load reads.  Reads by this process count, through the handle or by
    os.pread at the handle's descriptor (the files are ASCII: a byte is a
    character); a forked twin's reads do not."""
    opened, json_loads, by_descriptor, real_pread = [], [], {}, os.pread

    def counting_open(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        entry = by_descriptor[handle.fileno()] = [path, 0]
        opened.append(entry)
        read = handle.read

        def counting_read(*size):
            text = read(*size)
            entry[1] += len(text)
            return text

        handle.read = counting_read
        return handle

    def counting_pread(fd, size, offset):
        data = real_pread(fd, size, offset)
        by_descriptor[fd][1] += len(data)
        return data

    monkeypatch.setattr(os, "pread", counting_pread)

    original = json.load

    def counting_load(handle, *args, **kwargs):
        json_loads.append(handle.name)
        return original(handle, *args, **kwargs)

    monkeypatch.setattr(fio, "open", counting_open, raising=False)
    monkeypatch.setattr(json, "load", counting_load)
    return opened, json_loads


def test_load_target_parses_each_file_once(tmp_path, grid, units, monkeypatch):
    """A valid file is opened once and each of its characters read once, by
    the streamed reader; a bad one is read again from its start, by one
    json.load, which names the fault."""
    state = build_state(GaussianPacket(), grid, units)
    ensemble = MixedEnsemble(
        np.array([0.25, 0.75]),
        (state, build_state(GaussianPacket(center=1.0, sigma=0.8), grid, units)),
    )
    state_path, ensemble_path = str(tmp_path / "s.json"), str(tmp_path / "e.json")
    fio.save_state(state_path, state, units)
    fio.save_ensemble(ensemble_path, ensemble, units)
    state_size, ensemble_size = os.path.getsize(state_path), os.path.getsize(ensemble_path)
    opened, json_loads = _count_reads(monkeypatch)

    loaded, _ = fio.load_target(state_path)
    assert opened == [[state_path, state_size]]
    assert isinstance(loaded, PureState)
    np.testing.assert_array_equal(loaded.amplitudes, state.amplitudes)

    loaded, _ = fio.load_target(ensemble_path)
    assert opened == [[state_path, state_size], [ensemble_path, ensemble_size]]
    assert isinstance(loaded, MixedEnsemble)
    np.testing.assert_array_equal(loaded.weights, ensemble.weights)
    assert json_loads == []

    with pytest.raises(FileFormatError):
        fio.load_state(ensemble_path)
    with pytest.raises(FileFormatError):
        fio.load_ensemble(state_path)
    assert json_loads == []

    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as handle:
        handle.write(open(ensemble_path).read()[:-1])
    del opened[:]
    with pytest.raises(FileFormatError, match="not valid JSON"):
        fio.load_target(bad_path)
    assert opened == [[bad_path, 2 * os.path.getsize(bad_path)]]
    assert json_loads == [bad_path]


def test_bad_syntax_the_twin_decodes_is_read_at_most_twice(tmp_path, grid, units, monkeypatch, forks):
    """Member 2 of 6 is the twin's (the walk's item 5).  The twin ends on its
    bad syntax, the command decodes that member itself and refuses it, and
    json.load names the fault: this process reads the file at most twice
    over, where a second walk of its own read 2.36 times its size."""
    states = [build_state(GaussianPacket(center=j / 4), grid, units) for j in range(6)]
    path = str(tmp_path / "e.json")
    fio.save_ensemble(path, MixedEnsemble(np.full(6, 1 / 6), tuple(states)), units)
    with open(path) as handle:
        text = handle.read()
    member_2 = text.index('"psi_im": [', text.index("}, {", text.index("}, {") + 1)) + len('"psi_im": [')
    with open(path, "w") as handle:
        handle.write(text[:member_2] + "0.5.5, " + text[member_2:])
    del forks[:]
    opened, json_loads = _count_reads(monkeypatch)
    with pytest.raises(FileFormatError, match="not valid JSON"):
        fio.load_target(path)
    assert len(forks) == 1 and json_loads == [path]
    [[_, read]] = opened
    assert read <= 2 * os.path.getsize(path)


def test_thermal_sweep_builds_levels_once(units, monkeypatch, tmp_path, forks):
    """Counted across both processes: each recurrence started appends its n_max to a file."""
    grid = GridSpec(-22.0, 22.0, 8192)
    temperatures = [0.0, 0.15, 1.0, 4.0]
    # at T = 0.15 the weights of the deepest levels underflow and are dropped
    assert thermal_ensemble(1.0, 1.0, 0.15, 120, grid, units).weights.size < 121
    log = tmp_path / "calls"
    log.write_text("")
    original = scenarios._hermite_rows

    def counting(n_max, *args):
        with open(log, "a") as handle:
            handle.write(f"{n_max}\n")
        return original(n_max, *args)

    monkeypatch.setattr(scenarios, "_hermite_rows", counting)
    rows = thermal_sweep(temperatures, 1.0, 1.0, 120, grid, units)
    calls = [int(line) for line in log.read_text().split()]
    assert len(forks) == 1
    assert calls == [120]
    for row, temperature in zip(rows, temperatures):
        ensemble = thermal_ensemble(1.0, 1.0, temperature, 120, grid, units)
        result = classify(ensemble_moments(ensemble, units), units)
        assert (row.product, row.bound, row.classification, row.entropy_surrogate) == (
            result.product, result.bound, result.verdict.value, entropy_surrogate(ensemble)
        )
