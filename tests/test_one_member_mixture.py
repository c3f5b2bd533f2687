"""A pure state is the one-member mixture: one moments path, one parse per
load, and one basis build per thermal sweep."""

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


def test_load_target_parses_each_file_once(tmp_path, grid, units, load_reads, forks):
    """A valid file is matched once, window by window, in order, and each
    value is read once more, at its span, by the process that decodes it
    (here the command decodes the even values, and the twin the odd ones);
    json.load never runs.  A bad one is matched once as far as the matcher
    gets, and read again from its start by one json.load, which names the
    fault."""
    state = build_state(GaussianPacket(), grid, units)
    ensemble = MixedEnsemble(
        np.array([0.25, 0.75]),
        (state, build_state(GaussianPacket(center=1.0, sigma=0.8), grid, units)),
    )
    state_path, ensemble_path = str(tmp_path / "s.json"), str(tmp_path / "e.json")
    fio.save_state(state_path, state, units)
    fio.save_ensemble(ensemble_path, ensemble, units)
    del forks[:]

    def loaded_once(load, path, decodes, by_json_load=False):
        """load(path), checked against this process's reads: the whole file
        in windows, one os.pread of the span of each of its decodes, and, by
        a file the matcher refuses, one json.load of the whole file."""
        for reads in (load_reads.windows, load_reads.spans, load_reads.decoded, load_reads.handles, load_reads.json_loads):
            del reads[:]
        try:
            return load(path)
        finally:
            assert load_reads.windows == load_reads.whole(os.path.getsize(path))
            assert load_reads.spans == load_reads.decoded
            assert len(set(load_reads.decoded)) == len(load_reads.decoded) == decodes
            assert load_reads.handles == [[path, os.path.getsize(path) if by_json_load else 0]]
            assert load_reads.json_loads == [path][:by_json_load]

    # of the values units, grid, psi_re and psi_im, units and psi_re
    loaded, _ = loaded_once(fio.load_target, state_path, 2)
    assert isinstance(loaded, PureState)
    np.testing.assert_array_equal(loaded.amplitudes, state.amplitudes)

    # of the values units, grid, weights and the 2 members, units, weights and member 1
    loaded, _ = loaded_once(fio.load_target, ensemble_path, 3)
    assert isinstance(loaded, MixedEnsemble)
    np.testing.assert_array_equal(loaded.weights, ensemble.weights)

    # a file of the other kind: of the values units and grid, with no twin (see test_io.py)
    with pytest.raises(FileFormatError, match=r"^document\.psi_re: missing$"):
        loaded_once(fio.load_state, ensemble_path, 2)
    with pytest.raises(FileFormatError, match=r"^document\.weights: missing$"):
        loaded_once(fio.load_ensemble, state_path, 2)

    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as handle:
        handle.write(open(ensemble_path).read()[:-1])
    with pytest.raises(FileFormatError, match="not valid JSON"):
        loaded_once(fio.load_target, bad_path, 3, by_json_load=True)
    assert len(forks) == 3


def test_bad_syntax_the_twin_decodes_is_read_at_its_span_then_by_json_load(tmp_path, grid, units, load_reads, forks):
    """Member 2 of 6 is the twin's (the walk's item 5).  The twin ends on its
    bad syntax, the command decodes that member itself, at its span, and
    refuses it, and json.load names the fault.  This process walks the file
    once, as far as the window that holds the end of member 3 (its own item
    6), reads each key and value it decodes once more at its span, and
    json.load reads the whole file: 2.18 times its size in all, where a
    second walk of its own read 2.36 times."""
    states = [build_state(GaussianPacket(center=j / 4), grid, units) for j in range(6)]
    path = str(tmp_path / "e.json")
    fio.save_ensemble(path, MixedEnsemble(np.full(6, 1 / 6), tuple(states)), units)
    with open(path) as handle:
        text = handle.read()
    start = text.index("}, {", text.index("}, {") + 1) + len("}, ")
    cut = text.index('"psi_im": [', start) + len('"psi_im": [')
    text = text[:cut] + "0.5.5, " + text[cut:]
    with open(path, "w") as handle:
        handle.write(text)
    member_2 = start, text.index("}, {", start) + len("}")
    size = os.path.getsize(path)
    del forks[:], load_reads.handles[:]
    with pytest.raises(FileFormatError, match="not valid JSON"):
        fio.load_target(path)
    assert len(forks) == 1 and load_reads.json_loads == [path]
    # items 0, 2, 4 and 6 (units, weights, members 1 and 3), then the twin's item 5 (member 2)
    assert len(set(load_reads.decoded)) == len(load_reads.decoded) == 5 and load_reads.decoded[-1] == member_2
    assert load_reads.spans == load_reads.decoded
    windows, member_3_stop = load_reads.windows, load_reads.decoded[-2][1]
    assert windows == load_reads.whole(size)[: len(windows)] and windows[-1][0] < member_3_stop <= windows[-1][1]
    assert load_reads.handles == [[path, size]]


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
