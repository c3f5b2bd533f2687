"""Sweeps and the relaxation walk."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fluctlab
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
from fluctlab import _turns, cli, scenarios


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
    """Every level is built and measured in one complex and two float arrays made
    once for the sweep, beside the recurrence's rows: 72.7 bytes a grid point
    here (80.9 when each level made its own arrays).  The bound leaves 3.3
    bytes, less than one more float array of the grid."""
    grid = GridSpec(-15.0, 15.0, 16384)
    assert peak_bytes(lambda: eigenstate_sweep(30, 1.0, 1.0, grid, units)) / grid.n < 76


def test_thermal_sweep_memory_does_not_grow_with_levels(units, peak_bytes):
    grid = GridSpec(-22.0, 22.0, 8192)
    # at T = 1 every level up to 120 keeps a nonzero weight
    few = peak_bytes(lambda: thermal_sweep([1.0], 1.0, 1.0, 40, grid, units))
    many = peak_bytes(lambda: thermal_sweep([1.0], 1.0, 1.0, 120, grid, units))
    assert many <= 1.5 * few, (few, many)


def test_thermal_sweep_measures_each_level_once(units, monkeypatch, tmp_path, forks):
    """Counted across both processes: each FFT appends one byte to a file."""
    grid = GridSpec(-15.0, 15.0, 2048)
    temperatures = [0.0, 0.5, 1.0, 2.0]
    kept = len(thermal_ensemble(1.0, 1.0, max(temperatures), 40, grid, units).members)
    calls = tmp_path / "calls"
    calls.write_text("")
    original = np.fft.fft

    def counting(*args, **kwargs):
        with open(calls, "a") as handle:
            handle.write(".")
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    rows = thermal_sweep(temperatures, 1.0, 1.0, 40, grid, units)
    assert len(rows) == len(temperatures)
    assert len(forks) == 1
    assert len(calls.read_text()) == kept


# --- the levels shared with a forked twin: the serial results and errors -----

def _alone(monkeypatch, how):
    """Leave the sweeps one process: second_cpu() false, or every fork refused."""
    if how == "one-cpu":
        monkeypatch.setattr(_turns, "second_cpu", lambda: False)
    else:
        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", refuse)


SWEEPS = {
    "eigensweep": ["scenario", "eigensweep", "--n-max", "9", "--grid=-15:15:2048"],
    "thermalsweep": ["scenario", "thermalsweep", "--temperatures", "0.3,0.5,1,2", "--n-max", "40",
                     "--grid=-15:15:2048"],
}


@pytest.mark.parametrize("how", ["one-cpu", "refused"])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_alone_writes_the_same_bytes(tmp_path, capsys, monkeypatch, forks, how, sweep):
    shared = tmp_path / "shared.csv"
    assert cli.run([*SWEEPS[sweep], "--out", str(shared)]) == 0
    assert len(forks) == 1
    _alone(monkeypatch, how)
    descriptors = len(os.listdir("/proc/self/fd"))
    alone = tmp_path / "alone.csv"
    assert cli.run([*SWEEPS[sweep], "--out", str(alone)]) == 0
    assert len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == descriptors
    assert alone.read_bytes() == shared.read_bytes()


@pytest.mark.parametrize(
    "half_width, n_max",  # the decay guard refuses level 5 first on +-6.75, level 6 first on +-7
    [(6.75, 5), (6.75, 10), (7.0, 6), (7.0, 10)],
    ids=["odd-last", "odd", "even-last", "even"],
)
@pytest.mark.parametrize("how", ["one-cpu", "refused"])
def test_sweep_error_is_the_serial_one(units, capsys, monkeypatch, forks, half_width, n_max, how):
    """An odd level fails in the twin, an even one in this process; either way
    the error is the first failing level's, as with one process."""
    grid = GridSpec(-half_width, half_width, 256)
    argv = ["scenario", "eigensweep", "--n-max", str(n_max), f"--grid={-half_width}:{half_width}:256"]

    def outcomes():
        with pytest.raises(DecayGuardViolation) as refused:
            eigenstate_sweep(n_max, 1.0, 1.0, grid, units)
        return str(refused.value), cli.run(argv), capsys.readouterr()

    shared = outcomes()
    assert len(forks) == 2
    _alone(monkeypatch, how)
    assert outcomes() == shared
    assert shared[0].startswith(f"eigenstate n={5 if half_width == 6.75 else 6}: edge amplitude")
    assert shared[1:] == (3, ("", f"error: {shared[0]}\n"))


def test_killed_twin_leaves_the_sweep_to_this_process(units, monkeypatch, forks, tmp_path):
    """The twin is killed in its first level (1); this process then measures
    level 1 and every later level itself, in order."""
    grid = GridSpec(-15.0, 15.0, 2048)
    expected = eigenstate_sweep(9, 1.0, 1.0, grid, units)
    parent, real_level, mine, killed = os.getpid(), scenarios._level_moments, [], tmp_path / "killed"

    def level_killed_in_the_twin(*args):
        if os.getpid() != parent:
            killed.write_text(args[-1][0])  # the item's label
            os.kill(os.getpid(), 9)  # SIGKILL
        mine.append(args[-1][0])
        return real_level(*args)

    monkeypatch.setattr(scenarios, "_level_moments", level_killed_in_the_twin)
    descriptors = len(os.listdir("/proc/self/fd"))
    assert eigenstate_sweep(9, 1.0, 1.0, grid, units) == expected
    assert len(forks) == 2
    assert killed.read_text() == "eigenstate n=1"
    assert mine == [f"eigenstate n={n}" for n in (0, 2, 1, 3, 4, 5, 6, 7, 8, 9)]
    assert len(os.listdir("/proc/self/fd")) == descriptors


def test_interrupt_in_the_parent_kills_the_sweeps_twin(units, monkeypatch, forks, tmp_path):
    """The parent kills and reaps the twin (the autouse fixture checks that no
    child is left) while the twin still waits in its second level (3), so the
    twin never finishes it."""
    parent, real_level, calls, finished = os.getpid(), scenarios._level_moments, [], tmp_path / "finished"

    def level_interrupted_in_the_parent(*args):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
        elif args[-1][0] == "eigenstate n=3":
            time.sleep(5.0)  # a twin left alive finishes the level after this
        report = real_level(*args)
        if os.getpid() != parent:
            with open(finished, "a") as handle:
                handle.write(args[-1][0] + "\n")
        return report

    monkeypatch.setattr(scenarios, "_level_moments", level_interrupted_in_the_parent)
    descriptors = len(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        eigenstate_sweep(9, 1.0, 1.0, GridSpec(-15.0, 15.0, 2048), units)
    assert len(forks) == 1
    assert finished.read_text() == "eigenstate n=1\n"
    assert len(os.listdir("/proc/self/fd")) == descriptors


def test_sweep_bytes_do_not_depend_on_blas_threads():
    """OpenBLAS splits a long dot product across its threads, which moved the last
    digits of a moment; numpy's own sums do not depend on the thread count."""
    env = {name: value for name, value in os.environ.items() if name != "FLUCTLAB_H"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fluctlab.__file__)) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "fluctlab.cli", "scenario", "eigensweep", "--n-max", "5", "--grid=-15:15:16384"]
    runs = [subprocess.Popen(argv, env=e, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})]
    (default, err), (one_thread, one_err) = (run.communicate(timeout=60) for run in runs)
    assert [run.returncode for run in runs] == [0, 0], (err, one_err)
    assert default == one_thread


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


def test_thermal_sweep_of_no_temperatures_is_empty(units, monkeypatch):
    monkeypatch.setattr(scenarios, "_level_moments", lambda *args: pytest.fail("a level was measured"))
    assert thermal_sweep([], 1.0, 1.0, 40, GridSpec(-15.0, 15.0, 2048), units) == []


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
