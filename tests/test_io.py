"""File formats: JSON state/ensemble schemas, the scan and sample CSVs, atomic writes."""

import importlib
import json
import os
import re
import resource
import stat
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import (
    CoherentState,
    DecayGuardViolation,
    FileFormatError,
    GaussianPacket,
    GridMismatch,
    GridSpec,
    InvalidRecipe,
    MixedEnsemble,
    NormalizationError,
    OscillatorEigenstate,
    PureState,
    UnitSystem,
    build_state,
    eigenstate_sweep,
    ensemble_moments,
    oscillator_eigenstates,
    phase_space_moments,
)
from fluctlab import _reader, _turns, cli, density, scenarios
from fluctlab import io as fio

ROOT = Path(__file__).resolve().parents[1]

def test_state_round_trip(tmp_path, grid, units):
    state = build_state(GaussianPacket(0.3, -1.1, 0.9), grid, units)
    path = str(tmp_path / "state.json")
    fio.save_state(path, state, units)
    loaded, loaded_units = fio.load_state(path)
    assert loaded_units == units
    assert loaded.grid == grid
    assert np.array_equal(loaded.amplitudes, state.amplitudes)
    assert phase_space_moments(loaded, units) == phase_space_moments(state, units)


def test_loaded_amplitudes_are_re_plus_1j_im(tmp_path, grid, units):
    """A load builds each state's array in place, with the bits of re + 1j*im,
    signed zeros included (-0.0 + 1j*0.0 has real part 0.0), and adopts it."""
    amp = build_state(GaussianPacket(0.3, -1.1, 0.9), grid, units).amplitudes.copy()
    amp[:4] = [-0.0 + 0.0j, complex(-0.0, -0.0), complex(0.0, -0.0), 0.0]
    path = tmp_path / "state.json"
    fio.save_state(str(path), PureState(grid, amp), units)
    doc = json.loads(path.read_text())
    re, im = np.array(doc["psi_re"]), np.array(doc["psi_im"])
    assert fio.load_state(str(path))[0].amplitudes.tobytes() == (re + 1j * im).tobytes()


def test_state_schema_keys(tmp_path, grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    path = str(tmp_path / "state.json")
    fio.save_state(path, state, units)
    with open(path) as handle:
        doc = json.load(handle)
    assert set(doc) == {"units", "grid", "psi_re", "psi_im"}
    assert set(doc["units"]) == {"h"}
    assert set(doc["grid"]) == {"x_min", "x_max", "n"}
    assert len(doc["psi_re"]) == grid.n
    assert len(doc["psi_im"]) == grid.n


def test_ensemble_round_trip(tmp_path, grid, units):
    members = (
        build_state(OscillatorEigenstate(0), grid, units),
        build_state(OscillatorEigenstate(1), grid, units),
    )
    ensemble = MixedEnsemble(np.array([0.25, 0.75]), members)
    path = str(tmp_path / "ensemble.json")
    fio.save_ensemble(path, ensemble, units)
    loaded, loaded_units = fio.load_ensemble(path)
    assert loaded_units == units
    assert np.array_equal(loaded.weights, ensemble.weights)
    assert all(
        np.array_equal(a.amplitudes, b.amplitudes) for a, b in zip(loaded.members, ensemble.members)
    )
    assert ensemble_moments(loaded, units) == ensemble_moments(ensemble, units)


def test_load_target_sniffs_kind(tmp_path, grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    spath = str(tmp_path / "s.json")
    epath = str(tmp_path / "e.json")
    fio.save_state(spath, state, units)
    fio.save_ensemble(epath, MixedEnsemble(np.array([1.0]), (state,)), units)
    from fluctlab import MixedEnsemble as Ens, PureState

    assert isinstance(fio.load_target(spath)[0], PureState)
    assert isinstance(fio.load_target(epath)[0], Ens)


def _write(tmp_path, doc):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def test_load_reports_offending_field(tmp_path):
    with pytest.raises(FileFormatError, match="units"):
        fio.load_state(_write(tmp_path, {}))
    with pytest.raises(FileFormatError, match=r"grid\.n"):
        fio.load_state(_write(tmp_path, {"units": {"h": 6.28}, "grid": {"x_min": -1.0, "x_max": 1.0, "n": "many"}}))
    with pytest.raises(FileFormatError, match="psi_re"):
        fio.load_state(
            _write(tmp_path, {"units": {"h": 6.28}, "grid": {"x_min": -1.0, "x_max": 1.0, "n": 8}, "psi_im": []})
        )


def test_load_rejects_wrong_length(tmp_path, grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    doc = fio.state_document(state, units)
    doc["psi_re"] = doc["psi_re"][:-1]
    with pytest.raises(FileFormatError, match="psi_re"):
        fio.load_state(_write(tmp_path, doc))


def test_load_rejects_garbage(tmp_path):
    path = str(tmp_path / "garbage.json")
    with open(path, "w") as handle:
        handle.write("not json {")
    with pytest.raises(FileFormatError, match="JSON"):
        fio.load_state(path)


GRID_DOC = '"grid": {"x_min": -1.0, "x_max": 1.0, "n": 8}'
HUGE_INT = "1" + "0" * 400                     # parses as an int, too large for a float
OVERLONG_INT = "1" * 5000                      # beyond Python's 4300-digit conversion limit


@pytest.mark.parametrize(
    "text",
    [
        '{"units": {"h": ' + HUGE_INT + "}, " + GRID_DOC + ', "psi_re": [], "psi_im": []}',
        '{"units": {"h": 6.28}, ' + GRID_DOC + ', "psi_re": [0.0, ' + HUGE_INT + '], "psi_im": []}',
        '{"units": {"h": ' + OVERLONG_INT + "}}",
        "[" * 100_000,
    ],
    ids=["huge-int-h", "huge-int-psi", "overlong-int", "deep-nesting"],
)
def test_load_refuses_numbers_and_nesting_python_cannot_take(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for load in (fio.load_state, fio.load_ensemble, fio.load_target):
        with pytest.raises(FileFormatError):
            load(str(path))


@pytest.mark.parametrize(
    "psi_re, message",
    [
        ([0.5, 1, True], r"document\.psi_re\[2\]: expected a number, got bool"),
        ([0.5, 1, "0.5"], r"document\.psi_re\[2\]: expected a number, got str"),
        ([0.5, 1, None], r"document\.psi_re\[2\]: expected a number, got NoneType"),
        ([0.5, 1, [0.5]], r"document\.psi_re\[2\]: expected a number, got list"),
        ([0.5, 1, 10**400], r"document\.psi_re: int too large to convert to float"),
        ([0.5, None, 0.0, 0.0, 0.0, 0.0, 0.0, True], r"document\.psi_re\[1\]: expected a number, got NoneType"),
    ],
    ids=["bool", "str", "None", "nested-list", "huge-int", "first-of-two"],
)
def test_load_names_the_first_value_that_is_not_a_float(tmp_path, psi_re, message):
    doc = {"units": {"h": 6.28}, "grid": {"x_min": -1.0, "x_max": 1.0, "n": 8},
           "psi_re": (psi_re + [0.0] * 8)[:8], "psi_im": [0.0] * 8}
    with pytest.raises(FileFormatError, match=f"^{message}$"):
        fio.load_state(_write(tmp_path, doc))


ENSEMBLE_GRID = GridSpec(-8.0, 8.0, 64)


def _ensemble_doc(units, levels=3, grid=ENSEMBLE_GRID):
    members = oscillator_eigenstates(levels - 1, 1.0, 1.0, grid, units)
    return fio.ensemble_document(MixedEnsemble(np.full(levels, 1.0 / levels), members), units)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "members[1].psi_re[2]: expected a number, got bool"),
        ("0.5", "members[1].psi_re[2]: expected a number, got str"),
        ([0.5], "members[1].psi_re[2]: expected a number, got list"),
        (2**1024, "members[1].psi_re: int too large to convert to float"),
        (10**399, "members[1].psi_re: int too large to convert to float"),
    ],
    ids=["bool", "str", "nested-list", "int-past-float-max", "400-digit-int"],
)
def test_a_later_member_keeps_its_refusal(tmp_path, units, capsys, value, message):
    doc = _ensemble_doc(units)
    doc["members"][1]["psi_re"][2] = value
    path = _write(tmp_path, doc)
    assert cli.run(["audit", "--in", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    for load in (fio.load_ensemble, fio.load_target):
        with pytest.raises(FileFormatError) as caught:
            load(path)
        assert str(caught.value) == message


@pytest.mark.parametrize("where", ["units", "grid"])
@pytest.mark.parametrize("psi_re", [[0.5, 1], [0.5, True]], ids=["numbers", "bool"])
def test_amplitude_keys_outside_a_state_change_nothing(tmp_path, units, where, psi_re):
    doc = _ensemble_doc(units)
    plain, _ = fio.load_target(_write(tmp_path, doc))
    doc[where]["psi_re"] = doc[where]["psi_im"] = psi_re
    loaded, loaded_units = fio.load_target(_write(tmp_path, doc))
    assert loaded_units == units and loaded.grid == plain.grid
    assert np.array_equal(loaded.weights, plain.weights)
    assert all(np.array_equal(a.amplitudes, b.amplitudes) for a, b in zip(loaded.members, plain.members))


def test_ensemble_load_holds_one_members_floats(tmp_path, units, peak_bytes):
    path = _write(tmp_path, _ensemble_doc(units, levels=40, grid=GridSpec(-16.0, 16.0, 1024)))
    peak = peak_bytes(lambda: fio.load_target(path))
    # the file's bytes and their decoded str are about 2x its size; every float of it at once is about 3.3x
    assert peak < 2.2 * os.path.getsize(path), (peak, os.path.getsize(path))


def test_ensemble_load_holds_one_members_text(tmp_path, units, peak_bytes):
    path = _write(tmp_path, _ensemble_doc(units, levels=40, grid=GridSpec(-16.0, 16.0, 1024)))
    peak = peak_bytes(lambda: fio.load_target(path))
    # the file is read a window at a time and each member decoded on its own, so its whole text is never held
    assert peak < 1.0 * os.path.getsize(path), (peak, os.path.getsize(path))


def test_number_arrays_take_ints_and_floats():
    values = [1, 2.5, -3, 0.0, 10**300]
    assert _reader._number_array(values, "w").tolist() == [1.0, 2.5, -3.0, 0.0, 1e300]


def test_load_reverifies_normalization(tmp_path, grid, units):
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    doc = fio.state_document(state, units)
    doc["psi_re"] = [2.0 * v for v in doc["psi_re"]]
    doc["psi_im"] = [2.0 * v for v in doc["psi_im"]]
    with pytest.raises(NormalizationError):
        fio.load_state(_write(tmp_path, doc))


def test_load_reverifies_decay_guard(tmp_path, units):
    g = GridSpec(-4.0, 4.0, 64)
    value = 1.0 / (g.dx * 63) ** 0.5
    doc = {
        "units": {"h": units.h},
        "grid": {"x_min": -4.0, "x_max": 4.0, "n": 64},
        "psi_re": [value] * 64,
        "psi_im": [0.0] * 64,
    }
    with pytest.raises(DecayGuardViolation):
        fio.load_state(_write(tmp_path, doc))


def test_atomic_write_cleans_up_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"

    def explode(src, dst):
        raise OSError("disk on fire")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError):
        fio.atomic_write_text(str(target), "payload")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_samples_csv(tmp_path):
    path = str(tmp_path / "draws.csv")
    draws = np.array([[0.5, -1.25], [1e-17, 3.0]])
    fio.write_samples_csv(path, [draws])
    lines = open(path).read().splitlines()
    assert lines[0] == "x,p"
    assert len(lines) == 3
    parsed = [tuple(float(f) for f in line.split(",")) for line in lines[1:]]
    assert parsed[0] == (0.5, -1.25)
    assert parsed[1] == (1e-17, 3.0)


def test_scan_csv(tmp_path):
    path = str(tmp_path / "scan.csv")
    xs = np.array([0.0, 1.0])
    ps = np.array([2.0, 3.0, 4.0])
    values = np.arange(6.0).reshape(2, 3)
    fio.write_scan_csv(path, xs, ps, values)
    lines = open(path).read().splitlines()
    assert lines[0] == "x,p,f"
    assert len(lines) == 7
    assert lines[1] == "0.0,2.0,0.0"
    assert lines[-1] == "1.0,4.0,5.0"


# --- streamed CSV writers: byte pins against the per-row formula -------------

EDGE_VALUES = [-0.0, 5e-324, 1e-17, 1e308, 0.0, -2.5, 1 / 3]


def _reference_samples_text(draws):
    rows = [",".join((repr(float(draws[i, 0])), repr(float(draws[i, 1])))) for i in range(draws.shape[0])]
    return "\n".join(["x,p", *rows]) + "\n"


def _reference_scan_text(xs, ps, values):
    rows = [
        ",".join((repr(float(xs[i])), repr(float(ps[j])), repr(float(values[i, j]))))
        for i in range(xs.size)
        for j in range(ps.size)
    ]
    return "\n".join(["x,p,f", *rows]) + "\n"


def _blocks(draws):
    """draws as the (k, 2) blocks of at most BLOCK_ROWS rows that density.sample_blocks yields."""
    return [draws[i : i + fio.BLOCK_ROWS] for i in range(0, len(draws), fio.BLOCK_ROWS)]


def _mesh(n_x, n_p, seed=0):
    rng = np.random.default_rng(seed)
    xs = np.linspace(-3.0, 3.0, n_x)
    ps = np.linspace(-2.0, 2.0, n_p)
    values = np.exp(-np.add.outer(xs**2, ps**2)) * rng.uniform(0.5, 1.5, (n_x, n_p))
    return xs, ps, values


def test_samples_csv_edge_values_match_reference(tmp_path, same_text):
    path = tmp_path / "draws.csv"
    draws = np.array([[v, -v] for v in EDGE_VALUES] + [[v, w] for v in EDGE_VALUES for w in EDGE_VALUES])
    fio.write_samples_csv(str(path), [draws])
    same_text(path.read_text(), _reference_samples_text(draws))


def test_scan_csv_edge_values_match_reference(tmp_path, same_text):
    path = tmp_path / "scan.csv"
    xs = np.array(EDGE_VALUES)
    ps = np.array(EDGE_VALUES[::-1] + [7.0])
    values = np.resize(np.array(EDGE_VALUES), (xs.size, ps.size))
    fio.write_scan_csv(str(path), xs, ps, values)
    same_text(path.read_text(), _reference_scan_text(xs, ps, values))


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_samples_csv_block_boundaries_match_reference(tmp_path, same_text, extra):
    path = tmp_path / "draws.csv"
    draws = np.random.default_rng(extra + 5).standard_normal((fio.BLOCK_ROWS + extra, 2))
    fio.write_samples_csv(str(path), _blocks(draws))
    same_text(path.read_text(), _reference_samples_text(draws))


B = fio.BLOCK_ROWS


@pytest.mark.parametrize(
    "n_x, n_p",
    [
        (1, B - 1), (1, B), (1, B + 1),          # one x-row around a block
        (3, B + 1),                              # x-rows split into column blocks
        (B - 1, 1), (B, 1), (B + 1, 1),          # many one-cell x-rows per block
        (3, 1365), (2, 2048), (17, 241),         # 4095, 4096 and 4097 cells
        (37, 211),                               # non-square, blocks of whole x-rows
    ],
)
def test_scan_csv_blocks_match_reference(tmp_path, same_text, n_x, n_p):
    path = tmp_path / "scan.csv"
    xs, ps, values = _mesh(n_x, n_p)
    fio.write_scan_csv(str(path), xs, ps, values)
    same_text(path.read_text(), _reference_scan_text(xs, ps, values))


class _RowsFailAfterFirstBlock:
    """A mesh whose row blocks raise once the first block has been served."""

    def __init__(self, values):
        self.values = values
        self.served = 0

    def __getitem__(self, key):
        if key[0].start:
            raise RuntimeError("row block unavailable")
        self.served += 1
        return self.values[key]


def test_streamed_write_cleans_up_on_failure(tmp_path):
    target = tmp_path / "scan.csv"
    xs, ps, values = _mesh(64, 2 * B // 64)
    failing = _RowsFailAfterFirstBlock(values)
    with pytest.raises(RuntimeError, match="row block"):
        fio.write_scan_csv(str(target), xs, ps, failing)
    assert failing.served == 1
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


class _Shapeless:
    """A mesh that serves slices of its values but has no .shape."""

    def __init__(self, values):
        self.values = values

    def __getitem__(self, key):
        return self.values[key]


@pytest.mark.parametrize(
    "values, message",
    [
        (np.zeros((2, 2)), r"^scan values have shape \(2, 2\), not the axes' \(3, 4\)$"),
        (np.zeros((5, 5)), r"^scan values have shape \(5, 5\), not the axes' \(3, 4\)$"),
        (_Shapeless(np.zeros((2, 2))), r"^scan values block at \[0, 0\] has shape \(2, 2\), not \(3, 4\)$"),
        (_Shapeless(np.zeros((3, 5))), r"^scan values block at \[0, 0\] has shape \(3, 5\), not \(3, 4\)$"),
        (_Shapeless(np.zeros((4, 4))), r"^scan values block at \[0, 0\] has shape \(4, 4\), not \(3, 4\)$"),
    ],
    ids=["smaller", "larger", "smaller-without-shape", "more-columns-without-shape", "more-rows-without-shape"],
)
def test_scan_csv_refuses_a_mesh_that_does_not_match_its_axes(tmp_path, values, message):
    with pytest.raises(GridMismatch, match=message):
        fio.write_scan_csv(str(tmp_path / "scan.csv"), np.arange(3.0), np.arange(4.0), values)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_accepts_chunks(tmp_path):
    path = tmp_path / "out.txt"
    fio.atomic_write_text(str(path), iter(["a,b\n", "", "1,2\n"]))
    assert path.read_text() == "a,b\n1,2\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_outputs_get_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        fio.atomic_write_text(str(tmp_path / "out.txt"), "payload")
        fio.write_samples_csv(str(tmp_path / "draws.csv"), [np.zeros((3, 2))])
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode
    assert (tmp_path / "draws.csv").stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("mode", [0o600, 0o640], ids=["0600", "0640"])
@pytest.mark.parametrize("writer", ["atomic_write_text", "save_state", "through-a-symlink"])
def test_a_replaced_file_keeps_its_permission_bits(tmp_path, units, writer, mode):
    """open(path, "w") keeps an existing file's mode; so does the rename that
    replaces it, whatever the umask would give a new file."""
    target = tmp_path / "out.json"
    target.write_text("old")
    target.chmod(mode)
    path = str(target)
    if writer == "through-a-symlink":
        path = str(tmp_path / "link.json")
        os.symlink("out.json", path)
    if writer == "save_state":
        fio.save_state(path, build_state(GaussianPacket(), GridSpec(-10.0, 10.0, 64), units), units)
    else:
        fio.atomic_write_text(path, "payload")
    assert target.stat().st_mode & 0o7777 == mode
    assert target.read_text() != "old"
    assert not list(tmp_path.glob(".fluctlab-*.tmp"))


def _samples_table(draws):
    """The draws as the command line writes its samples: a Table, which a forked twin writes with this process."""
    columns = ((block[:, 0].tolist(), block[:, 1].tolist()) for block in _blocks(draws))
    return fio.Table(("x", "p"), columns, "csv")


def test_streamed_writers_memory_is_bounded(tmp_path, peak_bytes):
    draws = np.random.default_rng(3).standard_normal((200_000, 2))
    xs, ps, values = _mesh(501, 401)
    writes = [
        (tmp_path / "draws.csv", lambda path: fio.atomic_write_text(path, _samples_table(draws))),
        (tmp_path / "scan.csv", lambda path: fio.write_scan_csv(path, xs, ps, values)),
    ]
    for path, write in writes:
        peak = peak_bytes(lambda: write(str(path)), warm_up=False)
        assert peak < path.stat().st_size / 4, (path.name, peak)


def test_write_through_a_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target.name)
    fio.write_samples_csv(str(link), [np.zeros((1, 2))])
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == "x,p\n0.0,0.0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_write_through_a_dangling_symlink_creates_its_target(tmp_path):
    (tmp_path / "out").mkdir()
    link = tmp_path / "link.txt"
    link.symlink_to(tmp_path / "out" / "made.txt")
    fio.atomic_write_text(str(link), "payload")
    assert link.is_symlink()
    assert (tmp_path / "out" / "made.txt").read_text() == "payload"
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["made.txt"]


def test_write_into_a_fifo_reaches_its_reader(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    draws = np.random.default_rng(4).standard_normal((3 * fio.BLOCK_ROWS, 2))  # past a pipe's buffer
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    fio.write_samples_csv(str(fifo), _blocks(draws))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert read == [_reference_samples_text(draws)]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


@pytest.mark.parametrize("cut", [0, 1], ids=["whole", "cut"])
def test_load_from_a_fifo_reads_it_once(tmp_path, grid, units, cut):
    """A pipe cannot be read again from its start, so one json.load reads it
    whole: a valid state loads, and a cut one gets json.load's message."""
    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    fio.save_state(str(tmp_path / "s.json"), state, units)
    text = (tmp_path / "s.json").read_text()
    text = text[: len(text) - cut]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    if cut:
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(text)
        with pytest.raises(FileFormatError) as caught:
            fio.load_state(str(fifo))
        assert str(caught.value) == f"{fifo}: not valid JSON ({whole.value})"
    else:
        loaded, _ = fio.load_state(str(fifo))
        assert np.array_equal(loaded.amplitudes, state.amplitudes)
    writer.join(timeout=30)
    assert not writer.is_alive()


def test_write_into_a_pipe_through_proc_self_fd():
    read_end, write_end = os.pipe()
    with os.fdopen(read_end) as reader, os.fdopen(write_end, "w") as writer:
        fio.atomic_write_text(f"/proc/self/fd/{writer.fileno()}", iter(["a,b\n", "1,2\n"]))
        writer.close()
        assert reader.read() == "a,b\n1,2\n"


def test_write_to_a_directory_is_refused_before_any_chunk(tmp_path):
    def chunks():
        raise AssertionError("a chunk was made")
        yield

    with pytest.raises(IsADirectoryError, match=f"{tmp_path}'$"):
        fio.atomic_write_text(str(tmp_path), chunks())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["/proc/self/fd/{}", "link-to-fd"])
def test_write_to_an_open_descriptor_appends_through_it(tmp_path, name):
    """--out /dev/stdout >> app.txt: the table lands after app.txt's content, in the same file."""
    app = tmp_path / "app.txt"
    app.write_text("earlier line\n")
    inode = app.stat().st_ino
    draws = np.random.default_rng(6).standard_normal((3 * fio.BLOCK_ROWS, 2))
    with open(app, "a") as handle:
        path = name.format(handle.fileno())
        if name == "link-to-fd":
            os.symlink(f"/proc/self/fd/{handle.fileno()}", tmp_path / name)
            path = str(tmp_path / name)
        fio.write_samples_csv(path, _blocks(draws))
        handle.write("later line\n")
    assert app.stat().st_ino == inode
    assert app.read_text() == "earlier line\n" + _reference_samples_text(draws) + "later line\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["app.txt", name] if name == "link-to-fd" else ["app.txt"])


# --- the table writer: two processes taking turns, the same bytes ------------

def _table_blocks(n_blocks):
    """n_blocks blocks of an int, a float and a str column, with an empty block between each two."""
    rng = np.random.default_rng(n_blocks)
    blocks = []
    for b in range(n_blocks):
        rows = range(5 * b, 5 * b + 3 + b)
        blocks += [(rows, rng.standard_normal(len(rows)).tolist(), [f"r{k}" for k in rows]), ([], [], [])]
    return blocks


@pytest.mark.parametrize("form", ["csv", "json"])
@pytest.mark.parametrize("n_blocks", [0, 1, 2, 3, 4, 5])
def test_table_file_matches_its_chunks(tmp_path, same_text, forks, form, n_blocks):
    path = tmp_path / f"table.{form}"
    fields = ("step", "value", "label")
    fio.atomic_write_text(str(path), fio.Table(fields, iter(_table_blocks(n_blocks)), form))
    same_text(path.read_text(), "".join(fio.table_chunks(fields, _table_blocks(n_blocks), form)))
    assert len(forks) == (n_blocks >= 2)


@pytest.mark.parametrize("form", ["csv", "json"])
def test_scan_with_rows_longer_than_a_block_matches_its_chunks(tmp_path, same_text, forks, form):
    xs, ps, values = _mesh(3, 2 * B + 1)
    path = tmp_path / f"scan.{form}"
    fio.atomic_write_text(str(path), fio.Table(("x", "p", "f"), fio._scan_blocks(xs, ps, values), form))
    same_text(path.read_text(), "".join(fio.table_chunks(("x", "p", "f"), fio._scan_blocks(xs, ps, values), form)))
    assert len(forks) == 1


def test_refusal_in_a_twin_block_leaves_no_file(tmp_path, forks):
    """Block 3 of this mesh is the twin's; the parent makes it too, and refuses it the same way."""
    xs, ps = np.arange(4.0), np.arange(float(B))
    with pytest.raises(GridMismatch, match=r"^scan values block at \[3, 0\] has shape \(2, 4096\), not \(1, 4096\)$"):
        fio.write_scan_csv(str(tmp_path / "scan.csv"), xs, ps, _Shapeless(np.zeros((5, B))))
    assert len(forks) == 1
    assert list(tmp_path.iterdir()) == []


KILLED_AT_BLOCK_3 = {
    "sample-to-file": (density, "sample_blocks",
                       ["density", "sample", "--var-x", "1", "--var-p", "1", "--seed", "3", "--count", str(6 * B)]),
    "walk-to-stdout": (scenarios, "walk_blocks",
                       ["scenario", "walk", "--var-x", "2", "--var-p", "2", "--steps", str(6 * B),
                        "--step-size", "0.05", "--seed", "7"]),
}


@pytest.mark.parametrize("case", KILLED_AT_BLOCK_3)
def test_killed_twin_leaves_its_blocks_to_the_command(tmp_path, capsys, forks, monkeypatch, case):
    """The command formats the block the twin was killed in, and every later
    one, so the file, or stdout, has the bytes one process writes."""
    module, name, argv = KILLED_AT_BLOCK_3[case]
    parent, real_blocks = os.getpid(), getattr(module, name)

    def blocks_killed_in_the_twin(*args):
        for k, block in enumerate(real_blocks(*args)):
            if k == 3 and os.getpid() != parent:
                os.kill(os.getpid(), 9)  # SIGKILL
            yield block

    monkeypatch.setattr(module, name, blocks_killed_in_the_twin)  # the handler imports it when it runs
    out = tmp_path / "rows.csv"
    argv = [*argv, "--out", str(out)] if case.endswith("file") else argv
    descriptors = len(os.listdir("/proc/self/fd"))
    assert cli.run(argv) == 0
    shared = capsys.readouterr(), out.read_bytes() if out.exists() else None
    assert len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == descriptors
    assert list(tmp_path.iterdir()) == ([out] if case.endswith("file") else [])
    assert _alone(monkeypatch, lambda: cli.run(argv)) == 0
    assert (capsys.readouterr(), out.read_bytes() if out.exists() else None) == shared


def test_interrupt_in_the_parent_kills_the_twin_and_leaves_no_file(tmp_path, forks):
    """The parent stops reading the twin's blocks, then kills and reaps it (the
    autouse fixture checks that no child is left)."""
    parent = os.getpid()

    def blocks():
        for k, block in enumerate(_table_blocks(6)):
            if k == 6 and os.getpid() == parent:  # table block 3: an empty block follows each one
                raise KeyboardInterrupt
            yield block

    descriptors = len(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        fio.atomic_write_text(
            str(tmp_path / "table.csv"), fio.Table(("step", "value", "label"), blocks(), "csv")
        )
    assert len(forks) == 1
    assert list(tmp_path.iterdir()) == []
    assert len(os.listdir("/proc/self/fd")) == descriptors


WALK_ARGV = ["scenario", "walk", "--var-x", "1", "--var-p", "1", "--step-size", "0.1", "--seed", "1"]


@pytest.mark.parametrize("form", ["csv", "json"])
def test_a_walk_on_stdout_forks_once_and_prints_its_file(tmp_path, capsys, same_text, forks, form):
    """stdout gets a table through the writer every file goes through: the same
    bytes, and for JSON a newline after them, with the twin formatting the odd blocks."""
    argv = [*WALK_ARGV, "--steps", "10000", "--format", form]  # 10001 rows: 3 blocks
    assert cli.run(argv) == 0
    assert len(forks) == 1
    printed = capsys.readouterr().out
    assert cli.run([*argv, "--out", str(tmp_path / "walk")]) == 0
    assert len(forks) == 2
    same_text(printed, (tmp_path / "walk").read_text() + ("\n" if form == "json" else ""))


def test_interrupt_in_the_parent_kills_the_twin_of_a_stdout_table(monkeypatch, forks):
    """A walk printed to stdout forks its twin as a file does, and an interrupt
    in the parent's own block kills and reaps it (the autouse fixture checks)."""
    parent, real_walk_blocks = os.getpid(), scenarios.walk_blocks

    def walk_blocks(*args):
        for k, block in enumerate(real_walk_blocks(*args)):
            if k == 2 and os.getpid() == parent:  # the parent's second block; the twin made block 1
                raise KeyboardInterrupt
            yield block

    monkeypatch.setattr(scenarios, "walk_blocks", walk_blocks)
    descriptors = len(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        cli.run([*WALK_ARGV, "--steps", str(3 * B)])
    assert len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == descriptors


@pytest.mark.parametrize("work", ["sweep", "table"])
def test_interrupt_while_waiting_for_the_twin_still_reaps_it(tmp_path, units, monkeypatch, forks, work):
    """A KeyboardInterrupt (or the command line's signal exception) that lands in
    the parent's wait for a finished twin: the twin is still killed and reaped."""
    real_waitpid, interrupted = os.waitpid, []

    def waitpid_interrupted_once(pid, options):
        if not interrupted:
            interrupted.append(pid)
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid_interrupted_once)
    with pytest.raises(KeyboardInterrupt):
        if work == "sweep":
            eigenstate_sweep(9, 1.0, 1.0, GridSpec(-15.0, 15.0, 2048), units)
        else:
            table = fio.Table(("step", "value", "label"), iter(_table_blocks(5)), "csv")
            fio.atomic_write_text(str(tmp_path / "table.csv"), table)
    assert interrupted == forks and len(forks) == 1
    with pytest.raises(ChildProcessError):  # no child left, running or exited
        real_waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == []


def test_one_cpu_never_forks(tmp_path, same_text, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
    path = tmp_path / "table.csv"
    fio.atomic_write_text(str(path), fio.Table(("step", "value", "label"), iter(_table_blocks(5)), "csv"))
    same_text(path.read_text(), "".join(fio.table_chunks(("step", "value", "label"), _table_blocks(5), "csv")))


def test_no_fork_while_another_thread_runs(tmp_path, same_text, units, forks):
    """A lock another thread holds at the fork (numpy's FFT plan cache, say) would
    stay held in the twin forever, so neither a table nor a sweep forks then."""
    grid = GridSpec(-15.0, 15.0, 2048)
    path, fields = tmp_path / "table.csv", ("step", "value", "label")
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        fio.atomic_write_text(str(path), fio.Table(fields, iter(_table_blocks(5)), "csv"))
        rows = eigenstate_sweep(9, 1.0, 1.0, grid, units)
    finally:
        release.set()
        other.join()
    assert forks == []
    same_text(path.read_text(), "".join(fio.table_chunks(fields, _table_blocks(5), "csv")))
    assert rows == eigenstate_sweep(9, 1.0, 1.0, grid, units)
    assert len(forks) == 1


def test_refused_fork_writes_the_table_alone(tmp_path, same_text, monkeypatch):
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", refuse)
    descriptors = len(os.listdir("/proc/self/fd"))
    path = tmp_path / "table.csv"
    fio.atomic_write_text(str(path), fio.Table(("step", "value", "label"), iter(_table_blocks(5)), "csv"))
    same_text(path.read_text(), "".join(fio.table_chunks(("step", "value", "label"), _table_blocks(5), "csv")))
    assert len(os.listdir("/proc/self/fd")) == descriptors


def test_a_callers_blocks_are_written_by_one_process(tmp_path, same_text, forks):
    """Both processes would read the caller's file through one shared offset,
    so the twin's blocks would start where the parent's reads had left it."""
    draws = np.random.default_rng(8).standard_normal((80, 2))
    source = tmp_path / "draws.f64"
    draws.tofile(source)
    with open(source, "rb", buffering=0) as handle:
        blocks = (np.fromfile(handle, count=16).reshape(-1, 2) for _ in range(5))
        fio.write_samples_csv(str(tmp_path / "s.csv"), blocks)
    same_text((tmp_path / "s.csv").read_text(), _reference_samples_text(draws[:40]))
    assert forks == []


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "eval", "--var-x", "1", "--var-p", "1", "--scan-x=-1:1:2", f"--scan-p=-1:1:{B}"],
        ["density", "sample", "--var-x", "1", "--var-p", "1", "--count", str(B + 1), "--seed", "1"],
        ["scenario", "walk", "--var-x", "1", "--var-p", "1", "--steps", str(B), "--step-size", "0.1", "--seed", "1"],
        ["state", "--gaussian", f"--grid=-20:20:{B}"],
    ],
    ids=["scan", "sample", "walk", "state"],
)
def test_the_commands_own_blocks_fork_once(tmp_path, capsys, forks, argv):
    assert cli.run([*argv, "--out", str(tmp_path / "out")]) == 0
    assert len(forks) == 1


def _doc_case(n, members):
    """A state (members 0) or an ensemble of that many members, on n points, with complex amplitudes."""
    grid = GridSpec(-10.0, 10.0, n)
    states = [build_state(CoherentState(complex(j / 2, 0.5)), grid, UnitSystem()) for j in range(max(members, 1))]
    if not members:
        return states[0], fio.save_state, fio.state_document
    weights = np.array([0.5, 0.3, 0.2][:members])
    return MixedEnsemble(weights / weights.sum(), tuple(states)), fio.save_ensemble, fio.ensemble_document


@pytest.mark.parametrize(
    "n, members",  # members 0 is a state; n gives lists of 1, 1, 2, 2 and 4 blocks
    [(8, 0), (B, 0), (B + 1, 0), (2 * B, 0), (3 * B + 1, 0), (8, 1), (8, 3), (B + 1, 1)],
)
def test_document_file_is_json_dumps_of_its_view(tmp_path, same_text, units, forks, n, members):
    target, save, view = _doc_case(n, members)
    save(str(tmp_path / "doc.json"), target, units)
    same_text((tmp_path / "doc.json").read_text(), json.dumps(view(target, units)))
    assert len(forks) == 1


@pytest.mark.parametrize("fork", ["one-cpu", "refused"])
def test_document_written_alone_is_json_dumps_of_its_view(tmp_path, same_text, units, monkeypatch, fork):
    def refuse():
        if fork == "one-cpu":
            pytest.fail("forked with one CPU")
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if fork == "one-cpu" else {0, 1})
    monkeypatch.setattr(os, "fork", refuse)
    descriptors = len(os.listdir("/proc/self/fd"))
    target, save, view = _doc_case(8, 3)
    save(str(tmp_path / "doc.json"), target, units)
    same_text((tmp_path / "doc.json").read_text(), json.dumps(view(target, units)))
    assert len(os.listdir("/proc/self/fd")) == descriptors


def _load_case(tmp_path, members, n=64):
    """A state file (members 0) or an ensemble file of that many members, on n points; its path and target."""
    grid, units = GridSpec(-10.0, 10.0, n), UnitSystem()
    states = [build_state(CoherentState(complex(j / 60, 0.5 - j / 240)), grid, units) for j in range(max(members, 1))]
    path = str(tmp_path / f"load{members}.json")
    if not members:
        fio.save_state(path, states[0], units)
        return path, states[0]
    weights = np.arange(1.0, members + 1)
    ensemble = MixedEnsemble(weights / weights.sum(), tuple(states))
    fio.save_ensemble(path, ensemble, units)
    return path, ensemble


@pytest.mark.parametrize("members", [0, 3], ids=["state", "ensemble"])
def test_each_item_of_a_load_is_where_its_value_lies_in_the_file(tmp_path, monkeypatch, members):
    """Each item that a load decodes is (admit, start, stop): whether it is a
    top-level psi_re or psi_im, and the file's bytes [start, stop), which are
    that value's JSON text, so they decode to what one json.load of the file
    holds in its place (each top-level value, and each member)."""
    path, _ = _load_case(tmp_path, members)
    with open(path, "rb") as handle:
        data = handle.read()
    expected = []
    for key, value in json.loads(data).items():
        expected += [(False, m) for m in value] if key == "members" else [(key in ("psi_re", "psi_im"), value)]
    items, real_decoded = [], _reader._Window.decoded

    def decoded(window, k, item):
        items.append(item)
        return real_decoded(window, k, item)

    monkeypatch.setattr(_reader._Window, "decoded", decoded)
    _reader._load_json(path)  # a small file: this process decodes every item
    for (admit, start, stop), (amplitudes, value) in zip(items, expected, strict=True):
        assert admit is amplitudes and type(start) is type(stop) is int
        assert data[start:stop] == json.dumps(value).encode() and json.loads(data[start:stop]) == value


@pytest.mark.parametrize("load, members, n, missing", [
    (fio.load_ensemble, 0, 65536, "weights"), (fio.load_state, 3, 4096, "psi_re"),
], ids=["ensemble-of-a-state-file", "state-of-an-ensemble-file"])
def test_a_file_of_the_other_kind_is_refused_at_its_first_key_of_that_kind(
        tmp_path, forks, load_reads, load, members, n, missing):
    """The load refuses the file at the head's third key, psi_re (or
    weights), with the parser's message for the key it needs: no amplitude
    list is decoded, only units and grid, and no twin is forked, though
    every load here is shared (the forks fixture) and the 65536-point state
    file is 2.5 MB.  The file is still matched to its end, so one cut short
    is still refused as not valid JSON."""
    path, _ = _load_case(tmp_path, members, n)
    del forks[:], load_reads.decoded[:]
    with pytest.raises(FileFormatError, match=rf"^document\.{missing}: missing$"):
        load(path)
    assert forks == []
    with open(path, "rb") as handle:
        data = handle.read()
    decoded = [json.loads(data[start:stop]) for start, stop in load_reads.decoded]
    assert decoded == [json.loads(data)["units"], json.loads(data)["grid"]]
    with open(path, "w") as handle:
        handle.write(data.decode()[:-1])
    with pytest.raises(FileFormatError, match="not valid JSON"):
        load(path)


def test_a_file_with_keys_of_both_kinds_loads_as_json_load_reads_it(tmp_path, forks):
    """psi_re and psi_im before weights: the file leaves the layout at
    weights, and json.load reads it, whose document the ensemble parser
    reads as before, ignoring psi_re and psi_im."""
    path, ensemble = _load_case(tmp_path, 2)
    with open(path) as handle:
        doc = json.load(handle)
    both = {"units": doc["units"], "grid": doc["grid"], "psi_re": [0.0], "psi_im": [0.0], **doc}
    with open(path, "w") as handle:
        json.dump(both, handle)
    loaded, _ = fio.load_ensemble(path)
    assert np.array_equal(loaded.weights, ensemble.weights)
    assert all(np.array_equal(a.amplitudes, b.amplitudes) for a, b in zip(loaded.members, ensemble.members, strict=True))


def _bits(target) -> list:
    """The bytes of a state's amplitudes, or of an ensemble's weights and each member's amplitudes."""
    if isinstance(target, PureState):
        return [target.amplitudes.tobytes()]
    return [target.weights.tobytes(), *(member.amplitudes.tobytes() for member in target.members)]


@pytest.mark.parametrize("change", ["reordered", "extra-key"])
@pytest.mark.parametrize("members", [0, 3], ids=["state", "ensemble"])
def test_a_valid_file_out_of_the_layout_is_one_json_load(tmp_path, forks, members, change):
    """A valid state or ensemble file whose keys are in another order, or
    that holds one more key, is not the layout that save_state and
    save_ensemble write: it loads to the same bits as the file saved,
    through exactly one json.load, and load_state refuses such an ensemble
    with the parser's message."""
    path, target = _load_case(tmp_path, members)
    with open(path) as handle:
        doc = json.load(handle)
    doc = dict(reversed(doc.items())) if change == "reordered" else {**doc, "note": "kept by json.load"}
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with mock.patch.object(json, "load", wraps=json.load) as whole:
        loaded, units = fio.load_target(path)
    assert whole.call_count == 1
    assert type(loaded) is type(target) and units == UnitSystem() and _bits(loaded) == _bits(target)
    if members:
        with pytest.raises(FileFormatError, match=r"^document\.psi_re: missing$"):
            fio.load_state(path)


def _alone(monkeypatch, action):
    """action() with second_cpu forced false: the load in one process, as before it was shared."""
    with monkeypatch.context() as alone:
        alone.setattr(_turns, "second_cpu", lambda: False)
        return action()


@pytest.mark.parametrize("members", [0, 1, 2, 3, 121], ids=["state", "1", "2", "3", "121"])
def test_a_load_in_two_processes_is_the_load_in_one(tmp_path, capsys, monkeypatch, forks, members):
    """The twin decodes every other value of the file (for an ensemble, every
    other member); the command gets the same state or ensemble, bit for bit,
    and an audit prints the same report, with one fork per load."""
    path, target = _load_case(tmp_path, members)
    del forks[:]  # the save forked too
    loaded, units = fio.load_target(path)
    assert len(forks) == 1
    alone, alone_units = _alone(monkeypatch, lambda: fio.load_target(path))
    assert len(forks) == 1
    assert type(loaded) is type(alone) is type(target) and units == alone_units
    if members:
        assert np.array_equal(loaded.weights, alone.weights) and np.array_equal(loaded.weights, target.weights)
        pairs = list(zip(loaded.members, alone.members, target.members, strict=True))
    else:
        pairs = [(loaded, alone, target)]
    for mine, one, saved in pairs:
        assert np.array_equal(mine.amplitudes, one.amplitudes) and np.array_equal(mine.amplitudes, saved.amplitudes)
    assert cli.run(["audit", "--in", path]) == 0
    printed = capsys.readouterr()
    assert len(forks) == 2
    assert _alone(monkeypatch, lambda: cli.run(["audit", "--in", path])) == 0
    assert capsys.readouterr() == printed


FORK_BYTES = _reader._FORK_BYTES  # read before the forks fixture sets it to 0


@pytest.mark.parametrize("size, twins", [(FORK_BYTES - 1, 0), (FORK_BYTES, 1)], ids=["below", "at"])
def test_a_load_forks_only_for_a_file_of_fork_bytes_or_more(tmp_path, monkeypatch, forks, size, twins):
    """A twin's fork pays only for a large file (see _reader._FORK_BYTES): a file
    one byte smaller is decoded by the command alone, through the same loop,
    and one of that size shares its values with a twin.  Both load the state
    that was saved; the file is a small state padded with whitespace."""
    path, state = _load_case(tmp_path, 0)
    monkeypatch.setattr(_reader, "_FORK_BYTES", FORK_BYTES)
    with open(path, "a") as handle:
        handle.write(" " * (size - os.path.getsize(path)))
    assert os.path.getsize(path) == size
    del forks[:]
    loaded, _ = fio.load_target(path)
    assert len(forks) == twins
    assert np.array_equal(loaded.amplitudes, state.amplitudes)


def test_every_file_the_state_files_workload_loads_streams(tmp_path, monkeypatch, capsys, forks):
    """The files that perfbench's state_files workload audits, its 3 `state`
    outputs and its 2 save_ensemble inputs, are each in the layout: each
    audit matches its file with json.load never called, and forks one twin
    for a file of _FORK_BYTES or more (the states and the 121-member
    ensemble) and none for a smaller one (the 1-member ensemble)."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import helper, workloads

    monkeypatch.setattr(_reader, "_FORK_BYTES", FORK_BYTES)
    monkeypatch.chdir(tmp_path)
    plan = workloads.plan("state_files", seed=1, workdir=str(tmp_path))
    helper.prepare_inputs(plan.inputs)
    twins = {}
    for command in plan.commands:
        del forks[:]
        with mock.patch.object(json, "load", wraps=json.load) as whole:
            assert cli.run(list(command.argv)) == 0, capsys.readouterr()
        if command.argv[0] == "audit":
            path = command.argv[command.argv.index("--in") + 1]
            assert not whole.called, command.id
            twins[command.id] = (len(forks), os.path.getsize(path) >= FORK_BYTES)
    assert len(twins) == 5 and {size for _, size in twins.values()} == {True, False}
    assert all(count == size for count, size in twins.values()), twins


def test_a_load_from_a_pipe_never_forks(tmp_path, forks):
    """A pipe cannot be read at an offset of one's own, so /dev/stdin on a pipe is read by one json.load."""
    path, state = _load_case(tmp_path, 0)
    del forks[:]
    read_end, write_end = os.pipe()
    with open(path, "rb") as source:
        os.write(write_end, source.read())  # a small file: the pipe holds it whole, so no writer thread runs
    os.close(write_end)
    stdin = os.dup(0)
    try:
        os.dup2(read_end, 0)
        loaded, _ = fio.load_target("/dev/stdin")
    finally:
        os.dup2(stdin, 0)
        os.close(stdin)
        os.close(read_end)
    assert forks == []
    assert np.array_equal(loaded.amplitudes, state.amplitudes)


@pytest.mark.parametrize("fork", ["one-cpu", "refused"])
def test_a_load_that_cannot_fork_is_made_alone(tmp_path, monkeypatch, fork):
    path, ensemble = _load_case(tmp_path, 3)

    def refuse():
        if fork == "one-cpu":
            pytest.fail("forked with one CPU")
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if fork == "one-cpu" else {0, 1})
    monkeypatch.setattr(os, "fork", refuse)
    descriptors = len(os.listdir("/proc/self/fd"))
    loaded, _ = fio.load_target(path)
    assert all(np.array_equal(a.amplitudes, b.amplitudes) for a, b in zip(loaded.members, ensemble.members, strict=True))
    assert len(os.listdir("/proc/self/fd")) == descriptors


def test_a_load_whose_twin_is_killed_is_finished_by_the_command(tmp_path, monkeypatch, forks, load_reads):
    """Item 5 of a 5-member ensemble's walk (units, grid, weights, then the
    members) is member 2, the twin's.  Killed while it decodes that member,
    the twin leaves it and every later value to the command, which walks the
    file once, as a load that loses no twin does, and reads each value it
    decodes, the lost ones too, once more at its span."""
    path, _ = _load_case(tmp_path, 5)
    del forks[:], load_reads.handles[:]
    parent, real_decoded = os.getpid(), _reader._Window.decoded

    def decoded_killed_in_the_twin(window, k, item):
        if k == 5 and os.getpid() != parent:
            os.kill(os.getpid(), 9)  # SIGKILL
        return real_decoded(window, k, item)

    monkeypatch.setattr(_reader._Window, "decoded", decoded_killed_in_the_twin)
    descriptors = len(os.listdir("/proc/self/fd"))
    loaded, units = fio.load_target(path)
    assert len(forks) == 1 and len(os.listdir("/proc/self/fd")) == descriptors
    assert load_reads.windows == load_reads.whole(os.path.getsize(path))
    # items 0, 2 and 4 (units, weights, member 1), then the lost item 5 and items 6 and 7
    assert len(set(load_reads.decoded)) == len(load_reads.decoded) == 6
    assert load_reads.spans == load_reads.decoded
    assert load_reads.handles == [[path, 0]] and load_reads.json_loads == []
    alone, alone_units = _alone(monkeypatch, lambda: fio.load_target(path))
    assert units == alone_units and np.array_equal(loaded.weights, alone.weights)
    assert all(np.array_equal(a.amplitudes, b.amplitudes) for a, b in zip(loaded.members, alone.members, strict=True))


def _member_at(text: str, i: int) -> int:
    """Where member i's object starts in an ensemble file's text."""
    at = text.index('"members": [') + len('"members": [')
    for _ in range(i):
        at = text.index("}, {", at) + len("}, ")
    return at


def _with_number(text: str, at: int, key: str, k: int, number: str) -> str:
    """text with value k of the list under key, the first such list from at on, replaced by number."""
    start = text.index(f'"{key}": [', at) + len(f'"{key}": [')
    values = text[start:].split(", ", k + 1)
    return text[:start] + ", ".join([*values[:k], number, *values[k + 1:]])


SPOILED = {
    "str-in-member-3": (5, lambda t: _with_number(t, _member_at(t, 3), "psi_re", 7, '"0.5"'),
                        "error: members[3].psi_re[7]: expected a number, got str\n"),
    "str-in-member-4": (5, lambda t: _with_number(t, _member_at(t, 4), "psi_re", 7, '"0.5"'),
                        "error: members[4].psi_re[7]: expected a number, got str\n"),
    "str-in-psi_im": (0, lambda t: _with_number(t, 0, "psi_im", 7, "true"),
                      "error: document.psi_im[7]: expected a number, got bool\n"),
    "cut-in-member-3": (5, lambda t: t[: _member_at(t, 3) + 200], None),
    "bad-syntax-in-member-2": (5, lambda t: _with_number(t, _member_at(t, 2), "psi_im", 3, "0.5.5"), None),
    "extra-data": (2, lambda t: t + " {}", None),
}


@pytest.mark.parametrize("case", SPOILED)
def test_a_refusal_is_the_same_whichever_process_decodes_the_value(tmp_path, capsys, monkeypatch, forks, case):
    """A bad value refused where the twin decodes it, or where the command
    does, exits 2 with the message one process gives: a number the parser
    refuses comes back from the twin as its plain list, and text the twin
    cannot decode ends the twin, so the command decodes it, refuses it, and
    hands the file to json.load."""
    members, spoil, message = SPOILED[case]
    path, _ = _load_case(tmp_path, members)
    with open(path) as handle:
        text = spoil(handle.read())
    with open(path, "w") as handle:
        handle.write(text)
    assert _alone(monkeypatch, lambda: cli.run(["audit", "--in", path])) == 2
    alone = capsys.readouterr()
    if message is None:  # refused as not JSON: json.load's own message
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(text)
        message = f"error: {path}: not valid JSON ({whole.value})\n"
    assert alone == ("", message)
    del forks[:]
    assert cli.run(["audit", "--in", path]) == 2
    assert capsys.readouterr() == alone
    assert len(forks) == 1


def test_interrupt_while_a_load_waits_for_the_twin_reaps_it(tmp_path, monkeypatch, forks):
    """A KeyboardInterrupt that lands while the command waits for the twin's
    value kills and reaps the twin (the autouse fixture checks), and is not
    taken for a twin that ended, whose values the command would decode."""
    path, _ = _load_case(tmp_path, 3)
    del forks[:]

    def interrupted(pair):
        raise KeyboardInterrupt

    monkeypatch.setattr(_turns._Pair, "receive", interrupted)
    descriptors = len(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        cli.run(["audit", "--in", path])
    assert len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == descriptors


@pytest.mark.parametrize("how", ["killed", "raises", "refuses"])
def test_failing_twin_leaves_the_state_to_the_command(tmp_path, capsys, forks, monkeypatch, how):
    """Block 3 of the state file is the twin's.  A twin killed there, or one
    that raises a ValueError there (and only there), leaves that block and
    every later one to the command, which writes one process's bytes; a block
    that fails in both processes (InvalidRecipe, a ValueError the command
    line reports) fails the command as it fails one process, and no file is left."""
    parent, real_text = os.getpid(), fio._values_text

    def text_failing_at_block_3(k, block):
        if k == 3 and how == "refuses":
            raise InvalidRecipe("block 3 refused")
        if k == 3 and os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), 9)  # SIGKILL
            raise ValueError("block 3 failed in the twin")
        return real_text(k, block)

    monkeypatch.setattr(fio, "_values_text", text_failing_at_block_3)
    out = tmp_path / "state.json"
    argv = ["state", "--gaussian", f"--grid=-20:20:{3 * B}", "--out", str(out)]
    descriptors = len(os.listdir("/proc/self/fd"))
    code = cli.run(argv)
    shared = code, capsys.readouterr(), out.read_bytes() if code == 0 else None
    assert len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == descriptors
    assert list(tmp_path.iterdir()) == ([out] if code == 0 else [])
    code = _alone(monkeypatch, lambda: cli.run(argv))
    assert (code, capsys.readouterr(), out.read_bytes() if code == 0 else None) == shared
    if how == "refuses":
        assert shared[:2] == (2, ("", "error: block 3 refused\n"))
    else:
        assert shared[0] == 0


def test_interrupt_in_the_parent_during_save_state_leaves_no_file(tmp_path, units, forks, monkeypatch):
    parent, real_text = os.getpid(), fio._values_text

    def text_interrupted_in_the_parent(k, block):
        if k == 4 and os.getpid() == parent:
            raise KeyboardInterrupt
        return real_text(k, block)

    monkeypatch.setattr(fio, "_values_text", text_interrupted_in_the_parent)
    state = build_state(GaussianPacket(0.0, 0.5, 1.0), GridSpec(-20.0, 20.0, 3 * B), units)
    with pytest.raises(KeyboardInterrupt):
        fio.save_state(str(tmp_path / "state.json"), state, units)
    assert len(forks) == 1
    assert list(tmp_path.iterdir()) == []


def _peak_resident_growth(action) -> int:
    """The bytes by which a forked child's peak resident memory grows while it
    runs action.  A forked child's peak starts at its size when forked, so the
    peaks this process reached before do not hide the growth."""
    receive, send = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            action()
            os.write(send, b"%d" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))
        finally:
            os._exit(0)
    os.close(send)
    try:
        growth = os.read(receive, 32)
    finally:
        os.close(receive)
        os.waitpid(pid, 0)
    assert growth, "the action failed in the child"
    return int(growth) * 1024  # ru_maxrss counts KiB on Linux


def test_save_state_memory_is_one_block_whatever_the_grid(tmp_path, units, forks, peak_bytes):
    """A save holds one block's floats and text, not the file's.  Building the
    whole text took a tracemalloc peak of 4.5 MiB at 2^14 points, and grew a
    process's peak resident memory 16 MiB more at 2^18 points than at 2^14.
    Tracing 2^18 points takes seconds, so the growth is measured untraced, on
    a narrow packet (mostly 0.0) that is quick to format."""
    path = str(tmp_path / "state.json")
    state = build_state(GaussianPacket(0.0, 0.5, 1.0), GridSpec(-40.0, 40.0, 2**14), units)
    # compiled once a process, at its first write, in about 1 MB of the compiler's memory that is freed at once
    importlib.import_module("fluctlab._floattext")
    assert peak_bytes(lambda: fio.save_state(path, state, units), warm_up=False) < 2**20
    growths = []
    for n in (2**14, 2**18):
        state = build_state(GaussianPacket(0.0, 0.5, 0.05), GridSpec(-40.0, 40.0, n), units)
        growths.append(_peak_resident_growth(lambda: fio.save_state(path, state, units)))
    assert growths[1] - growths[0] < 2**20, growths


def test_atomic_write_leaves_a_file_it_did_not_create(tmp_path, monkeypatch):
    taken = tmp_path / f".fluctlab-{bytes(8).hex()}.tmp"
    taken.write_text("another writer's")
    monkeypatch.setattr(os, "urandom", bytes)  # the next temp name is the taken one
    with pytest.raises(FileExistsError):
        fio.atomic_write_text(str(tmp_path / "out.txt"), "payload")
    assert taken.read_text() == "another writer's"
    assert [p.name for p in tmp_path.iterdir()] == [taken.name]


STATE_DOC = {"units": {"h": 6.28}, "grid": {"x_min": -1.0, "x_max": 1.0, "n": 8},
             "psi_re": [0.0] * 8, "psi_im": [0.0] * 8}


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"grid": [-1.0, 1.0, 8]}, FileFormatError, r"^grid: expected an object$"),
        ({"units": 6.28}, FileFormatError, r"^units: expected an object$"),
        ({"grid": {"x_min": "-1", "x_max": 1.0, "n": 8}}, FileFormatError,
         r"^grid\.x_min: expected a number, got str$"),
        ({"psi_re": "zeros"}, FileFormatError, r"^document\.psi_re: expected a list, got str$"),
        ({"psi_re": [float("nan")] + [0.0] * 7}, InvalidRecipe, r"^amplitudes must be finite$"),
    ],
    ids=["grid-not-object", "units-not-object", "x_min-string", "psi_re-not-list", "psi_re-nan"],
)
def test_load_refuses_malformed_state_documents(tmp_path, change, error, message):
    path = _write(tmp_path, {**STATE_DOC, **change})
    with pytest.raises(error, match=message):
        fio.load_target(path)


def test_load_refuses_a_top_level_list(tmp_path):
    path = _write(tmp_path, [STATE_DOC])
    with pytest.raises(FileFormatError, match=r"top level must be an object$"):
        fio.load_target(path)


def _whole_load(path):
    """The single json.load that reads a file whole: the reference for _reader._load_json."""
    with open(path) as handle:
        try:
            doc = json.load(handle, object_hook=_reader._admit_amplitudes)
        except (ValueError, RecursionError) as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def _outcome(load, path):
    try:
        return load(path)
    except FileFormatError as exc:
        return exc


def _same(a, b) -> bool:
    """Equal values of the same types; arrays by dtype and array_equal, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, FileFormatError):
        return str(a) == str(b)
    return a == b or a != a and b != b


def _array(items, space):
    return "[" + space + ("," + space).join(items) + space + "]"


def _object(entries, space):
    return "{" + space + ("," + space).join(key + space + ":" + space + value for key, value in entries) + space + "}"


SPACE = st.text(" \t\n\r", max_size=3)
STRING = st.builds(json.dumps, st.text(st.sampled_from('ab"\\/[]{},: é \n\t'), max_size=6),
                   ensure_ascii=st.booleans())
NUMBER = st.one_of(st.floats(), st.integers(-10**20, 10**20), st.integers(2**1024, 2**1030)).map(json.dumps)
SCALAR = st.one_of(NUMBER, STRING, st.sampled_from(["true", "false", "null", "-0", "1e400", "0.5E-3"]))
KEY = st.one_of(st.sampled_from(["units", "grid", "h", "n", "psi_re", "psi_im", "weights", "members"]).map(json.dumps),
                STRING)
AMPLITUDES = st.builds(_array, st.lists(st.one_of(NUMBER, st.sampled_from(["true", "false"])), max_size=5), SPACE)
MEMBERS = st.builds(_array, st.lists(st.builds(
    _object, st.lists(st.tuples(st.sampled_from(['"psi_re"', '"psi_im"']), AMPLITUDES), max_size=3), SPACE),
    max_size=3), SPACE)
VALUE = st.recursive(
    st.one_of(SCALAR, AMPLITUDES),
    lambda children: st.one_of(st.builds(_array, st.lists(children, max_size=3), SPACE),
                               st.builds(_object, st.lists(st.tuples(KEY, children), max_size=3), SPACE)),
    max_leaves=8,
)
DOCUMENT = st.builds(lambda entries, space: space + _object(entries, space) + space,
                     st.lists(st.tuples(KEY, st.one_of(VALUE, MEMBERS)), max_size=6), SPACE)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(text=DOCUMENT, mutation=st.sampled_from(["none", "cut", "trailing comma", "extra data", "bom", "list",
                                                "key not a string"]),
       window=st.integers(1, 7), list_window=st.integers(1, 9), data=st.data())
def test_windowed_load_is_one_json_load(tmp_path_factory, text, mutation, window, list_window, data):
    """Any text, read through a window of 1 to 7 characters, so that every key,
    number, literal and escape straddles reads, and with a top-level psi_re
    or psi_im list longer than 1 to 9 bytes decoded that many bytes at a time
    (see _reader._Window.numbers), loads as one json.load of the whole file loads
    it, or fails with its message; and every text refused is refused by
    json.load, so its message is always json.load's."""
    if mutation == "cut":
        text = text[: data.draw(st.integers(0, len(text) - 1), label="cut at")]
    elif mutation == "trailing comma":
        end = text.rindex("}")
        text = text[:end] + "," + text[end:]
    elif mutation == "extra data":
        text += data.draw(st.sampled_from([" 1", "{}", "x", "]", "\f"]), label="extra")
    elif mutation == "bom":
        text = "﻿" + text
    elif mutation == "list":
        text = data.draw(st.one_of(VALUE, st.just(_array([text], ""))), label="top level")
    elif mutation == "key not a string":
        start = text.index("{") + 1
        text = text[:start] + data.draw(st.sampled_from(["1", "null", "[]", "{}"]), label="first key") + ":1," + text[start:]
    path = str(tmp_path_factory.getbasetemp() / "window.json")
    with open(path, "w", newline="") as handle:
        handle.write(text)
    with mock.patch.object(_reader, "_WINDOW", window), mock.patch.object(_reader, "_LIST_WINDOW", list_window), \
            mock.patch.object(json, "load", wraps=json.load) as whole:
        loaded = _outcome(_reader._load_json, path)
    expected = _outcome(_whole_load, path)
    assert _same(loaded, expected), (text, loaded, expected)
    assert whole.called or isinstance(expected, dict), text


LAYOUT_LIST = st.lists(st.one_of(st.floats(), st.integers(-10**20, 10**20)), max_size=8)
LAYOUT_NUMBER = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _layout_documents(draw):
    """A document in the key order that save_state (psi_re, psi_im) or
    save_ensemble (weights, then 0-4 members) writes; its values any numbers."""
    head = {"units": {"h": draw(LAYOUT_NUMBER)},
            "grid": {"x_min": draw(LAYOUT_NUMBER), "x_max": draw(LAYOUT_NUMBER), "n": draw(st.integers(0, 99))}}
    if draw(st.booleans()):
        return {**head, "psi_re": draw(LAYOUT_LIST), "psi_im": draw(LAYOUT_LIST)}
    members = [{"psi_re": draw(LAYOUT_LIST), "psi_im": draw(LAYOUT_LIST)} for _ in range(draw(st.integers(0, 4)))]
    return {**head, "weights": draw(LAYOUT_LIST), "members": members}


LAYOUT_MUTATIONS = {  # what a mutation puts where the sentinel "@" is in one of the document's lists
    "bad number": ["0.5.5", "1x", "-", "1e", "tru", "01"],
    "string holding ]": ['"]"', '"a]b"', '"[]"'],
}


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(doc=_layout_documents(), form=st.sampled_from(["spaced", "compact", "dumps", "indent"]),
       mutation=st.sampled_from(["none", "cut", "extra data", "trailing comma", "bad number", "string holding ]",
                                 "reordered key", "extra key", "repeated key"]),
       window=st.integers(1, 40), list_window=st.integers(1, 12), twin=st.booleans(), data=st.data())
def test_a_layout_file_streams_and_any_other_is_one_json_load(tmp_path_factory, doc, form, mutation, window,
                                                               list_window, twin, data):
    """A file in the layout that save_state and save_ensemble write, with any
    JSON whitespace between its tokens (none, json.dumps' own, its indent=2
    form, or any run of it), read 1 to 40 bytes at a time, with lists longer
    than a _LIST_WINDOW of 1 to 12 bytes, alone or with a twin, loads as one
    json.load of the whole file loads it, with json.load never called.  The
    same file cut short, followed by more, with a trailing comma, a bad
    number or a string holding "]" in a list, or with a key reordered, added
    or repeated, loads or is refused as that json.load does it, by that
    json.load."""
    lists = [doc[key] for key in ("psi_re", "psi_im", "weights") if key in doc]
    lists += [member[key] for member in doc.get("members", []) for key in ("psi_re", "psi_im")]
    if mutation in LAYOUT_MUTATIONS:
        target = data.draw(st.sampled_from(lists), label="list")
        target.insert(data.draw(st.integers(0, len(target)), label="at"), "@")
    elif mutation == "reordered key":
        members = doc.get("members", [])
        where = data.draw(st.sampled_from(["top", *range(len(members))]), label="where")
        if where == "top":
            keys = data.draw(st.permutations(list(doc)).filter(lambda keys: keys != list(doc)), label="keys")
            doc = {key: doc[key] for key in keys}
        else:
            members[where] = dict(reversed(members[where].items()))
    elif mutation == "extra key":
        members = doc.get("members", [])
        where = data.draw(st.sampled_from(["top", *range(len(members))]), label="where")
        entries = list((doc if where == "top" else members[where]).items())
        entries.insert(data.draw(st.integers(0, len(entries)), label="at"), ("note", 1))
        if where == "top":
            doc = dict(entries)
        else:
            members[where] = dict(entries)
    if form == "spaced":
        pieces = re.split(r"([{}\[\]:,])", json.dumps(doc, separators=(",", ":")))
        spaces = data.draw(st.lists(SPACE, min_size=len(pieces), max_size=len(pieces)), label="spaces")
        text = "".join(piece + space for piece, space in zip(pieces, spaces))
    else:
        text = json.dumps(doc, **{"compact": {"separators": (",", ":")}, "dumps": {}, "indent": {"indent": 2}}[form])
    if mutation in LAYOUT_MUTATIONS:
        text = text.replace('"@"', data.draw(st.sampled_from(LAYOUT_MUTATIONS[mutation]), label="value"), 1)
    elif mutation == "cut":
        text = text[: data.draw(st.integers(0, len(text) - 1), label="cut at")]
    elif mutation == "extra data":
        text += data.draw(st.sampled_from([" 1", "{}", "x", "]", ",", "\f"]), label="extra")
    elif mutation == "trailing comma":  # in the last list: psi_im, or the members
        end = text.rindex("]")
        text = text[:end] + "," + text[end:]
    elif mutation == "repeated key":
        end = text.rindex("}")
        key = data.draw(st.sampled_from(list(doc)), label="key")
        text = text[:end] + ", " + json.dumps(key) + ": " + json.dumps(doc[key]) + text[end:]
    path = str(tmp_path_factory.getbasetemp() / "layout.json")
    with open(path, "w", newline="") as handle:
        handle.write(text)
    with mock.patch.object(_reader, "_WINDOW", window), mock.patch.object(_reader, "_LIST_WINDOW", list_window), \
            mock.patch.object(_reader, "_FORK_BYTES", 0 if twin else _reader._FORK_BYTES), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1} if twin else {0}), \
            mock.patch.object(json, "load", wraps=json.load) as whole:
        loaded = _outcome(_reader._load_json, path)
    expected = _outcome(_whole_load, path)
    assert _same(loaded, expected), (text, loaded, expected)
    assert whole.called == (mutation != "none"), text


FLAT = "[0.5,-1e-300, 2 ,3.25,\n 4,5e3,6, NaN,-0.0,9]"
FLAT_CASES = {  # a state's psi_re list, and whether _reader._Window.numbers decodes it a window at a time (None: json.load)
    "flat": (FLAT, True),
    "true": (FLAT.replace("6", "true"), False),
    "nested": (FLAT.replace("6", "[6]"), None),  # the layout ends the list at the first "]"
    "string": (FLAT.replace("6", '"6"'), False),
    "object": (FLAT.replace("6", "{}"), False),
    "huge-integer": (FLAT.replace("6", "1" + "0" * 400), False),
    "trailing-comma": (FLAT[:-1] + ",]", False),
    "empty-element": (FLAT.replace("6", ""), False),
    "leading-comma": ("[," + FLAT[1:], False),
    "run-on": (FLAT.replace("6", "6x"), False),
}


def _flat_boundaries(text: str, window: int) -> set:
    """Where a window of the list (see _reader._Window.numbers) starts or ends in
    text: a comma as a window's first or last byte, a value that ends at a
    window's end, and a list no longer than one window."""
    found = set() if len(text) > window else {"one window"}
    for end in range(1 + window, len(text), window):  # the list's windows start after its bracket
        found |= {"comma first"} if text[end] == "," else set()
        found |= {"comma last"} if text[end - 1] == "," else set()
        found |= {"value ends"} if text[end - 1] not in ", \n" and text[end] in ", \n]" else set()
    return found


@pytest.mark.parametrize("case", FLAT_CASES)
def test_a_list_cut_at_every_window_boundary_is_one_json_load(tmp_path, monkeypatch, case):
    """A state file's psi_re list, decoded a window of 1 byte to the whole
    list at a time, loads as one json.load of the whole file loads it, or
    fails with its message: a flat list of numbers by _reader._Window.numbers
    wherever the windows cut it, any other list by one decode of its whole
    text, and a list that holds a "]" by json.load."""
    text, flat = FLAT_CASES[case]
    path = str(tmp_path / "list.json")
    with open(path, "w") as handle:
        handle.write('{"units": {"h": 1.0}, "grid": {"x_min": -1.0, "x_max": 1.0, "n": 10}, '
                     '"psi_re": %s, "psi_im": []}' % text)
    expected = _outcome(_whole_load, path)
    real_numbers, windowed, boundaries = _reader._Window.numbers, [], set()

    def numbers(window, start, stop):
        if stop - start == len(text):  # psi_re, not psi_im's []
            windowed.append(real_numbers(window, start, stop) is not None)
        return real_numbers(window, start, stop)

    monkeypatch.setattr(_reader._Window, "numbers", numbers)
    for list_window in range(1, len(text) + 2):
        del windowed[:]
        monkeypatch.setattr(_reader, "_LIST_WINDOW", list_window)
        assert _same(_outcome(_reader._load_json, path), expected), list_window
        assert windowed == ([flat] if flat is not None and list_window < len(text) else []), list_window
        boundaries |= _flat_boundaries(text, list_window)
    assert boundaries == {"comma first", "comma last", "value ends", "one window"}


ENCODED = {  # (encoding, what units holds beside h, whether json.load reads the file)
    "shift_jis-ascii": ("shift_jis", '"note": "ab"', False),  # every byte ASCII: the layout streams
    "shift_jis-exact": ("shift_jis", '"note": "アイ"', True),  # no byte of these is ASCII
    "shift_jis-backslash": ("shift_jis", '"note": "ソ"', True),  # 83 5C, an escape's byte
    "shift_jis-brackets": ("shift_jis", '"ソ": 1, "note": ["マゼ", {"ボ": "ゾ"}]', True),  # 7D 5B 7B 5D as well
    "shift_jis-in-a-member": ("shift_jis", None, True),
    "shift_jis-run-on": ("shift_jis", '"note": ["ソ"], "b": {":\\"}": 1}', True),
    "utf-16": ("utf-16", '"note": "ソ"', True),  # a BOM, then two bytes a character
    "utf-16-le": ("utf-16-le", '"note": "ア"', True),  # "{", then a zero byte
    "utf-16-be": ("utf-16-be", '"note": "ア"', True),  # a zero byte, then "{"
}


@pytest.mark.parametrize("case", ENCODED)
def test_a_file_in_another_encoding_loads_as_json_load_of_its_handle(tmp_path, monkeypatch, forks, case):
    """A layout file whose bytes are all ASCII streams in any encoding that
    keeps ASCII; one with a byte that is not ASCII (a Shift-JIS character,
    any UTF-16 text) loads as one json.load of a handle in its encoding
    loads it, by that json.load."""
    encoding, note, fallback = ENCODED[case]
    path, _ = _load_case(tmp_path, 3)
    with open(path) as handle:
        text = handle.read()
    if note is None:  # a string in member 1's psi_re list
        at = text.index('"psi_re": [', _member_at(text, 1)) + len('"psi_re": [')
        text = text[:at] + '"ソ\\"マ", ' + text[at:]
    else:
        text = text.replace('"units": {', '"units": {' + note + ", ", 1)
    with open(path, "w", encoding=encoding) as handle:
        handle.write(text)
    with open(path, encoding=encoding) as handle:
        expected = json.load(handle, object_hook=_reader._admit_amplitudes)
    real_open = open
    monkeypatch.setattr(_reader, "open", lambda path: real_open(path, encoding=encoding), raising=False)
    with mock.patch.object(json, "load", wraps=json.load) as whole:
        loaded = _reader._load_json(path)
    assert _same(loaded, expected)
    assert whole.called == fallback


def _nested_depth(value) -> int:
    """The depth of [[...[]...]]: a list that holds one list, and so on down to []."""
    depth = 0
    while value:
        value, depth = value[0], depth + 1
    return depth + 1


def test_deep_nesting_is_json_loads(tmp_path):
    """A list nested in a layout file's units, the one value of the layout
    whose end the first "]" does not give, or in its psi_re, loads as one
    json.load of the whole file loads it, so the recursion limit refuses the
    same files that one json.load refuses (here from a depth of about 950
    on), though the matcher would decode units a level nearer the top."""
    path = str(tmp_path / "deep.json")
    for depth in (2, 3, *range(880, 1001)):
        nested = "[" * depth + "]" * depth
        for key, text in (("units", '{"units": {"h": %s}, "grid": {}, "psi_re": [], "psi_im": []}' % nested),
                          ("psi_re", '{"units": {}, "grid": {}, "psi_re": %s, "psi_im": []}' % nested)):
            with open(path, "w") as handle:
                handle.write(text)
            loaded, expected = _outcome(_reader._load_json, path), _outcome(_whole_load, path)
            assert type(loaded) is type(expected), depth
            if isinstance(expected, FileFormatError):
                assert str(loaded) == str(expected)
            else:
                assert list(loaded) == ["units", "grid", "psi_re", "psi_im"]
                nested_value = (lambda doc: doc["units"]["h"]) if key == "units" else (lambda doc: doc["psi_re"])
                assert _nested_depth(nested_value(loaded)) == _nested_depth(nested_value(expected)) == depth


@pytest.mark.parametrize("text", ['{"a": 1x}', '{"a": 1.2.3, "b": 1}', '{"a": truex}', '{"a": 1-2}',
                                  '{"members": [1, 2x]}', '{"a": [1], "b": nullnull}', '{"a": 1, "b": 2é}'])
def test_a_number_or_literal_run_on_is_refused_as_json_load_refuses_it(tmp_path, text):
    """A number or literal run on by other characters is refused, as
    json.load refuses the text, by that json.load."""
    path = str(tmp_path / "run-on.json")
    with open(path, "w") as handle:
        handle.write(text)
    loaded = _outcome(_reader._load_json, path)
    assert isinstance(loaded, FileFormatError)
    assert _same(loaded, _outcome(_whole_load, path))
