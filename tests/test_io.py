"""File formats: JSON state/ensemble schemas, the scan and sample CSVs, atomic writes."""

import json
import os
import resource
import stat
import threading
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
from fluctlab import _turns, cli, density, scenarios
from fluctlab import io as fio


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
    assert fio._number_array(values, "w").tolist() == [1.0, 2.5, -3.0, 0.0, 1e300]


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


def test_a_load_whose_twin_is_killed_is_finished_by_the_command(tmp_path, monkeypatch, forks):
    """Item 5 of a 5-member ensemble's walk (units, grid, weights, then the
    members) is member 2, the twin's.  Killed while it decodes that member,
    the twin leaves it and every later value to the command, which reads the
    file once, as a load that loses no twin does."""
    path, _ = _load_case(tmp_path, 5)
    del forks[:]
    parent, real_decoded, real_pread, read = os.getpid(), fio._Window.decoded, os.pread, []

    def decoded_killed_in_the_twin(window, k, item):
        if k == 5 and os.getpid() != parent:
            os.kill(os.getpid(), 9)  # SIGKILL
        return real_decoded(window, k, item)

    def counting_pread(fd, size, offset):
        data = real_pread(fd, size, offset)
        if os.getpid() == parent:
            read.append(len(data))
        return data

    monkeypatch.setattr(fio._Window, "decoded", decoded_killed_in_the_twin)
    monkeypatch.setattr(os, "pread", counting_pread)
    descriptors = len(os.listdir("/proc/self/fd"))
    loaded, units = fio.load_target(path)
    assert len(forks) == 1 and sum(read) == os.path.getsize(path)
    assert len(os.listdir("/proc/self/fd")) == descriptors
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
    """The single json.load that reads a file whole: the reference for io._load_json."""
    with open(path) as handle:
        try:
            doc = json.load(handle, object_hook=fio._admit_amplitudes)
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
       window=st.integers(1, 7), data=st.data())
def test_windowed_load_is_one_json_load(tmp_path_factory, text, mutation, window, data):
    """Any text, read through a window of 1 to 7 characters, so that every key,
    number, literal and escape straddles reads, loads as one json.load of the
    whole file loads it, or fails with its message; and the walk itself takes
    every text that is a JSON object, so none of them is read twice."""
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
    with mock.patch.object(fio, "_WINDOW", window), mock.patch.object(json, "load", wraps=json.load) as whole:
        loaded = _outcome(fio._load_json, path)
    expected = _outcome(_whole_load, path)
    assert _same(loaded, expected), (text, loaded, expected)
    assert whole.called != isinstance(expected, dict), text  # json.load reads only what the walk does not take


def _nested_depth(value) -> int:
    """The depth of [[...[]...]]: a list that holds one list, and so on down to []."""
    depth = 0
    while value:
        value, depth = value[0], depth + 1
    return depth + 1


def test_deep_nesting_is_json_loads(tmp_path):
    """A value nested deeper than _Window decodes goes to json.load, so the
    recursion limit refuses the same files that one json.load refuses (here
    from a depth of about 950 on)."""
    path = str(tmp_path / "deep.json")
    for depth in (fio._NESTING - 1, fio._NESTING, fio._NESTING + 1, *range(880, 1001)):
        nested = "[" * depth + "]" * depth
        for key, text in (("a", '{"a": %s}' % nested), ("members", '{"members": [%s]}' % nested)):
            with open(path, "w") as handle:
                handle.write(text)
            loaded, expected = _outcome(fio._load_json, path), _outcome(_whole_load, path)
            assert type(loaded) is type(expected), depth
            if isinstance(expected, FileFormatError):
                assert str(loaded) == str(expected)
            else:
                assert list(loaded) == [key]
                assert _nested_depth(loaded[key]) == _nested_depth(expected[key]) == depth + (key == "members")


@pytest.mark.parametrize("text", ['{"a": 1x}', '{"a": 1.2.3, "b": 1}', '{"a": truex}', '{"a": 1-2}',
                                  '{"members": [1, 2x]}', '{"a": [1], "b": nullnull}', '{"a": 1, "b": 2é}'])
def test_a_number_or_literal_run_on_is_refused_as_json_load_refuses_it(tmp_path, text):
    """The walk finds a scalar's end at the first character no number or
    literal holds, past where the decoder stops; a value whose decoder stops
    short of that end is refused, as json.load refuses the text."""
    path = str(tmp_path / "run-on.json")
    with open(path, "w") as handle:
        handle.write(text)
    loaded = _outcome(fio._load_json, path)
    assert isinstance(loaded, FileFormatError)
    assert _same(loaded, _outcome(_whole_load, path))
