"""File formats: JSON state/ensemble schemas, the scan and sample CSVs, atomic writes."""

import json
import os
import resource
import stat
import threading

import numpy as np
import pytest

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
    UnitSystem,
    build_state,
    eigenstate_sweep,
    ensemble_moments,
    oscillator_eigenstates,
    phase_space_moments,
)
from fluctlab import cli
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


def test_killed_twin_fails_the_command_and_leaves_no_file(tmp_path, capsys, forks, monkeypatch):
    parent, real_blocks = os.getpid(), cli.sample_blocks

    def blocks_killed_in_the_twin(*args):
        for k, block in enumerate(real_blocks(*args)):
            if k == 3 and os.getpid() != parent:
                os.kill(os.getpid(), 9)  # SIGKILL
            yield block

    monkeypatch.setattr(cli, "sample_blocks", blocks_killed_in_the_twin)
    out = tmp_path / "draws.csv"
    argv = ["density", "sample", "--var-x", "1", "--var-p", "1", "--seed", "3", "--count", str(6 * B), "--out", str(out)]
    descriptors = len(os.listdir("/proc/self/fd"))
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == "error: the process writing the odd blocks of the file ended early (exit code -9)\n"
    assert len(forks) == 1
    assert list(tmp_path.iterdir()) == []
    assert len(os.listdir("/proc/self/fd")) == descriptors


def test_interrupt_in_the_parent_kills_the_twin_and_leaves_no_file(tmp_path, forks):
    """The twin waits for a token that never comes; the parent kills and reaps it (the
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


def test_killed_twin_fails_the_state_command_and_leaves_no_file(tmp_path, capsys, forks, monkeypatch):
    parent, real_text = os.getpid(), fio._values_text

    def text_killed_in_the_twin(k, block):
        if k == 3 and os.getpid() != parent:
            os.kill(os.getpid(), 9)  # SIGKILL
        return real_text(k, block)

    monkeypatch.setattr(fio, "_values_text", text_killed_in_the_twin)
    descriptors = len(os.listdir("/proc/self/fd"))
    assert cli.run(["state", "--gaussian", f"--grid=-20:20:{3 * B}", "--out", str(tmp_path / "state.json")]) == 2
    assert capsys.readouterr().err == "error: the process writing the odd blocks of the file ended early (exit code -9)\n"
    assert len(forks) == 1
    assert list(tmp_path.iterdir()) == []
    assert len(os.listdir("/proc/self/fd")) == descriptors


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
