"""JSON state/ensemble files, tables, and atomic writes.

Floats are serialized through Python's shortest round-trip repr, so files
reload to bit-identical doubles.  A state file and each member of an
ensemble file share one amplitude layout.  Every load parses its file once
and hands the parsed document to one parser; loaders re-verify
normalization and the decay guard instead of silently repairing data, and
refuse with FileFormatError what Python itself cannot read: integers too
large for a float or longer than its digit limit, and nesting deeper than
its recursion limit.  A load holds the file's text while json.load reads
it, the amplitudes as float64 arrays, and the Python floats of one JSON
object at a time: json.load's object hook turns an object's psi_re and
psi_im into arrays as soon as that object is decoded.  An audit of a
121-member ensemble of 4096 points (a 13.6 MB file) peaks at about 55 MB
of resident memory, against 79 MB when every float was built first.  A
state file's two lists sit in its top-level object, so they are still held
whole as Python floats until the file is decoded.

Every table (a scan, samples, a sweep, a walk) is a header plus rows from
one formatter, _block_text, shared by table_chunks and the file writer:
CSV, or for sweeps and walks also a JSON list of objects, with sweep and
walk headers their row fields.  State and ensemble files are json.dumps'
text, their lists written BLOCK_ROWS values at a time.  Scans, samples,
walks and documents are streamed, so their memory is one block.  Every
Blocks source of two blocks or more (documents, write_scan_csv's mesh, the
command line's samples and walks) is formatted for a file by two processes
taking turns when _turns.second_cpu() holds: os.fork exists,
os.sched_getaffinity offers two CPUs and no other Python thread runs.  The
sweeps' levels are measured by two processes under the same rule
(_turns.shared_map), with the same forked twin (_turns._Pair).  A refused
fork leaves the work to one process; a sweep that fails in either process
is measured again by one, and a file whose twin ends early is not written.
write_samples_csv writes a caller's blocks in one process, as plain chunks,
and one process writes anything on stdout.  Moments are
numpy's pairwise sums, not BLAS dot products, so no output depends on the
OpenBLAS thread count.  Python 3.12 and later warn (DeprecationWarning)
when a process with threads forks, and numpy's OpenBLAS keeps one.
MAX_ROWS = 2**27 rows (1 GiB of float64 values) is the one size limit of
the command line: it refuses a scan, a sample, a walk (steps + 1 rows) or
a --grid of levels x N values above it with exit code 2 before allocating
anything.  It bounds a count, not memory: state needs about 64 bytes a grid
point, about 8 GiB at the limit, to build and measure the state it writes
(see the README).  The sweeps hold one level at a time, so their memory
grows with N, not levels x N.
Every output is written to a temp file beside the real target (a symlink's
target, not the link), created by open(..., "x") under a random
.fluctlab-*.tmp name, so the kernel gives it the mode of an ordinary open()
under the process umask (0o644 under umask 022); a rename then puts it in
place.  A path that reaches an open descriptor of this process
(/proc/self/fd/N, /dev/fd/N, /dev/stdout) is written through a duplicate of
that descriptor, keeping its offset and O_APPEND, and an existing FIFO or
device is written directly; either can be left with partial output by a
failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import stat
from functools import partial
from itertools import chain

import numpy as np

from ._turns import Blocks, write_blocks
from .density import BLOCK_ROWS
from .errors import FileFormatError, GridMismatch
from .scenarios import SweepRow, WalkTrace
from .states import GridSpec, MixedEnsemble, PureState, UnitSystem


MAX_ROWS = 2**27
"""Largest size the command line accepts (CSV rows, or levels x grid
points): the count of float64 values that fills 1 GiB.  A complex grid
value takes 16 bytes, so a --grid needs more."""


def atomic_write_text(path: str, text) -> None:
    """Write text (a str, an iterable of str chunks, or Blocks) to path via a
    temp file and rename, so failures leave no partial file.  A symlink is
    followed: the file it points to is written, and the link stays.  A path
    that reaches an open descriptor of this process (/proc/self/fd/N,
    /dev/fd/N, /dev/stdout) is written through a duplicate of that
    descriptor, at its offset and with its O_APPEND; a path that names an
    existing file that is not regular (a FIFO, a device) is opened and
    written directly.  Neither has a temp file, so a failure there can leave
    partial output."""
    fd = _descriptor(path)
    if fd is not None:
        with open(os.dup(fd), "w") as handle:
            _write(handle, text)
        return
    try:
        mode = os.stat(path).st_mode
    except OSError:  # nothing there yet, or not reachable: the temp file below makes it or reports why not
        mode = stat.S_IFREG
    if not stat.S_ISREG(mode):
        with open(path, "w") as handle:
            _write(handle, text)
        return
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".fluctlab-{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x")  # exclusive, so it never follows a link or takes over a file
    try:
        with handle:
            _write(handle, text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write(handle, text) -> None:
    if isinstance(text, Blocks):
        write_blocks(handle, text)
    else:
        handle.writelines((text,) if isinstance(text, str) else text)


def _descriptor(path: str):
    """N when path, its symlinks followed one at a time, reaches
    /proc/<this process>/fd/N or /dev/fd/N; None otherwise.  Those names
    are links to whatever descriptor N is open on (a file, a pipe, a
    terminal), so resolving them whole would lose its offset and mode."""
    fd_dirs = (f"/proc/{os.getpid()}/fd", "/dev/fd")
    for _ in range(40):  # the kernel's limit on links in one lookup
        head, name = os.path.split(os.path.abspath(path))
        head = os.path.realpath(head)
        if name.isascii() and name.isdigit() and head in fd_dirs:
            return int(name)
        link = os.path.join(head, name)
        if not os.path.islink(link):
            return None
        path = os.path.join(head, os.readlink(link))
    return None


def _units_dict(units: UnitSystem) -> dict:
    return {"h": float(units.h)}


def _grid_dict(grid: GridSpec) -> dict:
    return {"x_min": float(grid.x_min), "x_max": float(grid.x_max), "n": int(grid.n)}


def _amplitude_dict(state: PureState) -> dict:
    return {"psi_re": state.amplitudes.real.tolist(), "psi_im": state.amplitudes.imag.tolist()}


def state_document(state: PureState, units: UnitSystem) -> dict:
    return {"units": _units_dict(units), "grid": _grid_dict(state.grid), **_amplitude_dict(state)}


def ensemble_document(ensemble: MixedEnsemble, units: UnitSystem) -> dict:
    return {
        "units": _units_dict(units),
        "grid": _grid_dict(ensemble.grid),
        "weights": ensemble.weights.tolist(),
        "members": [_amplitude_dict(m) for m in ensemble.members],
    }


def save_state(path: str, state: PureState, units: UnitSystem) -> None:
    """Write json.dumps(state_document(state, units)), a block at a time."""
    atomic_write_text(path, _document(units, state.grid, _amplitude_lists(state, ", "), "]}"))


def save_ensemble(path: str, ensemble: MixedEnsemble, units: UnitSystem) -> None:
    """Write json.dumps(ensemble_document(ensemble, units)), a block at a time."""
    members = (_amplitude_lists(m, "]}, {" if i else '], "members": [{') for i, m in enumerate(ensemble.members))
    lists = chain([(', "weights": [', ensemble.weights)], *members)
    atomic_write_text(path, _document(units, ensemble.grid, lists, "]}]}"))


def _amplitude_lists(state: PureState, lead: str) -> tuple:
    return (lead + '"psi_re": [', state.amplitudes.real), ('], "psi_im": [', state.amplitudes.imag)


def _document(units: UnitSystem, grid: GridSpec, lists, tail: str):
    """json.dumps' text as Blocks: the units and grid, then each (lead, values)
    of lists in blocks of BLOCK_ROWS values, then tail."""
    head = json.dumps({"units": _units_dict(units), "grid": _grid_dict(grid)})[:-1]
    blocks = ((v[i : i + BLOCK_ROWS], ", " if i else lead) for lead, v in lists for i in range(0, v.size, BLOCK_ROWS))
    return Blocks(head, tail, _values_text, blocks)


def _values_text(k: int, block) -> str:
    return block[1] + ", ".join(map(repr, block[0].tolist()))  # the lead, then the values


def _field(mapping, key, kind, where):
    if not isinstance(mapping, dict):
        raise FileFormatError(f"{where}: expected an object")
    if key not in mapping:
        raise FileFormatError(f"{where}.{key}: missing")
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FileFormatError(f"{where}.{key}: expected a number, got {type(value).__name__}")
        try:
            return float(value)
        except OverflowError as exc:
            raise FileFormatError(f"{where}.{key}: {exc}") from exc
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise FileFormatError(f"{where}.{key}: expected an integer, got {type(value).__name__}")
        return value
    if kind is list and not isinstance(value, (list, np.ndarray)):  # an array: _admit_amplitudes converted it
        raise FileFormatError(f"{where}.{key}: expected a list, got {type(value).__name__}")
    return value


def _number_array(values, where):
    if isinstance(values, np.ndarray):  # admitted while the file was decoded
        return values
    if not set(map(type, values)) <= {float, int}:  # in C; the loop below only names the first offender
        for i, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise FileFormatError(f"{where}[{i}]: expected a number, got {type(v).__name__}")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _parse_units(doc) -> UnitSystem:
    return UnitSystem(h=_field(_field(doc, "units", dict, "document"), "h", float, "units"))


def _parse_grid(doc) -> GridSpec:
    grid = _field(doc, "grid", dict, "document")
    return GridSpec(
        x_min=_field(grid, "x_min", float, "grid"),
        x_max=_field(grid, "x_max", float, "grid"),
        n=_field(grid, "n", int, "grid"),
    )


def _parse_amplitudes(mapping, grid, where) -> np.ndarray:
    re = _number_array(_field(mapping, "psi_re", list, where), f"{where}.psi_re")
    im = _number_array(_field(mapping, "psi_im", list, where), f"{where}.psi_im")
    if re.size != grid.n or im.size != grid.n:
        raise FileFormatError(
            f"{where}: psi_re/psi_im lengths ({re.size}, {im.size}) do not match grid.n = {grid.n}"
        )
    return re + 1j * im


def _admit_amplitudes(obj: dict) -> dict:
    """json.load's object_hook: a decoded object's psi_re and psi_im become
    float64 arrays at once when _number_array admits them, so the floats of
    one member are freed before the next member is read.  A list it refuses
    stays a list, for the parser to name under its path."""
    for key in ("psi_re", "psi_im"):
        if isinstance(obj.get(key), list):
            with contextlib.suppress(FileFormatError):
                obj[key] = _number_array(obj[key], key)
    return obj


def _load_json(path: str) -> dict:
    with open(path) as handle:
        try:
            doc = json.load(handle, object_hook=_admit_amplitudes)
        except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and Python's digit limit
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def _parse_document(doc: dict, ensemble: bool):
    """(PureState or MixedEnsemble, UnitSystem) from a parsed state or
    ensemble document; constructors re-verify normalization and the decay
    guard, so tampered files fail loudly."""
    units = _parse_units(doc)
    grid = _parse_grid(doc)
    if not ensemble:
        return PureState(grid, _parse_amplitudes(doc, grid, "document")), units
    weights = _number_array(_field(doc, "weights", list, "document"), "weights")
    members_doc = _field(doc, "members", list, "document")
    members = tuple(
        PureState(grid, _parse_amplitudes(m, grid, f"members[{i}]"))
        for i, m in enumerate(members_doc)
    )
    return MixedEnsemble(weights, members), units


def load_state(path: str):
    """Read a state file; returns (PureState, UnitSystem)."""
    return _parse_document(_load_json(path), ensemble=False)


def load_ensemble(path: str):
    """Read an ensemble file; returns (MixedEnsemble, UnitSystem)."""
    return _parse_document(_load_json(path), ensemble=True)


def load_target(path: str):
    """Read either file kind, sniffing by schema; returns (state-or-ensemble, units)."""
    doc = _load_json(path)
    return _parse_document(doc, ensemble="members" in doc or "weights" in doc)


# --- tables ------------------------------------------------------------------

class Table(Blocks):
    """A table to write: its fields, blocks and form as table_chunks takes them."""

    def __init__(self, fields, blocks, form: str):
        super().__init__(*_table_ends(fields, form), partial(_block_text, fields, form), blocks)


def table_chunks(fields, blocks, form: str):
    """Text chunks of a table: the header, one chunk per block of rows, and
    the tail.

    fields names the columns.  A block is a tuple of columns, each a list of
    str values or of numbers (int or float); an empty block yields nothing.
    Form "csv" gives a line of the names, then a line per row with each str as
    it is and each number as its repr; form "json" gives the bytes of
    json.dumps on the list of dict(zip(fields, row)) over every row.
    """
    return iter(Table(fields, blocks, form))


def _table_ends(fields, form: str) -> tuple:
    """The text before a table's first block and after its last."""
    return ("[", "]") if form == "json" else (",".join(fields) + "\n", "")


def _block_text(fields, form: str, k: int, block) -> str:
    """The text of block k of a table (k counts blocks that have rows).

    CSV: a line per row, each str column as it is and each number as its
    repr, made by one %-format of the whole block.  JSON: the rows as
    json.dumps writes them between a list's brackets, after ", " unless k is 0.
    """
    if form == "json":
        rows = json.dumps([dict(zip(fields, row)) for row in zip(*block)])[1:-1]
        return ", " + rows if k else rows
    line = ",".join("%s" if isinstance(column[0], str) else "%r" for column in block) + "\n"
    return line * len(block[0]) % tuple(chain.from_iterable(zip(*block)))


def field_names(cls) -> tuple:
    """Column names of a table of dataclass records: the field names, in order."""
    return tuple(field.name for field in dataclasses.fields(cls))


def record_block(records) -> tuple:
    """Dataclass records as one table block: a column per field, in field order."""
    return tuple(zip(*(vars(record).values() for record in records)))


def write_samples_csv(path: str, blocks) -> None:
    """Samples CSV of (k, 2) draw blocks, such as density.sample_blocks yields,
    written by one process as plain chunks: a caller's blocks need not replay."""
    columns = ((b[:, 0].tolist(), b[:, 1].tolist()) for b in blocks)
    atomic_write_text(path, table_chunks(("x", "p"), columns, "csv"))


def _scan_blocks(xs, ps, values):
    """The mesh's (x, p, f) columns in blocks of at most BLOCK_ROWS rows: whole
    x-rows, or slices of one x-row when a row is longer than a block.  Each
    axis value is formatted once, and goes in as a str.  Values whose shape,
    or whose block's shape, differs from the axes' raise GridMismatch."""
    x_text, p_text = (list(map(repr, np.asarray(axis, dtype=float).tolist())) for axis in (xs, ps))
    shape = (len(x_text), len(p_text))
    if getattr(values, "shape", shape) != shape:
        raise GridMismatch(f"scan values have shape {values.shape}, not the axes' {shape}")
    p_step = min(len(p_text), BLOCK_ROWS) or 1
    x_step = BLOCK_ROWS // p_step
    for i in range(0, len(x_text), x_step):
        for j in range(0, len(p_text), p_step):
            x_block, p_block = x_text[i : i + x_step], p_text[j : j + p_step]
            # a last block's slice runs to the mesh's end, so rows or columns past the axes show in its shape
            rows = slice(i, i + x_step if i + x_step < shape[0] else None)
            columns = slice(j, j + p_step if j + p_step < shape[1] else None)
            f = np.asarray(values[rows, columns], dtype=float)
            block_shape = (len(x_block), len(p_block))
            if f.shape != block_shape:
                raise GridMismatch(f"scan values block at [{i}, {j}] has shape {f.shape}, not {block_shape}")
            yield [x for x in x_block for _ in p_block], p_block * len(x_block), f.ravel().tolist()


def write_scan_csv(path: str, xs, ps, values) -> None:
    """Mesh dump, one row per (x, p) pair, rows following xs then ps."""
    atomic_write_text(path, Table(("x", "p", "f"), _scan_blocks(xs, ps, values), "csv"))


def sweep_rows_csv(rows: list[SweepRow]) -> str:
    return "".join(table_chunks(field_names(SweepRow), [record_block(rows)], "csv"))


def walk_rows_csv(rows: list[WalkTrace]) -> str:
    return "".join(table_chunks(field_names(WalkTrace), [record_block(rows)], "csv"))
