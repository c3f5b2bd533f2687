"""JSON state/ensemble files, tables, and atomic writes.

Floats are serialized as Python's shortest round-trip repr, so files reload
to bit-identical doubles.  Every list of a state or ensemble file and every
table, CSV or JSON, is laid out a block at a time by _floattext, with no
Python object per value: each float as its repr (in a JSON table, nan, inf
and -inf as json.dumps' NaN, Infinity and -Infinity), each integer as str,
and each str as it is (in a JSON table, as its json.dumps).  A state file
and each member of an ensemble file share one amplitude layout.  The load
side, load_state, load_ensemble and load_target, is _reader's (see there):
every load parses its file once and hands the parsed document to one
parser, and loaders re-verify normalization and the decay guard instead of
silently repairing data.

Tables, documents and loads are each one _turns._shared loop, and each
keeps one rule: an item is raw data that both processes can replay, and
only the function that makes an item's value makes Python objects of it.
A table's block holds the arrays its source made (the draws, the walk's
products and gaps, a scan's x and p values and the function that makes the
mesh's values for them), and _block_text alone turns them into text, in
the process that formats the block; a document's block is a slice of an amplitude array, which
_values_text formats.  A load's item is where one value lies in the file
(see _reader._Window).

Every table (a scan, samples, a sweep, a walk) is a header plus rows from
one formatter, _block_text, shared by table_chunks and the file writer:
one _floattext.table_lines call a block, given the text around a row's
cells (_table_texts).  A table is CSV, or for sweeps and walks also a JSON
list of objects, with sweep and walk headers their row fields.  State and
ensemble files are json.dumps' text, their lists written BLOCK_ROWS values
at a time.  Scans, samples, walks and documents are streamed, so their
memory is one block.  Every Blocks source of two blocks or more
(documents, write_scan_csv's mesh, the command line's samples and walks)
is formatted by two processes, for a file or for stdout alike, when
_turns.second_cpu() holds: os.fork exists, os.sched_getaffinity offers two
CPUs and no other Python thread runs.  A forked twin formats the odd blocks and sends them back over a pipe, and
this process writes every block.  The sweeps' levels are measured by two
processes the same way (scenarios._measured_levels), with the same forked
twin (_turns._Pair).  A refused fork leaves the work to one process, and a twin
that ends before it sends a block or value leaves that one and every later
one to this process, so a table, a sweep or a load gives what one process
gives, or its error.  write_samples_csv writes a caller's blocks in one
process, as plain chunks.  Moments are numpy's pairwise sums, not BLAS dot
products, so no output depends on the OpenBLAS thread count.  Python 3.12
and later warn (DeprecationWarning) when a process with threads forks, and
numpy's OpenBLAS keeps one, so a table written to a file or to stdout may
print that warning.
MAX_ROWS = 2**27 rows (1 GiB of float64 values) is the one size limit of
the command line: it refuses a scan, a sample, a walk (steps + 1 rows) or
a --grid of levels x N values above it with exit code 2 before allocating
anything.  It bounds a count, not memory: a scan, a sample or a walk holds
one block whatever its rows (a scan's mesh is made a block at a time, by
the process that formats the block), and building and measuring a state
takes several times its values (see the README).  The sweeps hold one level
at a time, so their memory grows with N, not levels x N.
Every output is written to a temp file beside the real target (a symlink's
target, not the link), created by open(..., "x") under a random
.fluctlab-*.tmp name, so the kernel gives it the mode of an ordinary open()
under the process umask (0o644 under umask 022); one that replaces a
regular file is given that file's permission bits, as open() would keep
them.  A rename then puts it in place.  A path that reaches an open
descriptor of this process (/proc/self/fd/N, /dev/fd/N, /dev/stdout) is
written through a duplicate of that descriptor, keeping its offset and
O_APPEND, and an existing FIFO or device is written directly; either can be
left with partial output by a failure.
Every command loads this module, so it imports no density module, and the
modules it does use only where they are used: states where an ensemble is
made (load_ensemble and load_target), scenarios in sweep_rows_csv and
walk_rows_csv, _floattext in _values_text and _block_text, so that only a
command that writes a document or a table compiles it, and _reader in the
three loaders, so that only a command that loads a file (audit) compiles
the load side.  BLOCK_ROWS comes from _turns, beside the block writer.
"""

from __future__ import annotations

import json
import os
import stat
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ._turns import BLOCK_ROWS, Blocks, write_blocks
from .errors import GridMismatch
from .units import UnitSystem

if TYPE_CHECKING:  # imported where they are used, so a command loads only the modules it runs
    from .scenarios import SweepRow, WalkTrace
    from .states import GridSpec, MixedEnsemble, PureState


MAX_ROWS = 2**27
"""Largest size the command line accepts (CSV rows, or levels x grid
points): the count of float64 values that fills 1 GiB.  A complex grid
value takes 16 bytes, so a --grid needs more."""


def atomic_write_text(path: str, text) -> None:
    """Write text (a str, an iterable of str chunks, or Blocks) to path via a
    temp file and rename, so failures leave no partial file.  A symlink is
    followed: the file it points to is written, and the link stays.  A file
    replaced keeps its permission bits.  A path that reaches an open
    descriptor of this process (/proc/self/fd/N, /dev/fd/N, /dev/stdout) is
    written through a duplicate of that descriptor, at its offset and with
    its O_APPEND; a path that names an existing file that is not regular (a
    FIFO, a device) is opened and written directly.  Neither has a temp
    file, so a failure there can leave partial output.  A path whose last name is empty, "." or ".." (one that
    ends in a separator, say) names no file, and a path that os.stat cannot
    follow for any reason but a missing file (a symlink loop, say) may not
    either: both are refused as open(path, "w") refuses them."""
    fd = _descriptor(path)
    if fd is not None:
        with open(os.dup(fd), "w") as handle:
            _write(handle, text)
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:  # nothing there yet (a dangling link's target, say): the temp file below makes it
        mode = None
    except OSError:  # a link loop, say: open() below refuses it with its own error
        mode = 0
    # a last name that is no file's ("dir/", "dir/.") goes to open() too, which refuses it where realpath would drop it
    if (mode is not None and not stat.S_ISREG(mode)) or os.path.basename(path) in ("", ".", ".."):
        with open(path, "w") as handle:
            _write(handle, text)
        return
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".fluctlab-{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x")  # exclusive, so it never follows a link or takes over a file
    try:
        with handle:
            if mode is not None:  # a file replaced keeps its permission bits
                os.fchmod(handle.fileno(), stat.S_IMODE(mode) & 0o777)
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
    from . import _floattext

    return block[1] + _floattext.joined(block[0], ", ")  # the lead, then the values


def load_state(path: str):
    """Read a state file; returns (PureState, UnitSystem)."""
    from ._reader import _load

    _, (state,), units = _load(path, "psi_re")
    return state, units


def load_ensemble(path: str):
    """Read an ensemble file; returns (MixedEnsemble, UnitSystem)."""
    from ._reader import _load
    from .states import MixedEnsemble

    weights, members, units = _load(path, "weights")
    return MixedEnsemble(weights, members), units


def load_target(path: str):
    """Read either file kind, sniffing by schema; returns (state-or-ensemble, units)."""
    from ._reader import _load
    from .states import MixedEnsemble

    weights, kept, units = _load(path)
    return (kept[0] if weights is None else MixedEnsemble(weights, kept)), units


# --- tables ------------------------------------------------------------------

class Table(Blocks):
    """A table to write: its fields, blocks and form as table_chunks takes them."""

    def __init__(self, fields, blocks, form: str):
        head, tail, texts = _table_texts(fields, form)
        super().__init__(head, tail, partial(_block_text, texts, form), blocks)


def table_chunks(fields, blocks, form: str):
    """Text chunks of a table: the header, one chunk per block of rows, and
    the tail.

    fields names the columns.  A block is a tuple of columns, each a numpy
    float64 or integer array, a range, or a list (or tuple) whose values are
    all str, all int or all float; an empty block yields nothing.
    Form "csv" gives a line of the names, then a line per row with each str as
    it is and each number as its repr; form "json" gives the bytes of
    json.dumps on the list of dict(zip(fields, row)) over every row.
    """
    return iter(Table(fields, blocks, form))


def _table_texts(fields, form: str) -> tuple:
    """The text before a table's first block, after its last, and around
    each row's cells: a CSV line, or a JSON object after ", "."""
    if form == "csv":
        return ",".join(fields) + "\n", "", ["", *[","] * (len(fields) - 1), "\n"]
    keys = [json.dumps(field) + ": " for field in fields]
    return "[", "]", [", {" + keys[0], *(", " + key for key in keys[1:]), "}"]


def _block_text(texts, form: str, k: int, block) -> str:
    """The text of block k of a table (k counts blocks that have rows), laid
    out whole by _floattext.table_lines, with no Python object per value:
    CSV lines, or the rows as json.dumps writes them between a list's
    brackets, after ", " unless k is 0.  A scan's block (see _scan_blocks) is
    a mesh: its x values, its p values and their (x, p) values, a row for
    each pair, made here from the function that _scan_blocks gives."""
    from . import _floattext

    if callable(block[-1]):
        block = (*block[:-1], block[-1]())
    return _floattext.table_lines(block, texts, form)[0 if k or form == "csv" else 2 :]


def record_block(records) -> tuple:
    """Records (units._Record) as one table block: a column per field, in
    field order, which is the order of each record's vars() and of its
    class's _fields, the table's column names."""
    return tuple(zip(*(vars(record).values() for record in records)))


def write_samples_csv(path: str, blocks) -> None:
    """Samples CSV of (k, 2) draw blocks, such as density.sample_blocks yields,
    written by one process as plain chunks: a caller's blocks need not replay."""
    atomic_write_text(path, table_chunks(("x", "p"), (b.T for b in blocks), "csv"))


def _scan_blocks(xs, ps, values):
    """The mesh in blocks of at most BLOCK_ROWS (x, p) rows: whole x-rows, or
    slices of one x-row when a row is longer than a block, each block its x
    values, its p values and a function that gives their (x, p) values, so
    that each axis value is formatted once a block and each block's values
    are made by the process that formats it (see _block_text).  values is
    the mesh (an array, or anything that values[rows, columns] slices), or
    a function values(rows, columns) that makes that block of it.  Values
    whose shape, or whose block's shape, differs from the axes' raise
    GridMismatch, a block's where it is made."""
    xs, ps = (np.asarray(axis, dtype=float) for axis in (xs, ps))
    shape = (len(xs), len(ps))
    if getattr(values, "shape", shape) != shape:
        raise GridMismatch(f"scan values have shape {values.shape}, not the axes' {shape}")
    block_values = values if callable(values) else lambda rows, columns: values[rows, columns]
    p_step = min(len(ps), BLOCK_ROWS) or 1
    x_step = BLOCK_ROWS // p_step
    for i in range(0, len(xs), x_step):
        for j in range(0, len(ps), p_step):
            x_block, p_block = xs[i : i + x_step], ps[j : j + p_step]
            # a last block's slice runs to the mesh's end, so rows or columns past the axes show in its shape
            rows = slice(i, i + x_step if i + x_step < shape[0] else None)
            columns = slice(j, j + p_step if j + p_step < shape[1] else None)
            yield x_block, p_block, partial(_block_values, block_values, rows, columns, (len(x_block), len(p_block)))


def _block_values(values, rows: slice, columns: slice, shape: tuple):
    f = np.asarray(values(rows, columns), dtype=float)
    if f.shape != shape:
        raise GridMismatch(f"scan values block at [{rows.start}, {columns.start}] has shape {f.shape}, not {shape}")
    return f


def write_scan_csv(path: str, xs, ps, values) -> None:
    """Mesh dump, one row per (x, p) pair, rows following xs then ps; values
    is the mesh, or a function of a row slice and a column slice that makes
    that block of it (density.density_mesh, say), so that a scan holds one
    block of its mesh at a time."""
    atomic_write_text(path, Table(("x", "p", "f"), _scan_blocks(xs, ps, values), "csv"))


def sweep_rows_csv(rows: list[SweepRow]) -> str:
    from .scenarios import SweepRow

    return "".join(table_chunks(SweepRow._fields, [record_block(rows)], "csv"))


def walk_rows_csv(rows: list[WalkTrace]) -> str:
    from .scenarios import WalkTrace

    return "".join(table_chunks(WalkTrace._fields, [record_block(rows)], "csv"))
