"""JSON state/ensemble files, tables, and atomic writes.

Floats are serialized through Python's shortest round-trip repr, so files
reload to bit-identical doubles.  A state file and each member of an
ensemble file share one amplitude layout.  Every load parses its file once
and hands the parsed document to one parser; loaders re-verify
normalization and the decay guard instead of silently repairing data, and
refuse with FileFormatError what Python itself cannot read: integers too
large for a float or longer than its digit limit, and nesting deeper than
its recursion limit.  A load reads its file _WINDOW (16 Ki) bytes at a
time, by os.pread, and decodes one top-level value, or one ensemble member,
at a time (_Window), so it holds the window, one value's text, that value's
Python floats and the amplitudes as float64 arrays, never the file's whole
text: the decoder's object hook turns an object's psi_re and psi_im into
arrays as soon as the object is decoded, a state's top-level lists become
arrays as soon as each is decoded, and each member's arrays are dropped once
its state is built.  With two CPUs a forked twin decodes every other value
(_turns._shared): both processes walk the whole file, each at its own
offset, and the twin sends back the values it decodes.  An audit of a
121-member ensemble of 4096 points (a 13.6 MB file) peaks at about 39 MB of
resident memory, and loading a 40-member ensemble of 1024 points peaks at
0.69 times its file size under tracemalloc in this process.  A file that is
not a JSON object, or not valid JSON, is read again from its start by one
json.load, so every refusal and its message are json.load's.

Every table (a scan, samples, a sweep, a walk) is a header plus rows from
one formatter, _block_text, shared by table_chunks and the file writer:
CSV, or for sweeps and walks also a JSON list of objects, with sweep and
walk headers their row fields.  State and ensemble files are json.dumps'
text, their lists written BLOCK_ROWS values at a time.  Scans, samples,
walks and documents are streamed, so their memory is one block.  Every
Blocks source of two blocks or more (documents, write_scan_csv's mesh, the
command line's samples and walks) is formatted by two processes, for a file
or for stdout alike, when _turns.second_cpu() holds: os.fork exists,
os.sched_getaffinity offers two CPUs and no other Python thread runs.  A
forked twin formats the odd blocks and sends them back over a pipe, and
this process writes every block.  The sweeps' levels are measured by two
processes the same way (_turns.shared_map), with the same forked twin
(_turns._Pair), and so are the values of a state or ensemble file (_Window).
A refused fork leaves the work to one process, and a twin that ends before
it sends a block or value leaves that one and every later one to this
process, so a table, a sweep or a load gives what one process gives, or its
error.  write_samples_csv writes a caller's blocks in one process, as plain
chunks.  Moments are numpy's pairwise sums, not BLAS dot
products, so no output depends on the OpenBLAS thread count.  Python 3.12
and later warn (DeprecationWarning) when a process with threads forks, and
numpy's OpenBLAS keeps one, so a table written to a file or to stdout may
print that warning.
MAX_ROWS = 2**27 rows (1 GiB of float64 values) is the one size limit of
the command line: it refuses a scan, a sample, a walk (steps + 1 rows) or
a --grid of levels x N values above it with exit code 2 before allocating
anything.  It bounds a count, not memory: state needs 73 bytes a grid point
(tracemalloc at 2^20), about 9 GiB at the limit, to build and measure the
state it writes (see the README).  The sweeps hold one level at a time,
so their memory grows with N, not levels x N.
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
modules it does use only where they are used: states where a state is built
(_parse_grid and _parse_document), scenarios in sweep_rows_csv and
walk_rows_csv.  BLOCK_ROWS comes from _turns, beside the block writer.
"""

from __future__ import annotations

import codecs
import contextlib
import dataclasses
import json
import os
import re
import stat
from collections import deque
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ._turns import BLOCK_ROWS, Blocks, _shared, write_blocks
from .errors import FileFormatError, GridMismatch
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
    from .states import GridSpec

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
    amp = np.multiply(im, 1j)  # re + 1j*im's bits, in the array a state adopts
    return np.add(re, amp, out=amp)


def _admit_amplitudes(obj: dict) -> dict:
    """json.load's object_hook: a decoded object's psi_re and psi_im become
    float64 arrays at once when _number_array admits them, so the floats of
    one member are freed before the next member is read.  A list it refuses
    stays a list, for the parser to name under its path."""
    for key in _AMPLITUDES:
        if key in obj:
            obj[key] = _admitted(obj[key])
    return obj


_AMPLITUDES = ("psi_re", "psi_im")


def _admitted(values):
    """values as a float64 array when it is a list that _number_array admits; anything else as it is."""
    if isinstance(values, list):
        with contextlib.suppress(FileFormatError):
            return _number_array(values, "")
    return values


_WINDOW = 1 << 14
"""Bytes read from a state or ensemble file at a time.  Loading a 40-member
ensemble of 1024 points (a 1.1 MB file) in one process peaked at 0.71 times
its size under tracemalloc with 16 Ki, 0.88 with 64 Ki, and 3.4 with 1 Mi,
which holds that whole file in the window."""

_NESTING = 100
"""Deepest nesting that _Window decodes.  json.load decodes each value one or
two levels deeper than _Window does, so a file nested deeper goes to
json.load, and the recursion limit refuses the same files."""

_SCALAR = re.compile(r"[\w.+-]*")  # every character a number or a literal can hold, and more


class _Window:
    """A JSON file read _WINDOW bytes at a time.  Its top-level object is
    walked here, and each key and value in it is decoded whole by one
    raw_decode once its end is in the window, so a load holds the window,
    one value's text and what is decoded, never the file's whole text.

    The walk's values (each top-level value, and each element of a top-level
    "members" list) are the items of a _turns._shared loop: with two CPUs, a
    forked twin decodes the odd ones and sends them back, and this process
    decodes the even ones.  Both processes walk the whole file, finding where
    every value ends, so each reads it with os.pread at an offset of its own
    and an incremental decoder of the handle's encoding: the descriptor's
    offset, which a fork shares, is never moved, so neither process's reads
    move the other's.  Newlines are not translated as the handle would
    translate them, which changes no value: no JSON value holds a raw line
    break, and between values "\r" and "\n" are both whitespace."""

    def __init__(self, handle):
        self.fd, self.offset = handle.fileno(), 0
        self.chars = codecs.getincrementaldecoder(handle.encoding)(handle.errors)
        self.text, self.pos = "", 0
        self.decode = json.JSONDecoder(object_hook=_admit_amplitudes).raw_decode

    def document(self) -> dict:
        """The file's top-level object as json.load with _admit_amplitudes
        returns it, or ValueError where the walk stops short of that (a top
        level that is not an object, bad syntax, extra data, deep nesting).
        A top-level "members" list is decoded one element at a time, and
        top-level psi_re and psi_im are admitted by the process that decodes
        them."""
        doc, places = {}, deque()
        for value in _shared(self.decoded, self.items(doc, places)):
            places.popleft()(value)
        return doc

    def items(self, doc, places):
        """Yield (admit, pieces) for each value of the walk in turn: whether
        it is a top-level psi_re or psi_im, and its text (see span).  Append
        to places, in the same order, what puts that value into doc.  Keys
        are decoded here, by both processes."""
        for _ in self.sequence("{", "}"):
            key = self.decoded(0, (False, self.span()))
            if not isinstance(key, str):
                raise ValueError("a key that is not a string")
            self.take(":")
            if key == "members" and self.peek() == "[":
                doc[key] = members = []
                for _ in self.sequence("[", "]"):
                    places.append(members.append)
                    yield False, self.span()
            else:
                doc[key] = None  # its place in doc now, as json.load keeps a repeated key's first place
                places.append(partial(doc.__setitem__, key))
                yield key in _AMPLITUDES, self.span()
        if self.peek():
            raise ValueError("extra data")

    def decoded(self, k: int, item):
        """The value of item (admit, pieces), decoded, and an array when admit holds and _admitted takes it."""
        admit, pieces = item
        text = "".join(pieces)
        pieces.clear()  # so that the text is held once while it is decoded
        value, end = self.decode(text)
        if end != len(text):  # a number or literal run on by letters: the walk would stop at them
            raise ValueError("a value that ends before the next character")
        return _admitted(value) if admit else value

    def sequence(self, opener: str, closer: str):
        """An array or an object: opener, then items separated by commas, then
        closer.  Yields once for each item, which the caller takes before
        the walk goes on."""
        self.take(opener)
        if self.peek() != closer:
            yield
            while self.peek() == ",":
                self.pos += 1
                yield
        self.take(closer)

    def read(self) -> str:
        """The file's next characters, from its next _WINDOW bytes or more; "" at its end."""
        while True:
            data = os.pread(self.fd, _WINDOW, self.offset)
            self.offset += len(data)
            text = self.chars.decode(data, final=not data)
            if text or not data:  # a read that ends inside a character gives none
                return text

    def peek(self) -> str:
        """The character after any whitespace, not taken; "" at the end of the file."""
        while True:
            self.pos = json.decoder.WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            self.text, self.pos = self.read(), 0
            if not self.text:
                return ""

    def take(self, char: str) -> None:
        if self.peek() != char:
            raise ValueError(f"expected {char!r}")
        self.pos += 1

    def span(self) -> list:
        """The pieces of text that join into the value at the next character,
        read until the window holds its end, which the walk then moves past.
        Only the process that decodes the value joins them.  A process that
        skips a value still holds its pieces until the next one is read: a
        variant that let each piece go once read left an audit of a
        121-member ensemble 1.3 MB higher in peak resident memory."""
        end = _End(self.peek())
        stop = end.find(self.text, self.pos)
        if stop >= 0:
            pieces, self.pos = [self.text[self.pos : stop]], stop
            return pieces
        pieces = [self.text[self.pos :]]
        while (piece := self.read()) and (stop := end.find(piece)) < 0:
            pieces.append(piece)
        if not (piece or end.scalar):
            raise ValueError("the file ends inside a value")
        pieces.append(piece[:stop])  # the piece that holds the end; at the end of the file, ""
        self.text, self.pos = piece, stop if piece else 0  # the walk goes on in that piece
        return pieces


class _End:
    """Where the JSON value that starts with char ends, found in the pieces of
    text that hold it, in turn: past the bracket that closes an array or an
    object, or the quote that closes a string; at the first character after a
    number or a literal, since a read may have cut one short."""

    def __init__(self, char: str):
        self.scalar = char not in ("[", "{", '"')
        self.depth = 0
        self.quoted = self.escaped = False

    def find(self, text: str, i: int = 0) -> int:
        """The index in text where the value ends, or -1 if text ends first."""
        n = len(text)
        if self.scalar:
            i = _SCALAR.match(text, i).end()
            return i if i < n else -1
        at = [-1] * 5  # the next of each of '[]{}"' at or after i, n for none
        while i < n:
            if self.escaped:
                self.escaped, i = False, i + 1
            elif self.quoted:
                quote = text.find('"', i)
                escape = text.find("\\", i, n if quote < 0 else quote)
                if escape >= 0:
                    self.escaped, i = True, escape + 1
                elif quote < 0:
                    return -1
                else:
                    self.quoted, i = False, quote + 1
                    if not self.depth:
                        return i
            else:
                for k, char in enumerate('[]{}"'):
                    if at[k] < i:
                        found = text.find(char, i)
                        at[k] = n if found < 0 else found
                i = min(at)
                if i == n:
                    return -1
                char = text[i]
                i += 1
                if char == '"':
                    self.quoted = True
                elif char in "[{":
                    self.depth += 1
                    if self.depth > _NESTING:
                        raise ValueError("nested deeper than _Window decodes")
                else:
                    self.depth -= 1
                    if not self.depth:
                        return i
        return -1


def _load_json(path: str) -> dict:
    """The file's top-level object, read through a _Window whose values two
    processes decode when _turns.second_cpu() holds (see _Window).  A file
    the walk does not take, and a pipe, which cannot be read twice, is read
    from its start by one json.load, so every refusal is json.load's."""
    with open(path) as handle:
        if handle.seekable():
            with contextlib.suppress(ValueError, RecursionError):  # the walk refused the file
                return _Window(handle).document()
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
    from .states import MixedEnsemble, PureState

    units = _parse_units(doc)
    grid = _parse_grid(doc)
    if not ensemble:
        return PureState._adopt(grid, _parse_amplitudes(doc, grid, "document")), units
    weights = _number_array(_field(doc, "weights", list, "document"), "weights")
    members_doc = _field(doc, "members", list, "document")
    members = []
    for i, m in enumerate(members_doc):
        members.append(PureState._adopt(grid, _parse_amplitudes(m, grid, f"members[{i}]")))
        members_doc[i] = None  # its psi_re and psi_im arrays go as its state is built
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
    from .scenarios import SweepRow

    return "".join(table_chunks(field_names(SweepRow), [record_block(rows)], "csv"))


def walk_rows_csv(rows: list[WalkTrace]) -> str:
    from .scenarios import WalkTrace

    return "".join(table_chunks(field_names(WalkTrace), [record_block(rows)], "csv"))
