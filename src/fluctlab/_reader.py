"""The load side of io: state and ensemble files read back, for
io.load_state, load_ensemble and load_target and for `audit --in`
(cli._cmd_audit), which alone import it, so that a command that loads no
file never compiles it.

Every load parses its file once and hands the parsed document to one
parser; loaders re-verify normalization and the decay guard instead of
silently repairing data, and refuse with FileFormatError what Python itself
cannot read: integers too large for a float or longer than its digit
limit, and nesting deeper than its recursion limit.  A load is one
_turns._shared loop: its item is where one value lies in the file, its
start and stop offsets, and _Window.decoded alone reads those bytes, by one
os.pread (a long list a window at a time), and makes text of them, with the
handle's encoding, and then JSON values.

A load streams only the layout that save_state and save_ensemble write:
units, grid, then psi_re and psi_im, or weights and members of {psi_re,
psi_im}, in that order, with any JSON whitespace between tokens.  It
matches its file _WINDOW (16 Ki) bytes at a time, by os.pread, ending each
object and list at its first } or ], and decodes one value at a time
(_Window), never the file's whole text.  A state's
top-level psi_re and psi_im lists are decoded _LIST_WINDOW (64 Ki) bytes
at a time into float64 arrays (_Window.numbers), so neither a list's whole
text nor its Python floats are held: load_target of a 2^18-point state
peaks at 40 bytes a point under tracemalloc, its amplitudes included (63.7
when each list was decoded whole).  A member's lists become arrays as soon
as the member is decoded (the decoder's object hook), and every member
then goes through one loop (_Members): as soon as it is decoded, its lists
become one amplitude array on the file's grid, and the lists go.  A load
hands a state's or a member's array to its caller's keep(grid, amp, units),
which owns it, admits it and keeps what it makes of it.  load_state,
load_ensemble and load_target keep each as a state (PureState._adopt);
`audit --in` (cli._cmd_audit) admits each into the command's one |psi|^2
array, takes its one DFT in the array itself (states._moments) and keeps
only its moments, so it holds one member at a time and squares each once.
Every refusal is still the one that a
whole document's parse gives, in the same order.  With two CPUs, and a file of
_FORK_BYTES (1 MiB) or more, where the twin pays for its fork, a forked twin
decodes every other value: both processes match the whole file, each at its
own offset, each reads again the values it decodes, and the twin sends back
its values.  Any other file (its keys in another order, another key, a
byte that is not ASCII, a value that does not decode where the layout ends
it, a file cut short or followed by more) is read again from its start by
one json.load, so every refusal and its message, and every such file's
values, are json.load's.
load_state and load_ensemble refuse a file of the other kind at the
layout's third key, with the message that the whole file would get, before
any amplitude is decoded and before a twin is forked (see _Window.document).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from functools import partial
from itertools import chain, repeat
from typing import TYPE_CHECKING

import numpy as np

from ._turns import _shared
from .errors import FileFormatError, FluctLabError
from .units import UnitSystem

if TYPE_CHECKING:
    from .states import GridSpec


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
    """mapping's psi_re and psi_im as one complex array of grid.n values;
    mapping is cleared once the array is made, so its lists go with it."""
    re = _number_array(_field(mapping, "psi_re", list, where), f"{where}.psi_re")
    im = _number_array(_field(mapping, "psi_im", list, where), f"{where}.psi_im")
    if re.size != grid.n or im.size != grid.n:
        raise FileFormatError(
            f"{where}: psi_re/psi_im lengths ({re.size}, {im.size}) do not match grid.n = {grid.n}"
        )
    amp = np.multiply(im, 1j)  # re + 1j*im's bits, in the array a state adopts
    mapping.clear()
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

_LIST_WINDOW = 1 << 16
"""Bytes of a top-level psi_re or psi_im list decoded at a time (see
_Window.numbers).  Decoding a 65536-value list in 64 Ki windows took 18.1 ms,
as one decode of the whole list did."""

_FORK_BYTES = 2**20
"""The smallest file whose load forks a twin (see _Window.document): the
measured break-even.  Fresh `audit --in` runs of Gaussian state files, medians
of 15 alternating runs with the twin and alone (2-vCPU host, Python 3.11):
0.91 MB 100.5 against 100.1 ms (the twin faster in 2 of 15), 1.11 MB 102.4
against 102.4 (7 of 15), 1.27 MB 104.2 against 104.7 (11 of 15), 1.81 MB
109.6 against 111.5 (15 of 15); a 115 kB one-member ensemble 93.3 against
88.9 ms (1 of 15).  Forking and reaping the twin cost about 4 ms whatever
the file; what the twin saves, about half of the decoding, grows with it."""

_TOKEN = re.compile(rb'[ \t\n\r]*([{}\[\]:,]|"(?:units|grid|psi_re|psi_im|weights|members)")')
"""The next token of the layout after any JSON whitespace: a punctuation byte or one of its keys."""

_HEAD = b'{ "units" : {} , "grid" : {} ,'
_BODY = {"psi_re": b': [] , "psi_im" : [] }', "weights": b': [] , "members" : ['}
_MEMBER = b'"psi_re" : [] , "psi_im" : [] }'
"""The layout that save_state and save_ensemble write, as _Window.match
takes it: tokens split at spaces, where {} and [] are a value that runs from
its opener to the first closer after it.  The head's third key (a _BODY key)
says the file's kind; an ensemble's members list then holds a _MEMBER after
each {, and ends with ] and the closing }."""


class _Window:
    """A state or ensemble file read _WINDOW bytes at a time, and matched
    against the one layout that save_state and save_ensemble write (_HEAD,
    then a _BODY, and an ensemble's members), with any JSON whitespace
    between its tokens.  Each object or list in it ends at its first } or ]
    (a long list's end is found by bytes.find), and each value is decoded
    by one raw_decode of its own bytes (a long top-level psi_re or psi_im
    list a window of them at a time, see numbers), so a load holds the
    window, one value's bytes and text and what is decoded, never the
    file's whole text.  Anything else (another key order, another key, a
    byte that is not ASCII, a value that does not decode where the layout
    ends it, a file cut short or followed by more) raises ValueError, so
    that one json.load reads the file.  Newlines are not translated as the
    handle would translate them, which changes no value: "\r" and "\n" are
    both JSON whitespace, and no JSON value holds either raw.

    The values (units, grid, then psi_re and psi_im, or weights and each
    member) are the items of a _turns._shared loop:
    with two CPUs, a forked twin decodes the odd ones and sends them back,
    and this process decodes the even ones.  An item is where the value
    lies in the file, and only decoded reads its bytes and makes text of
    them, with the handle's encoding.  Each value is an item as soon as the
    layout has matched it, and both processes match the whole file, each
    reading it with os.pread at offsets of its own: the descriptor's offset,
    which a fork shares, is never moved, so neither process's reads move the
    other's."""

    def __init__(self, handle, members=None):
        self.handle, self.offset = handle, 0
        self.data, self.pos = b"", 0
        self.decode = json.JSONDecoder(object_hook=_admit_amplitudes).raw_decode
        self.members = members  # a _Members that takes each member as it is decoded, or None

    def document(self, wanted=None) -> dict:
        """The file's top-level object as json.load with _admit_amplitudes
        returns it, or ValueError where the file leaves the layout or a value
        does not decode.  A file smaller than _FORK_BYTES is decoded by this
        process alone.  When wanted, the key that a load of one kind needs,
        is not the head's third key, the file is of the other kind: it is
        matched to its end, and only its units and grid are decoded, so that
        the parser refuses the missing key with the message the whole file
        would get, and no amplitude is decoded and no twin forked.  With
        members, each member is put in doc's list by members.place, as soon
        as it is decoded."""
        units, grid = self.match(_HEAD)
        kind = self.token().strip(b'"').decode()
        if kind not in _BODY:
            raise ValueError(f"{kind!r} where the layout has its third key")
        spans = self.body(kind)
        if wanted is not None and kind != wanted:
            list(spans)  # matched to the file's end, and none of it decoded
            return {"units": self.decoded(0, (False, *units)), "grid": self.decoded(1, (False, *grid))}
        keys = ("units", "grid", *(_AMPLITUDES if kind == "psi_re" else ["weights"]))
        doc, place = dict.fromkeys(keys), None  # json.load's key order, whichever process decodes a value
        if kind == "weights":
            doc["members"] = members = []
            place = members.append if self.members is None else partial(self.members.place, doc, members)
        places = chain((partial(doc.__setitem__, key) for key in keys), repeat(place))
        items = ((k > 1 and kind == "psi_re", *span) for k, span in enumerate(chain((units, grid), spans)))
        fork = os.fstat(self.handle.fileno()).st_size >= _FORK_BYTES
        for value in _shared(self.decoded, items, fork):
            next(places)(value)
        return doc

    def body(self, kind: str):
        """Yield the (start, stop) of each value after the head's third key,
        kind, as soon as the layout has matched it: psi_re and psi_im, or
        weights and each member.  ValueError where the file leaves the
        layout, or goes on past it."""
        yield from self.match(_BODY[kind])
        if kind == "weights":
            token = self.token()  # "{" before the first member, ", {" before each later one, then "]"
            while token == b"{":
                start = self.at() - 1
                self.match(_MEMBER)
                yield start, self.at()
                if (token := self.token()) == b"," and (token := self.token()) != b"{":
                    raise ValueError("not a member after a comma")
            if token != b"]":
                raise ValueError("not a member where the layout has one")
            self.match(b"}")
        if self.token():
            raise ValueError("extra data")

    def match(self, pattern: bytes) -> list:
        """Take pattern's tokens in turn (see _HEAD); the (start, stop) of
        each of its values, or ValueError at the first token that differs."""
        spans = []
        for token in pattern.split():
            value = token in (b"{}", b"[]")
            if self.token() != (token[:1] if value else token):
                raise ValueError(f"expected {token!r}")
            if value:
                start = self.at() - 1
                while (end := self.data.find(token[1:], self.pos)) < 0:
                    self.data, self.pos = self.read(), 0
                    if not self.data:
                        raise ValueError("the file ends inside a value")
                self.pos = end + 1
                spans.append((start, self.at()))
        return spans

    def token(self) -> bytes:
        """The next token after any whitespace (see _TOKEN), taken; b"" at
        the end of the file, and ValueError where something else comes."""
        while not (found := _TOKEN.match(self.data, self.pos)):
            rest = self.data[self.pos :].lstrip(b" \t\n\r")
            more = self.read() if len(rest) < len(b'"members"') else b""  # a key a window cut is shorter
            if not more:
                if rest:
                    raise ValueError("not a token of the layout")
                return b""
            self.data, self.pos = rest + more, 0
        self.pos = found.end()
        return found[1]

    def at(self) -> int:
        """The file offset of the next byte."""
        return self.offset - len(self.data) + self.pos

    def read(self) -> bytes:
        """The file's next _WINDOW bytes; b"" at its end, and ValueError for a byte that is not ASCII."""
        data = os.pread(self.handle.fileno(), _WINDOW, self.offset)
        if not data.isascii():
            raise ValueError("a byte that is not ASCII")
        self.offset += len(data)
        return data

    def decoded(self, k: int, item):
        """The value of item (admit, start, stop): the file's bytes from start
        to stop, read by one os.pread, decoded to text with the handle's
        encoding, that text decoded as JSON, and an array when admit holds
        and _admitted takes it.  When admit holds, a value longer than
        _LIST_WINDOW that is a flat list of numbers is read and decoded a
        window at a time instead (see numbers)."""
        admit, start, stop = item
        if admit and stop - start > _LIST_WINDOW and (values := self.numbers(start, stop)) is not None:
            return values
        text = os.pread(self.handle.fileno(), stop - start, start).decode(self.handle.encoding, self.handle.errors)
        if k < 2 and "[" in text:  # units or grid: a list there may nest deeper than json.load, a level down, reaches
            raise ValueError("a list in units or grid")
        value, end = self.decode(text)
        if end != len(text):  # shorter than its span, it would not be the value json.load reads there
            raise ValueError("a value that ends inside its span")
        return _admitted(value) if admit else value

    def numbers(self, start: int, stop: int):
        """The file's flat list of numbers from start to stop as the float64
        array that _admitted makes of it, read _LIST_WINDOW bytes at a time
        by os.pread: once to count its commas, which sizes the array, and
        once to fill it, each window cut after its last comma (the last one
        before the closing bracket) and the elements before the cut decoded
        by one raw_decode straight into the array.  So the list's text and
        Python floats are held a window at a time, and no piece of the array
        is held beside it.  None for any other value: a [, { or " after its
        first byte, a window whose elements do not decode, an element that
        is not a number or that no float holds, fewer elements than commas
        (an empty one); decoded then reads it whole, so every refusal and
        value is its."""
        fd, windows = self.handle.fileno(), range(start + 1, stop, _LIST_WINDOW)
        if os.pread(fd, 1, start) != b"[":
            return None
        commas = 0
        for at in windows:
            data = os.pread(fd, min(_LIST_WINDOW, stop - at), at)
            if b"[" in data or b"{" in data or b'"' in data:  # not a flat list of numbers
                return None
            commas += data.count(b",")
        out, filled, rest = np.empty(commas + 1), 0, b""
        for at in windows:
            data = rest + os.pread(fd, min(_LIST_WINDOW, stop - at), at)
            cut = len(data) - 1 if at + _LIST_WINDOW >= stop else data.rfind(b",")
            if cut < 0:  # no comma yet: the window's bytes wait for the next one
                rest = data
                continue
            try:
                text = "[" + data[:cut].decode(self.handle.encoding, self.handle.errors) + "]"
                values, end = self.decode(text)
                if end != len(text) or not set(map(type, values)) <= {float, int}:
                    return None
                out[filled : filled + len(values)] = np.asarray(values, dtype=np.float64)
            except (ValueError, OverflowError):  # OverflowError: an integer beyond a float's range
                return None
            filled, rest = filled + len(values), data[cut + 1 :]
        return out if filled == out.size else None


def _load_json(path: str, wanted=None, members=None) -> dict:
    """The file's top-level object, read through a _Window whose values two
    processes decode when _turns.second_cpu() holds and the file has
    _FORK_BYTES or more (see _Window); one of the other kind than wanted, the
    key a load of one kind needs, only as far as the parser reads it before
    it refuses that key (see _Window.document); with members (a _Members),
    each member as members.place makes it.  A file out of the layout that
    _Window matches, and a pipe, which cannot be read twice, is read from
    its start by one json.load, so every refusal is json.load's."""
    with open(path) as handle:
        if handle.seekable():
            with contextlib.suppress(ValueError, RecursionError):  # the file is out of the layout
                return _Window(handle, members).document(wanted)
        try:
            doc = json.load(handle, object_hook=_admit_amplitudes)
        except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and Python's digit limit
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


class _Members:
    """The one member loop of every load: each member of an ensemble file
    becomes its amplitude array on the file's grid, and what
    keep(grid, amp, units) makes of the array, which it owns and admits
    (PureState._adopt, for the library), is kept in its place in the members
    list, while the array and the member's decoded lists go.  _Window puts
    each member here as soon as it is decoded (place), once the grid and
    units before the list parse; _parse_document takes any other list whole.
    The first member refused is kept, with no later member made, and
    _parse_document raises its error in its turn, after the file is read and
    the units, grid and weights are parsed, so that every refusal is the one
    that a whole document's parse gives."""

    def __init__(self, keep):
        self.keep = keep
        self.list = self.context = self.refusal = None  # the list taken, its (grid, units), the first refusal

    def place(self, doc, members: list, value) -> None:
        """Append member value, as decoded, to members, doc's top-level list:
        what make makes of it, when the grid and units that doc holds by
        its first member parse, and else value itself."""
        if not members:
            self.list, self.refusal = members, None
            try:
                self.context = _parse_grid(doc), _parse_units(doc)
            except FluctLabError:  # missing, or refused: _parse_document reads them again at the end
                self.context = None
        members.append(value if self.context is None else self.make(len(members), value))

    def make(self, i: int, value):
        """What keep makes of member i, value, as amplitudes on the context's
        grid (value's lists go first, see _parse_amplitudes); None once a
        member is refused."""
        if self.refusal is None:
            grid, units = self.context
            try:
                return self.keep(grid, _parse_amplitudes(value, grid, f"members[{i}]"), units)
            except Exception as exc:  # raised in its turn by _parse_document
                self.refusal = exc
        return None


def _keep_state(grid, amp, units):
    from .states import PureState

    return PureState._adopt(grid, amp)


def _parse_document(doc: dict, ensemble: bool, members: _Members):
    """(weights, kept, units) from a parsed state or ensemble document: the
    weights as numbers (None for a state), and what members.keep makes of
    the state's amplitudes or of each member's, in order (see _Members).
    keep admits them, so tampered files fail loudly."""
    units = _parse_units(doc)
    grid = _parse_grid(doc)
    if not ensemble:
        return None, [members.keep(grid, _parse_amplitudes(doc, grid, "document"), units)], units
    weights = _number_array(_field(doc, "weights", list, "document"), "weights")
    members_doc = _field(doc, "members", list, "document")
    if members.list is not members_doc or members.context is None:  # not taken as _Window decoded them
        members.list, members.context, members.refusal = members_doc, (grid, units), None
        for i, member in enumerate(members_doc):
            members_doc[i] = members.make(i, member)  # its psi_re and psi_im arrays go as it is kept
    if members.refusal is not None:
        raise members.refusal
    return weights, members_doc, units


def _load(path: str, wanted=None, keep=_keep_state) -> tuple:
    """(weights, kept, units) of a state or ensemble file (see
    _parse_document): of the kind that wanted names (see _load_json), or,
    when it is None, of the kind its keys say."""
    members = _Members(keep)
    doc = _load_json(path, wanted, None if wanted == "psi_re" else members)
    ensemble = wanted == "weights" if wanted else "members" in doc or "weights" in doc
    return _parse_document(doc, ensemble, members)
