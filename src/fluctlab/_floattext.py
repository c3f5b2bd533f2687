"""Python's repr of float64 values, str of integers and the text of str
values, laid out a block at a time in numpy with no Python object per
value: io's documents and every table, CSV or JSON, are written through
it, each table block by one table_lines call.

Each column's values become cells (_cells: each text from the first byte
of a few uint64 words, then zero bytes), and each cell, and each constant
text of a row (a CSV line's commas and newline, or a JSON object's keys
and braces), is added to one buffer exactly as long as the block's text,
at its byte offset (_place): its words, shifted into the buffer's words,
by np.add.at, as neighbouring cells share words.  A text's bytes are
nonzero and the rest of a cell's are zero, so the sum writes each text
where it belongs, and the buffer is decoded as it is.
The forms differ only in nan, inf and -inf (json.dumps writes NaN,
Infinity and -Infinity: the special cells, _SPECIALS, are by form) and in
a str column, whose UTF-8 bytes are its cells in CSV and its json.dumps'
in JSON (text_cells).  A scan's p slice is formatted once a process
(_axis_cells).

Imported only by the functions that write tables and documents, and by
cli._formatter_first, so a command that writes neither (audit, density
eval at a point) never compiles it.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from ._cells import finite_cells, int_cells


def _specials(*texts):
    """The words of each text, a column each, and its length."""
    return np.array(texts, "S24").view(np.uint64).reshape(len(texts), 3).T, np.array([len(t) for t in texts], np.uint8)


_SPECIALS = {form: _specials(nan, b"0.0", inf, nan, b"-0.0", b"-" + inf)  # nan, zero, inf, then signed
             for form, nan, inf in (("csv", b"nan", b"inf"), ("json", b"NaN", b"Infinity"))}


def float_cells(values, form: str):
    """repr of each float64 value, laid out as its cell: a column of three
    uint64 words holding repr's text from its first byte, then zero bytes;
    and the length of each text.  In form "json", nan, inf and -inf are
    json.dumps' NaN, Infinity and -Infinity.  The words are a kept buffer,
    which the next call overwrites."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    regular = np.isfinite(values) & (values != 0)
    if regular.all():
        return finite_cells(values)
    words, ends = finite_cells(np.where(regular, values, 1.0))  # zero, inf, -inf and nan take 1.0's place first
    special = np.flatnonzero(~regular)
    v = values[special]
    kind, (texts, width) = np.where(np.isnan(v), 0, 1 + np.isinf(v) + 3 * np.signbit(v)), _SPECIALS[form]
    words[:, special], ends[special] = texts.take(kind, axis=1), width.take(kind)
    return words, ends


def text_cells(values, form: str):
    """The UTF-8 bytes of each str value, or in form "json" of its
    json.dumps, laid out as float_cells lays out a float's text (so a value
    keeps no NUL character)."""
    texts = [(json.dumps(v) if form == "json" else v).encode() for v in values]
    ends = np.array([len(t) for t in texts], np.intp)
    width = -(-int(ends.max(initial=1)) // 8) * 8
    return np.array(texts, f"S{width}").view(np.uint64).reshape(len(texts), -1).T, ends


def _trim(words, ends):
    """Cells cut to the words that hold their texts."""
    return words[: -(-int(ends.max(initial=1)) // 8)], ends


def joined(values, sep: str) -> str:
    """sep.join(map(repr, values.tolist())) of a float64 array."""
    return str(_text([values], ["", sep], "csv")[: -len(sep)], "utf-8")


_AXES: dict = {}  # a scan's p slices, by address, size and form: (values, cells)


def _axis_cells(p, form: str) -> tuple:
    """float_cells of a scan's p slice, made once a process: every block of
    a scan repeats its p values, a slice of them when a row is longer than a
    block, and each such slice lies at one address."""
    key = (p.__array_interface__["data"][0], p.size, form)
    if key not in _AXES or not np.array_equal(_AXES[key][0], p):
        if len(_AXES) > 16:
            _AXES.clear()
        _AXES[key] = p.copy(), tuple(a.copy() for a in _trim(*float_cells(p, form)))
    return _AXES[key][1]


def table_lines(columns, texts, form: str) -> str:
    """The lines of a table block in form "csv" or "json", a line for each
    row: texts[0], then each column's cell followed by the next of texts.  A
    column is float64 values (float_cells), integers or a range (int_cells),
    or a list of str (text_cells), of int or of float.  A mesh's columns are
    its a row values, its b column values and its (a, b) values, with a line
    for each of its a * b cells."""
    return str(_text(columns, texts, form), "utf-8")


def _text(columns, texts, form: str) -> np.ndarray:
    """table_lines' UTF-8 bytes: each text and cell added at its byte offset
    in a buffer as long as the text, each column's cells broadcast to the
    rows of a mesh."""
    mesh = getattr(columns[-1], "ndim", 1) == 2
    columns = [np.arange(c.start, c.stop, c.step) if isinstance(c, range) else
               c if isinstance(c, np.ndarray) or isinstance(c[0], str) else np.asarray(c) for c in columns]
    cells = {1: _axis_cells(columns[1], form)} if mesh else {}  # first, as the next float_cells overwrites its words
    floats = [i for i, c in enumerate(columns) if getattr(c, "dtype", None) == np.float64 and i not in cells]
    # one float_cells call a block, as each has a fixed cost
    made, ends = float_cells(np.concatenate([columns[i].ravel() for i in floats] or [np.empty(0)]), form)
    bounds = np.cumsum([0] + [columns[i].size for i in floats])
    cells.update((i, _trim(made[:, a:b], ends[a:b])) for i, a, b in zip(floats, bounds[:-1], bounds[1:]))
    cells = [cells[i] if i in cells else _trim(*int_cells(c)) if isinstance(c, np.ndarray) else text_cells(c, form)
             for i, c in enumerate(columns)]
    shapes = [(-1, 1), (1, -1), columns[2].shape] if mesh else [(-1,)] * len(cells)
    cells = [(w.reshape(len(w), *s), e.reshape(s)) for (w, e), s in zip(cells, shapes)]
    texts = [t.encode() for t in texts]
    texts = [(np.frombuffer(t + bytes(-len(t) % 8), np.uint64), len(t)) for t in texts]  # a text's words, on every row
    parts = [part for part in (*chain.from_iterable(zip(texts, cells)), texts[-1]) if len(part[0])]
    lengths = sum(sorted((e for _, e in parts), key=np.size), np.intp(0))  # the small first: texts, a mesh's axes
    at = np.cumsum(lengths.ravel()).reshape(lengths.shape)
    total = int(at.flat[-1])
    at -= lengths
    out = np.empty(total // 8 + max(len(w) for w, _ in parts) + 2, np.uint64)
    out.fill(0)  # not np.zeros: its calloc faulted a fresh buffer in at every block
    for w, e in parts:
        _place(out, at, w, e)
        at += e
    return out.view(np.uint8)[:total]


def _place(out, at, words, ends) -> None:
    """Add each cell's words, whose bytes before ends hold its text, to out
    from byte at: texts lie end to end and a cell's other bytes are zero, so
    the sum writes each text's bytes (np.add.at, as cells share words)."""
    index, shift = (at >> 3).ravel(), ((at & 7) << 3).view(np.uint64)
    up = np.uint64(64) - shift
    for j in range((int(np.max(ends)) + 14) // 8):  # the words from at's word to the last byte's
        word = words[j] << shift if j < len(words) else words[j - 1] >> up
        if 0 < j < len(words):
            word |= words[j - 1] >> up
        np.add.at(out[j:], index, word.ravel())
