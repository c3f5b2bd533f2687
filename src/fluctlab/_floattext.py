"""Python's repr of float64 values, and str of integers, made for a whole
block at once in numpy, with no Python object per value: io's documents
and CSV tables are written through it.

The digits are Schubfach's (Giulietti, "The Schubfach way to render
doubles", 2020; Ryu, Adams, PLDI 2018, gives the same): the shortest
decimal that reads back to the same double and, among those, the closest
to it, ties to an even last digit, which is what repr prints.  Each value
is scaled by g(-k), a 128-bit approximation of 10^-k, in uint64 arithmetic
on 32-bit limbs, and rounded to odd.  Integer-valued doubles need no path
of their own: the same rounding gives their digits, once trailing zeros are
stripped (the exactness test in tests/test_floattext.py holds 200 001
integers, and every power of two).  repr's layout follows: positional
when the decimal exponent lies in [-4, 16), ".0" on integers, exponent
form with at least two exponent digits otherwise, "nan", "inf", "-inf".

A value's text is laid out in a row of a uint8 matrix, its cells: its
digits and the constant bytes go into a source row, and a template per
layout (sign, digit count, decimal point or exponent width) picks its
bytes from that row, padded with zero bytes.  Rows are joined with their
separators and compacted by one mask that drops the zero bytes.

Imported only by the functions that write tables and documents, so a
command that writes neither never compiles it.
"""

from __future__ import annotations

import numpy as np

_E_MIN, _E_MAX = -292, 324  # -k over every double's k = floor(log10(2^q)) or floor(log10(3/4 2^q))


def _pow10_table():
    """g(e) = floor(10^e 2^(127 - r)) + 1, with r = floor(log2 10^e), for
    e in [_E_MIN, _E_MAX], as four 32-bit limbs (highest first), and r."""
    g, r = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        p = 10 ** abs(e)
        n = p.bit_length()
        r.append(n - 1 if e >= 0 else -n)  # 10^-e is no power of two, so its ceil(log2) is its bit length
        g.append((p << 127 >> r[-1] if e >= 0 else (1 << 127 + n) // p) + 1)
    limbs = np.frombuffer(b"".join(x.to_bytes(16, "big") for x in g), ">u4").reshape(-1, 4)
    return limbs.T.astype(np.uint64), np.array(r, dtype=np.int32)


_G, _R = _pow10_table()
_LOW = np.uint64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)  # "00" to "99", two bytes each


def _round_to_odd(g, cp):
    """The top 64 bits of g cp >> 128, g the 128-bit limbs (g3, g2, g1, g0)
    and cp < 2^60, with the bits below them (but the lowest 64) folded into
    the last bit: Schubfach's round to odd."""
    g3, g2, g1, g0 = g
    c1, c0 = cp >> 32, cp & _LOW
    del cp  # each array goes once it is used, and sums are made in place, so a block's working set stays small
    low, x1 = g0 * c0 >> 32, g1 * c1  # the columns of g cp, 32 bits apart, each carried into the next
    for a, b in ((g0, c1), (g1, c0)):
        y = a * b
        low += y & _LOW
        x1 += y >> 32
    x1 += low >> 32  # (g1, g0) cp >> 64
    y = g2 * c0
    t0 = (y & _LOW) + (x1 & _LOW)
    t1 = (y >> 32) + (x1 >> 32) + (t0 >> 32)
    y1 = g3 * c1
    for a, b in ((g2, c1), (g3, c0)):
        y = a * b
        t1 += y & _LOW
        y1 += y >> 32
    y1 += t1 >> 32
    # z = (t1, t0) & _LOW, bits 64..127 of g cp, is the sticky part, and Schubfach's rule is z > 1.
    # g exceeds the exact 10^-k 2^(127 - r) by at most 1 and cp < 2^60, so an exact product leaves
    # z = 0: the excess never sets bit 64.  Over every double's three products (bounded per binary
    # exponent with floor sums), a nonzero remainder leaves z <= 2 in four, all vb: z = 0 or 1 where
    # vb is odd already (6.802601037806062e+215, 6.538311315939327e+64), z = 2 twice
    # (6.794064501329792e-246; 1.3076622631878654e+65, whose vb z > 2 would leave even, with the
    # same digits).  So z > 0 and z > 2 write the same text, and no value tells them from z > 1.
    return y1 | (((t1 & _LOW) != 0) | ((t0 & _LOW) > 1))


def _decimal(bits):
    """(digits, exponent) of the positive finite doubles whose bits these are:
    the shortest digits, closest on a tie of length, that read back to each."""
    c, bq = bits & np.uint64((1 << 52) - 1), (bits >> 52).astype(np.int32)
    del bits
    closer = (c == 0) & (bq > 1)  # the next double below is half as far as the next above
    c |= (bq > 0).astype(np.uint64) << 52
    q = np.maximum(bq, 1) - 1075
    del bq
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2^q)), or of 3/4 2^q when closer
    h = (q + _R.take(-k - _E_MIN) + 1).astype(np.uint8)
    del q
    g = _G.take(-k - _E_MIN, axis=1)
    cb, odd = c << 2, (c & 1).astype(bool)
    del c
    vb = _round_to_odd(g, cb << h)
    lower = _round_to_odd(g, (cb - 2 + closer) << h)
    lower += odd  # an odd c's boundaries read back to its neighbours
    upper = _round_to_odd(g, (cb + 2) << h)
    upper -= odd
    del g, h, odd
    s = vb >> 2
    sp = s // 10
    shorter = (s >= 10) & ((lower <= 40 * sp) != (40 * sp + 40 <= upper))  # one digit fewer reads back
    w_in = 4 * s + 4 <= upper
    inside = (lower <= 4 * s) != w_in  # one of s and s + 1 reads back
    digits = np.where(shorter, sp + (40 * sp + 40 <= upper), s)
    del sp, lower, upper
    mid = 4 * s + 2
    closer_up = (vb > mid) | ((vb == mid) & (s & 1 == 1))  # s + 1 is the closer, or ties to even
    digits += ~shorter & np.where(inside, w_in, closer_up)
    del s, vb, mid, closer_up
    exponent = k + shorter
    ends = np.flatnonzero(digits // 10 * 10 == digits)  # trailing zeros, stripped below
    if ends.size:
        tail, tail_exponent = digits[ends], exponent[ends]
        for p in (16, 8, 4, 2, 1):
            q = tail // _POW10[p]
            cut = q * _POW10[p] == tail
            np.copyto(tail, q, where=cut)
            tail_exponent += cut * p
        digits[ends], exponent[ends] = tail, tail_exponent
    return digits, exponent


def _put_digits(out, n, stop: int, count: int) -> None:
    """Write the count decimal digits of n, right-aligned with leading zeros,
    into out's columns up to stop, an even column: two at a time, as uint16."""
    pairs = out.view(np.uint16)
    for j in range(stop // 2 - 1, stop // 2 - 1 - count // 2, -1):
        q = n // 100
        pairs[:, j] = _PAIRS.take(n - q * 100)
        n = q
    if count % 2:
        out[:, stop - count] = 48 + n


# A source row: a zero byte, 17 digits right-aligned, these four bytes, the exponent's sign and its 3 digits.
_PAD, _ZERO, _DOT, _E, _MINUS, _ESIGN, _EXP, _SOURCE = 0, 18, 19, 20, 21, 22, 23, 26
_FORMS = 22  # decimal point at -3..16 (positional), or exponent form with 2 or 3 exponent digits
_WIDTH = 24  # the longest repr: "-1.2345678901234567e-308"


def _templates():
    """For each key ((sign * 17 + digits - 1) * _FORMS + form), the source
    columns of its text, padded with _PAD, and the text's length."""
    key = np.arange(2 * 17 * _FORMS, dtype=np.int16)[:, None]
    sign, nd, form = key // (17 * _FORMS), key // _FORMS % 17 + 1, key % _FORMS
    u = np.arange(_WIDTH, dtype=np.int16)[None, :] - sign  # place after the sign
    digit = 18 - nd  # the first digit's column
    decpt = form - 3
    start = np.minimum(decpt - 1, 0)  # positional: where the integer part starts, in digit places
    ilen, flen = decpt - start, np.maximum(nd, decpt + 1) - decpt
    place = np.where(u < ilen, start + u, start + u - 1)
    positional = np.where(u == ilen, _DOT, np.where((place >= 0) & (place < nd), digit + place, _ZERO))
    edigits = form - 18
    at_e = nd + (nd > 1)
    exponential = np.select(
        [u == 0, (u == 1) & (nd > 1), u < at_e, u == at_e, u == at_e + 1],
        [digit, _DOT, digit + u - 1, _E, _ESIGN],
        _EXP + 3 - edigits + u - at_e - 2,
    )
    length = sign + np.where(form < 20, ilen + 1 + flen, at_e + 2 + edigits)
    columns = np.where(u < 0, _MINUS, np.where(form < 20, positional, exponential))
    return np.where(np.arange(_WIDTH) < length, columns, _PAD), length.ravel()


_TEMPLATES, _LENGTHS = _templates()
_GATHER_ROWS = 512  # a gather's index takes 8 bytes a cell, so it is made for this many rows at a time
_SPECIALS = np.frombuffer(b"nan\0inf\0-inf", np.uint8).reshape(3, 4)


def float_cells(values) -> np.ndarray:
    """repr of each float64 value, a row each, padded with zero bytes."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    regular = np.isfinite(values) & (values != 0)  # neither zero, nor inf, nor nan
    taken = np.flatnonzero(regular)
    taken_digits, taken_exponent = _decimal(np.abs(values.take(taken)).view(np.uint64))
    digits, exponent = np.zeros(values.size, np.uint64), np.zeros(values.size, np.int64)  # a zero's "0.0"
    digits[taken], exponent[taken] = taken_digits, taken_exponent
    del taken, taken_digits, taken_exponent  # as in _round_to_odd, each array goes once it is used
    nd = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    sci = nd + exponent - 1
    del exponent
    key = np.where((sci >= -4) & (sci < 16), sci + 4, np.where(np.abs(sci) < 100, 20, 21))
    key += (np.signbit(values) * 17 + nd - 1) * _FORMS
    del nd
    source = np.empty((values.size, _SOURCE), np.uint8)
    source[:, _PAD] = 0
    _put_digits(source, digits, _ZERO, 17)
    del digits
    source[:, _ZERO:_ESIGN] = np.frombuffer(b"0.e-", np.uint8)
    source[:, _ESIGN] = np.where(sci < 0, ord("-"), ord("+"))
    _put_digits(source, np.abs(sci), _SOURCE, 3)
    del sci
    width = max(int(_LENGTHS.take(key).max(initial=0)), 4)
    cells, templates = np.empty((values.size, width), np.uint8), np.ascontiguousarray(_TEMPLATES[:, :width], dtype=np.intp)
    for i in range(0, values.size, _GATHER_ROWS):
        index = templates.take(key[i : i + _GATHER_ROWS], axis=0)
        index += np.arange(i * _SOURCE, min(i + _GATHER_ROWS, values.size) * _SOURCE, _SOURCE)[:, None]
        cells[i : i + _GATHER_ROWS] = source.ravel().take(index)
    special = np.flatnonzero(~regular & (values != 0))  # inf, -inf and nan
    if special.size:
        cells[special] = 0
        kind = np.where(np.isnan(values[special]), 0, 1 + np.signbit(values[special]))
        cells[special, :4] = _SPECIALS.take(kind, axis=0)
    return cells


def int_cells(values) -> np.ndarray:
    """str of each integer value, a row each, padded with zero bytes."""
    negative = values < 0
    magnitude = np.where(negative, ~values.astype(np.uint64) + np.uint64(1), values.astype(np.uint64))
    cells = np.empty((values.size, 22), np.uint8)
    cells[:, 0] = negative * ord("-")
    _put_digits(cells, magnitude, 22, 21)
    nd = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    cells[:, 1:][np.arange(1, 22) < 22 - nd[:, None]] = 0  # the leading zeros
    return cells


def joined(values, sep: str) -> str:
    """sep.join(map(repr, values.tolist())) of a float64 array."""
    return _lines([float_cells(values)[None]], sep, sep)[: -len(sep)]


def csv_lines(columns, mesh: bool) -> str:
    """The CSV lines of a block of float64 and integer columns, each number
    as its repr.  A mesh's columns are its a row values, its b column values
    and its (a, b) values, with a line for each of its a * b cells."""
    floats = [c for c in columns if c.dtype.kind == "f"] or [np.empty(0)]
    cells = float_cells(np.concatenate([c.ravel() for c in floats]))  # one call a block, as each has a fixed cost
    made = iter(np.split(cells, np.cumsum([c.size for c in floats])[:-1]))
    cells = [next(made) if c.dtype.kind == "f" else int_cells(c) for c in columns]
    shapes = [(-1, 1), (1, -1), columns[2].shape] if mesh else [(1, -1)] * len(cells)
    return _lines([c.reshape(*s, c.shape[1]) for c, s in zip(cells, shapes)], ",", "\n")


def _lines(cells, sep: str, end: str) -> str:
    """Lines of cells, each column's a 3-D array that broadcasts to (a, b,
    its width): a line for each of the a * b places, its cells in turn, each
    but the last followed by sep and the last by end, the zero bytes dropped."""
    ends = [sep] * (len(cells) - 1) + [end]
    rows = np.broadcast_shapes(*(c.shape[:2] for c in cells))
    full = np.empty((*rows, sum(c.shape[2] + len(e) for c, e in zip(cells, ends))), np.uint8)
    at = 0
    for c, e in zip(cells, ends):
        full[:, :, at : at + c.shape[2]] = c
        full[:, :, at + c.shape[2] : at + c.shape[2] + len(e)] = np.frombuffer(e.encode(), np.uint8)
        at += c.shape[2] + len(e)
    return full[full != 0].tobytes().decode("ascii")
