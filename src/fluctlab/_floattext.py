"""Python's repr of float64 values, and str of integers, made for a whole
block at once in numpy, with no Python object per value: io's documents
and CSV tables are written through it.

The digits are Schubfach's (Giulietti, "The Schubfach way to render
doubles", 2020; Ryu, Adams, PLDI 2018, gives the same): the shortest
decimal that reads back to the same double and, among those, the closest
to it, ties to an even last digit, which is what repr prints.  A value
c 2^q is scaled by g(-k), a 128-bit approximation of 10^-k, and rounded to
odd at 4c and at the two halfway points to its neighbours, 4c + 2 and
4c - 2 (4c - 1 when the neighbour below is nearer).  Those three products
differ by g 2^(h+1) or g 2^h, so one exact 192-bit product g (4c << h),
from two 64 x 128-bit high halves on 32-bit limbs and uint64's wrap-around
for the low halves, gives all three: a bound adds or takes g's two words,
shifted, with a carry between words (_decimal).  A key table of the biased
exponent gives k and h.  Integer-valued doubles need no path of their own:
the same rounding gives their digits (the exactness test in
tests/test_floattext.py holds 200 001 integers, and every power of two).

The digits are left-aligned to 17 places and written as digit bytes, 8 to
a uint64 word, four at a time from a table (_digit_words); the same table
gives the count of significant places.  repr's layout follows: positional
when the decimal exponent lies in [-4, 16), ".0" on integers, exponent form
with at least two exponent digits otherwise, "nan", "inf", "-inf".  A
value's cell is three uint64 words, a sign byte (zero when positive), then
its text (_layout): one index a value into each of two small tables
(_SCI by decimal exponent: the leading zeros, the places before the point,
the exponent's text; _LAYOUT by point place and length: masks and the
constant bytes, the point and "0" on each place) and a few word shifts
of the digit words replace a byte index per output byte.  Integers take
the same layout.  Cells are copied into one line buffer with their
separators, each column cut to its widest cell, and the zero bytes are
dropped by bytes.translate.  The float cells' buffer is kept across a
process's blocks (_kept_cells), so that no block faults its pages in
again; every other array is freed as soon as it is used, so a block's
working set stays below the old kernel's.  A scan's p slice is formatted once a
process (_axis_cells).

Imported only by the functions that write tables and documents, so a
command that writes neither never compiles it.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

_E_MIN, _E_MAX = -292, 324  # -k over every double's k = floor(log10(2^q)) or floor(log10(3/4 2^q))


def _pow10_table():
    """g(e) = floor(10^e 2^(127 - r)) + 1, with r = floor(log2 10^e), for
    e in [_E_MIN, _E_MAX]: a row each of its four 32-bit limbs (highest
    first), then its two 64-bit words; and r.  Each power of ten is the last
    one times ten, so only the negative e cost a division each."""
    powers, g, r = list(accumulate([1] + [10] * _E_MAX, lambda a, b: a * b)), bytearray(), []
    for e in range(_E_MIN, _E_MAX + 1):
        p = powers[abs(e)]
        n = p.bit_length()
        r.append(n - 1 if e >= 0 else -n)  # 10^-e is no power of two, so its ceil(log2) is its bit length
        g += ((p << 127 >> r[-1] if e >= 0 else (1 << 127 + n) // p) + 1).to_bytes(16, "big")
    limbs, words = np.frombuffer(g, ">u4").reshape(-1, 4).T, np.frombuffer(g, ">u8").reshape(-1, 2).T
    return np.concatenate([limbs, words]).astype(np.uint64), np.array(r, dtype=np.int32)


def _exponent_table(r):
    """For each key, a double's biased exponent plus 2048 when the next
    double below is half as far as the next above: its row of _G, -k - _E_MIN
    (k = floor(log10(2^q)), or of 3/4 2^q), times 8, plus Schubfach's h."""
    key = np.arange(4096, dtype=np.int32)
    q = np.maximum(key % 2048, 1) - 1075
    index = -((q * 1262611 - (key >= 2048) * 524031) >> 22) - _E_MIN
    return (index << 3 | (q + r.take(index) + 1) & 7).astype(np.int32)


_G, _R = _pow10_table()
_KH, _LOW, _POW10 = _exponent_table(_R), np.uint64(0xFFFFFFFF), 10 ** np.arange(20, dtype=np.uint64)
_KEPT = np.empty(0, np.uint64)  # the cells of float_cells, kept for the next call


def _kept_cells(n: int) -> np.ndarray:
    """n rows of three uint64 words of _KEPT, grown to the most rows asked
    for, so that a process's blocks fault its pages in once."""
    global _KEPT
    if _KEPT.size < 3 * n:
        _KEPT = np.empty(3 * n, np.uint64)
    return _KEPT[: 3 * n].reshape(n, 3)


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of the product of (a1, a0) and (b1, b0), 32-bit limbs."""
    y, z = a0 * b1, a1 * b0
    low = (a0 * b0 >> 32) + (y & _LOW) + (z & _LOW)
    return a1 * b1 + (y >> 32) + (z >> 32) + (low >> 32)


def _shifted(gh, gl, s):
    """The three 64-bit words (lowest first) of g 2^s, from g's two, and 0 < s < 64."""
    return gl << s, gh << s | gl >> np.uint8(64) - s, gh >> np.uint8(64) - s


def _round_to_odd(p, e, add: bool):
    """Schubfach's round to odd of (p + e) >> 128, or of (p - e) >> 128, from
    the three 64-bit words of p (highest first) and of e (lowest first): the
    top 64 bits, with the next 64 folded into the last bit when they exceed
    1, Schubfach's rule (g is 10^-k 2^(127 - r) rounded up, so an exact
    product leaves them 0 or 1; the exactness test holds the four doubles
    whose products leave the least nonzero remainder)."""
    (p2, p1, p0), (e0, e1, e2) = p, e
    if add:
        w1, carry = p1 + e1, p0 + e0 < e0
        high = w1 < e1
        w1 += carry
        return (p2 + e2 + (high | (w1 < carry))) | (w1 > 1)
    w1, carry = p1 - e1, p0 < e0
    high = (p1 < e1) | (w1 < carry)
    w1 -= carry
    return (p2 - e2 - high) | (w1 > 1)


def _decimal(values):
    """(digits, exponent) of the nonzero finite values: the shortest digits,
    closest on a tie of length, that read back to each.  One exact product
    g cp gives the three of Schubfach (at c and the halfway points to its
    neighbours), which differ by g 2^(h+1) or g 2^h.  Each array goes as soon
    as it is used, so a block's working set stays small."""
    bits = np.abs(values).view(np.uint64)
    c, key = bits & np.uint64((1 << 52) - 1), bits >> 52
    del bits
    closer = (c == 0) & (key > 1)  # the next double below is half as far as the next above
    c |= (key > 0) * np.uint64(1 << 52)
    key += closer * np.uint64(2048)
    kh = _KH.take(key)
    del key
    odd, index, h1 = (c & 1).astype(bool), kh >> 3, (kh & 7).astype(np.uint8) + np.uint8(1)
    del kh
    c <<= h1 + np.uint8(1)  # cp = cb << h, with cb = 4c: Schubfach's vb, before its rounding, is g cp
    c1, c0 = c >> 32, c & _LOW
    x1 = _mulhi(_G[2].take(index), _G[3].take(index), c1, c0)  # the high word of g's low word times cp
    p2 = _mulhi(_G[0].take(index), _G[1].take(index), c1, c0)
    del c1, c0
    gh, gl = _G[4].take(index), _G[5].take(index)
    p = [p2, gh * c, gl * c]  # each word's low half by wrap-around
    del p2, c
    p[1] += x1
    p[0] += p[1] < x1
    del x1
    vb = p[0] | (p[1] > 1)
    e = _shifted(gh, gl, h1)
    e_lower = _shifted(gh, gl, h1 - closer) if closer.any() else e
    del gh, gl, h1
    upper = _round_to_odd(p, e, True) - odd  # g ((cb + 2) << h); an odd c's boundaries read back to its neighbours
    lower = _round_to_odd(p, e_lower, False) + odd  # g ((cb - 2 + closer) << h)
    del p, e, e_lower, odd, closer
    s = vb >> 2
    sp = s // 10
    upin, wpin = lower <= sp * 40, sp * 40 + 40 <= upper
    shorter = (upin != wpin) & (s >= 10)  # one digit fewer reads back: sp, or sp + 1
    w_in = s * 4 + 4 <= upper
    inside = (lower <= s * 4) != w_in  # one of s and s + 1 reads back, or else the closer, ties to even
    s += np.where(inside, w_in, (vb & 3) + (s & 1) > 2)
    sp += wpin
    return np.where(shorter, sp, s), -_E_MIN - index + shorter


def _places(x):
    """The count of decimal places of each uint64 x, 0 for 0: floor(log10(2^bits)),
    from the exponent of x as a float, then one place more or none."""
    count = np.frexp(x.astype(np.float64))[1] * 1233 >> 12
    count += x >= _POW10.take(count)
    return count


def _quads():
    """The 4 decimal digits of each i < 10^4 as bytes of a uint32, the first
    lowest, from its two pairs of digits; and the place of its last nonzero
    digit, from 1, or 0 for 0."""
    i = np.arange(100, dtype=np.uint32)
    pairs, last = i // 10 | i % 10 << 8, (2 - (i % 10 == 0)) * (i > 0)
    return (pairs[:, None] | pairs << 16).ravel(), np.where(i > 0, last + 2, last[:, None]).astype(np.uint8).ravel()


def _digit_words(d):
    """The 17 decimal places of each d < 10^17 as digit bytes (0 to 9, not
    yet ASCII) in three rows of uint64 words, places 0-7, 8-15 and 16, the
    first lowest, four places at a time by _QUADS; and each d's count of
    places to its last nonzero digit."""
    words = np.empty((3, d.size), np.uint64)
    np.floor_divide(d, 10**9, out=words[0])
    d -= words[0] * 10**9
    np.floor_divide(d, 10, out=words[1])
    np.subtract(d, words[1] * 10, out=words[2])
    quads = words[:2] // 10**4  # places 0-3 and 8-11; words[:2] keep 4-7 and 12-15
    words[:2] -= quads * 10**4
    places = (words[2] > 0) * np.uint8(17)
    for group, first in ((quads, _FIRST), (words[:2], _FIRST + 4)):
        last = _LAST.take(group)
        np.maximum(places, ((last + first) * (last > 0)).max(axis=0), out=places)
    for j in (0, 1):
        words[j] = _QUADS.take(quads[j]) | np.left_shift(_QUADS.take(words[j]), 32, dtype=np.uint64)
    return words, places


def _layout(digits, zeros, key, negative, cells):
    """Lay out each value's text in a row of cells (n, 3 words): a sign byte,
    then zeros leading zeros and the digits, a point after a count of places
    and zero bytes after the last place, as key (places before the point * 22
    + places) says: the digit words shifted past the sign and the zeros, and a
    place more past the point, merged by a row of masks and constant bytes of
    _LAYOUT, a word at a time."""
    shift = zeros * np.uint8(8) + np.uint8(8)
    for w in range(3):
        before, after, constant = _LAYOUT[w].take(key, axis=1)
        a, b = digits[w] << shift, digits[w] << shift + np.uint8(8)
        if w:
            a |= digits[w - 1] >> np.uint8(64) - shift
            b |= digits[w - 1] >> np.uint8(56) - shift
        np.bitwise_or(a & before | b & after, constant, out=cells[:, w])
    cells[:, 0] |= negative * np.uint64(0x2D)
    return cells


def _layout_table():
    """For each of the three 64-bit words of a cell, for each key (ilen * 22 +
    end): the masks of the places before the point and after it, and the
    constant bytes ("0" on every place, and the point), as three rows of keys."""
    ilen, end = (x[:, None] for x in np.divmod(np.arange(21 * 22, dtype=np.int16), 22))
    place = np.arange(24, dtype=np.int16)
    before, after = (place >= 1) & (place <= ilen), place >= ilen + 2
    point = ((place == ilen + 1) & (end > ilen)) * np.uint8(0x2E)
    constant = np.where(before | after & (place <= end + 1), np.uint8(0x30), point)
    rows = np.concatenate([before * np.uint8(255), after * np.uint8(255), constant], axis=1).view("<u8")
    return np.ascontiguousarray(rows.T.reshape(3, 3, -1).transpose(1, 0, 2))


_SCI_MIN = -330  # below every double's decimal exponent, -324


def _sci_table():
    """For each decimal exponent of a first digit, from _SCI_MIN: the zeros
    after the point, 22 times the places before it, the least count of
    places and the least width; and the exponent's text ("e", its sign and
    three places, the first zero below 100) at the top of the third word."""
    sci = np.arange(_SCI_MIN, -_SCI_MIN)
    a, positional = np.abs(sci).astype(np.uint64), (sci >= -4) & (sci < 16)
    text = (0x65 | np.where(sci < 0, 0x2D, 0x2B).astype(np.uint64) << 8 | (a >= 100) * (a // 100 + 0x30) << 16
            | (a // 10 % 10 + 0x30) << 24 | (a % 10 + 0x30) << 32) << 24
    columns = [np.maximum(-sci, 0) * positional, np.where(positional, np.maximum(sci + 1, 1), 1) * 22,
               np.maximum(sci + 2, 0) * positional, 24 * ~positional]
    return [c.astype(np.uint16 if i == 1 else np.uint8) for i, c in enumerate(columns)], text * ~positional


(_QUADS, _LAST), _LAYOUT, (_SCI, _SUFFIX) = _quads(), _layout_table(), _sci_table()
_FIRST = np.array([[0], [8]], np.uint8)  # the first place of each of the digit words' first four
_SPECIALS = np.frombuffer(b"\x00nan\x00\x00\x00\x00\x000.0\x00\x00\x00\x00\x00inf\x00\x00\x00\x00", "<u8")


def _cells(values):
    """float_cells of nonzero finite values."""
    digits, exponent = _decimal(values)
    count = _places(digits)
    row = exponent + count - 1 - _SCI_MIN
    digits *= _POW10.take(17 - count)  # left-aligned to 17 places
    del exponent, count
    zeros, ilen, least, width = (column.take(row) for column in _SCI)
    words, places = _digit_words(digits)
    del digits
    end = np.maximum(places, least) + zeros  # the places, the point not counted
    cells = _layout(words, zeros, ilen + end, np.signbit(values), _kept_cells(values.size))
    cells[:, 2] |= _SUFFIX.take(row)
    return cells.view(np.uint8), np.maximum(end + np.uint8(2), width)


def float_cells(values):
    """repr of each float64 value, a row each: a sign byte, zero when there
    is none, then repr's text, with zero bytes wherever it has none; and each
    row's width.  The rows may be a kept buffer, which the next call overwrites."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    regular = np.isfinite(values) & (values != 0)
    if regular.all():
        return _cells(values)
    made = _cells(values[regular])  # first, so that its working set is freed before the block's rows are made
    cells, widths = np.zeros((values.size, 24), np.uint8), np.full(values.size, 4, np.uint8)
    cells[regular], widths[regular] = made
    v = values[~regular]  # zero, inf, -inf and nan
    text = _SPECIALS.take(np.where(np.isnan(v), 0, 1 + np.isinf(v))) | (np.signbit(v) & ~np.isnan(v)) * np.uint64(0x2D)
    cells.view(np.uint64)[~regular, 0] = text
    return cells, widths


def int_cells(values) -> np.ndarray:
    """str of each integer value, a row each, with zero bytes where it has none."""
    negative = values < 0
    magnitude = np.where(negative, ~values.astype(np.uint64) + np.uint64(1), values.astype(np.uint64))
    count = np.maximum(_places(magnitude), 1)
    over = np.maximum(count, 17) - 17  # places past the 17 of a row's digit words, up to 3
    words = _digit_words(magnitude // _POW10.take(over) * _POW10.take(17 - count + over))[0]
    words[2] |= _QUADS.take(magnitude % _POW10.take(over) * _POW10.take(3 - over))  # in places 17-19
    cells = _layout(words, np.zeros(values.size, np.uint8), count * 23, negative, np.empty((values.size, 3), np.uint64))
    return _trim(cells.view(np.uint8), count + 1)


def _trim(cells, widths):
    """cells cut to the widest of widths."""
    return cells[:, : int(widths.max(initial=1))]


def joined(values, sep: str) -> str:
    """sep.join(map(repr, values.tolist())) of a float64 array."""
    return _lines([_trim(*float_cells(values))[None]], sep, sep)[: -len(sep)]


_AXES: dict = {}  # a scan's p slices, by address and size: (values, cells)


def _axis_cells(p) -> np.ndarray:
    """float_cells of a scan's p slice, made once a process: every block of
    a scan repeats its p values, a slice of them when a row is longer than a
    block, and each such slice lies at one address."""
    key = (p.__array_interface__["data"][0], p.size)
    if key not in _AXES or not np.array_equal(_AXES[key][0], p):
        if len(_AXES) > 16:
            _AXES.clear()
        _AXES[key] = p.copy(), _trim(*float_cells(p)).copy()
    return _AXES[key][1]


def csv_lines(columns, mesh: bool) -> str:
    """The CSV lines of a block of float64 and integer columns, each number
    as its repr.  A mesh's columns are its a row values, its b column values
    and its (a, b) values, with a line for each of its a * b cells."""
    axis = _axis_cells(columns[1]) if mesh else None
    floats = [c for c in (columns[::2] if mesh else columns) if c.dtype.kind == "f"] or [np.empty(0)]
    cells, widths = float_cells(np.concatenate([c.ravel() for c in floats]))  # one call a block, as each has a fixed cost
    bounds = np.cumsum([0] + [c.size for c in floats])
    made = iter([_trim(cells[a:b], widths[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])
    cells = [axis if mesh and i == 1 else next(made) if c.dtype.kind == "f" else int_cells(c) for i, c in enumerate(columns)]
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
    return full.tobytes().translate(None, b"\0").decode("ascii")
