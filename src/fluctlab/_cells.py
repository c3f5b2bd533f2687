"""The text of numbers a block at a time in numpy, with no Python object
per value: each value's cell is three uint64 words holding its text from
the first byte, then zero bytes, which _floattext lays out in tables and
documents.

A float64's digits are Schubfach's (Giulietti, "The Schubfach way to
render doubles", 2020; Ryu, Adams, PLDI 2018, gives the same): the
shortest decimal that reads back to the same double and, among those, the
closest to it, ties to an even last digit, which is what repr prints.  A
value c 2^q is scaled by g(-k), a 128-bit approximation of 10^-k, and
rounded to odd at 4c and at the two halfway points to its neighbours,
4c + 2 and 4c - 2 (4c - 1 when the neighbour below is nearer).  Those
three products differ by g 2^(h+1) or g 2^h, so one exact 192-bit product
g (4c << h), from two 64 x 128-bit high halves on 32-bit limbs and
uint64's wrap-around for the low halves, gives all three: a bound adds or
takes g's words, shifted, with a carry between words (_decimal, _bound).
A key table of the biased exponent gives k and h.  Integer-valued doubles
need no path of their own: the same rounding gives their digits (the
exactness test in tests/test_floattext.py holds 200 001 integers, and
every power of two).

The digits are left-aligned to 17 places and written as digit bytes, 8 to
a uint64 word, four at a time from a table (_digit_words); the same table
gives the count of significant places.  repr's layout follows: positional
when the decimal exponent lies in [-4, 16), ".0" on integers, exponent form
with at least two exponent digits otherwise.  One index a value into each
of two small tables (_SCI by decimal exponent: the leading zeros, the
places before the point, the length of the exponent's text; _LAYOUT by
sign, point place and length: masks and the constant bytes, the sign, the
point and "0" on each place) and a few word shifts lay the digit words out
in place (_layout); the exponent's text, where there is one, is then added
right after the last place.  Integers take the same layout.  A text has
no zero byte, and finite_cells and int_cells give each one's length.

Each stage works on its arrays in place and frees them as soon as they are
used, a word at a time where it can, and the words of the cells are kept
across a process's blocks (_kept_words), so that no block faults their
pages in again: a block's working set is about 90 B a value with them.
The module is apart from _floattext so that the two compile apart: where
bytecode is not cached, compiling holds about 380 B a token for a moment,
and this module holds two thirds of the tokens.
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
_KEPT = np.empty(0, np.uint64)  # the words of finite_cells' cells, kept for the next call


def _kept_words(n: int) -> np.ndarray:
    """Three rows of n uint64 words of _KEPT, grown to the most values asked
    for, so that a process's blocks fault its pages in once."""
    global _KEPT
    if _KEPT.size < 3 * n:
        _KEPT = np.empty(3 * n, np.uint64)
    return _KEPT[: 3 * n].reshape(3, n)


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of the product of (a1, a0) and (b1, b0), 32-bit
    limbs; a1 and a0 are overwritten."""
    y = a0 * b1
    a0 *= b0
    a0 >>= 32
    a0 += y  # no carry: (2^32 - 1)^2 + 2^32 - 1 < 2^64
    del y
    y = a1 * b0
    a1 *= b1
    a1 += a0 >> 32
    a0 &= _LOW
    a0 += y
    del y
    a0 >>= 32
    a1 += a0
    return a1


def _bound(p, index, s, add: bool):
    """Schubfach's round to odd of (p + e) >> 128, or of (p - e) >> 128 as
    (p + ~e + 1) >> 128, with e = g(index) 2^s (0 <= s <= 8) and p's three
    64-bit words highest first: the top 64 bits, with the next 64 folded
    into the last bit when they exceed 1, Schubfach's rule (g is
    10^-k 2^(127 - r) rounded up, so an exact product leaves them 0 or 1;
    the exactness test holds the four doubles whose products leave the least
    nonzero remainder).  e's words are made from g's a word at a time."""
    p2, p1, p0 = p
    up = np.uint8(64) - s
    e = _G[5].take(index)
    middle = e >> up
    e <<= s
    if add:
        e += p0
    carry = e < p0 if add else e <= p0  # out of the low words
    e = _G[4].take(index)
    middle |= e << s
    e >>= up
    if not add:
        np.invert(middle, out=middle)
        np.invert(e, out=e)
    middle += p1
    high = middle < p1
    middle += carry
    high |= middle < carry
    e += p2
    e += high
    e |= middle > 1
    return e


def _decimal(values):
    """(digits, exponent) of the nonzero finite values: the shortest digits,
    closest on a tie of length, that read back to each.  One exact product
    g cp gives the three of Schubfach (at c and the halfway points to its
    neighbours), which differ by g 2^(h+1) or g 2^h.  Its words are made one
    at a time, most arrays are worked on in place and each goes as soon as
    it is used, so that a block's working set stays small."""
    c = np.abs(values).view(np.uint64)
    key = c >> 52
    c &= np.uint64((1 << 52) - 1)
    closer = (c == 0) & (key > 1)  # the next double below is half as far as the next above
    c |= np.minimum(key, 1) << 52
    key += closer * np.uint64(2048)
    kh = _KH.take(key)
    del key
    odd, index, h1 = (c & 1).astype(bool), (kh >> 3).astype(np.intp), (kh & 7).astype(np.uint8) + np.uint8(1)
    del kh
    c <<= h1 + np.uint8(1)  # cp = cb << h, with cb = 4c: Schubfach's vb, before its rounding, is g cp
    c1 = c >> 32
    c &= _LOW
    p2 = _mulhi(_G[0].take(index), _G[1].take(index), c1, c)
    x1 = _mulhi(_G[2].take(index), _G[3].take(index), c1, c)  # the high word of g's low word times cp
    c1 <<= 32
    c1 |= c
    del c
    p1, p0 = _G[4].take(index), _G[5].take(index)
    p1 *= c1  # each word's low half by wrap-around
    p0 *= c1
    del c1
    p1 += x1
    p2 += p1 < x1
    del x1
    upper = _bound((p2, p1, p0), index, h1, True)  # g ((cb + 2) << h); an odd c's bounds read back to its neighbours
    upper -= odd
    lower = _bound((p2, p1, p0), index, h1 - closer, False)  # g ((cb - 2 + closer) << h)
    lower += odd
    del p0, h1, odd, closer
    p2 |= p1 > 1  # vb
    del p1
    vb = p2
    s = vb >> 2
    sp = s // 10
    upin, wpin = lower <= sp * 40, sp * 40 + 40 <= upper
    shorter = (upin != wpin) & (s >= 10)  # one digit fewer reads back: sp, or sp + 1
    del upin
    w_in = s * 4 + 4 <= upper
    inside = (lower <= s * 4) != w_in  # one of s and s + 1 reads back, or else the closer, ties to even
    del upper, lower
    s += np.where(inside, w_in, (vb & 3) + (s & 1) > 2)
    sp += wpin
    np.copyto(s, sp, where=shorter)
    return s, -_E_MIN - index + shorter


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


def _digit_words(d, words):
    """Write the 17 decimal places of each d < 10^17 as digit bytes (0 to 9,
    not yet ASCII) into words, three rows of uint64 words, places 0-7, 8-15
    and 16, the first lowest, four places at a time by _QUADS; return each
    d's count of places to its last nonzero digit.  d is overwritten."""
    np.floor_divide(d, 10**9, out=words[0])
    d -= words[0] * 10**9
    np.floor_divide(d, 10, out=words[1])
    np.subtract(d, words[1] * 10, out=words[2])
    places = (words[2] > 0) * np.uint8(17)
    for j in (0, 1):
        quad = words[j] // 10**4  # places 8j to 8j + 3; words[j] keeps the next four
        words[j] -= quad * 10**4
        for group, first in ((quad, 8 * j), (words[j], 8 * j + 4)):
            last = _LAST.take(group)
            np.maximum(places, (last + np.uint8(first)) * (last > 0), out=places)
        np.left_shift(_QUADS.take(words[j]), 32, out=words[j], dtype=np.uint64)
        words[j] |= _QUADS.take(quad)
    return places


def _layout(words, zeros, key, negative):
    """Lay out each value's text in its column of words, in place, from its
    first byte: a sign when negative, then zeros leading zeros and the
    digits, a point after a count of places and zero bytes after the last
    place, as key (places before the point * 22 + places) says: the digit
    words shifted past the sign and the zeros, and a place more past the
    point, merged by masks and constant bytes of _LAYOUT, one row taken at a
    time, a word at a time from the last, so that a word's digits are read
    before they are overwritten."""
    shift = (zeros + negative) * np.uint8(8)
    key += negative * np.intp(21 * 22)
    for w in (2, 1, 0):
        a = words[w]
        b = a << shift + np.uint8(8)
        a <<= shift
        if w:
            a |= words[w - 1] >> np.uint8(64) - shift
            b |= words[w - 1] >> np.uint8(56) - shift
        a &= _LAYOUT[w, 0].take(key)
        b &= _LAYOUT[w, 1].take(key)
        a |= b
        del b
        a |= _LAYOUT[w, 2].take(key)
    words[0] |= negative * np.uint64(0x2D)


def _layout_table():
    """For each of the three 64-bit words of a cell, for each key (21 * 22
    when there is a sign, + ilen * 22 + end): the masks of the places
    before the point and after it, and the constant bytes ("0" on every
    place, and the point), as three rows of keys."""
    sign, ilen, end = (x[:, None].astype(np.int16) for x in np.unravel_index(np.arange(2 * 21 * 22), (2, 21, 22)))
    place = np.arange(24, dtype=np.int16) - sign  # the places after the sign
    before, after = (place >= 0) & (place < ilen), place > ilen
    point = ((place == ilen) & (end > ilen)) * np.uint8(0x2E)
    constant = np.where(before | after & (place <= end), np.uint8(0x30), point)
    rows = np.concatenate([before * np.uint8(255), after * np.uint8(255), constant], axis=1).view("<u8")
    return np.ascontiguousarray(rows.T.reshape(3, 3, -1).transpose(1, 0, 2))


_SCI_MIN = -330  # below every double's decimal exponent, -324


def _sci_table():
    """For each decimal exponent of a first digit, from _SCI_MIN: the zeros
    after the point, 22 times the places before it, the least count of
    places, and the length of the exponent's text; and that text, "e", its
    sign and its two or three places, the first byte lowest."""
    sci = np.arange(_SCI_MIN, -_SCI_MIN)
    a, positional = np.abs(sci).astype(np.uint64), (sci >= -4) & (sci < 16)
    places = ((a // 100 + 0x30) | (a // 10 % 10 + 0x30) << 8 | (a % 10 + 0x30) << 16) >> (a < 100) * np.uint64(8)
    text = 0x65 | np.where(sci < 0, 0x2D, 0x2B).astype(np.uint64) << 8 | places << 16
    columns = [np.maximum(-sci, 0) * positional, np.where(positional, np.maximum(sci + 1, 1), 1) * 22,
               np.maximum(sci + 2, 0) * positional, (4 + (a >= 100)) * ~positional]
    return [c.astype(np.uint16 if i == 1 else np.uint8) for i, c in enumerate(columns)], text * ~positional


(_QUADS, _LAST), _LAYOUT, (_SCI, _SUFFIX) = _quads(), _layout_table(), _sci_table()


def finite_cells(values):
    """The cells of nonzero finite float64 values, in the kept words (repr's
    text from each cell's first byte, then zero bytes), and the length of
    each text."""
    digits, exponent = _decimal(values)
    count = _places(digits)
    row = (exponent + count - 1 - _SCI_MIN).astype(np.uint16)
    digits *= _POW10.take(17 - count)  # left-aligned to 17 places
    del exponent, count
    zeros, ilen, least, tail = (column.take(row) for column in _SCI)
    words = _kept_words(values.size)
    places = _digit_words(digits, words)
    del digits
    end = np.maximum(places, least) + zeros  # the places, the point not counted
    del places, least
    negative = np.signbit(values)
    _layout(words, zeros, (ilen + end).astype(np.intp), negative)
    ends = end + tail + (end > 1) + negative  # a positional text has a point, and end > 1
    del zeros, ilen, end, negative
    sci = np.flatnonzero(tail > 1)
    if sci.size:  # the exponent's text, right after the last place: in the word of its first byte, and the next
        first = ends[sci] - tail[sci]
        low = _SUFFIX.take(row[sci])
        high = low >> np.uint8(64) - (first & 7) * np.uint8(8)  # 0 in the last word
        low <<= (first & 7) * np.uint8(8)
        at = (first >> 3).astype(np.intp)
        at *= values.size
        at += sci
        del sci
        flat = words.reshape(-1)
        flat[at] |= low
        at += np.where(first < 16, values.size, 0)
        flat[at] |= high
    return words, ends


def int_cells(values):
    """The cells of integer values, as finite_cells lays out a float's text:
    str's; and each one's length."""
    negative = values < 0
    magnitude = np.where(negative, ~values.astype(np.uint64) + np.uint64(1), values.astype(np.uint64))
    count = np.maximum(_places(magnitude), 1)
    over = np.maximum(count, 17) - 17  # places past the 17 of a cell's digit words, up to 3
    words = np.empty((3, values.size), np.uint64)
    _digit_words(magnitude // _POW10.take(over) * _POW10.take(17 - count + over), words)
    words[2] |= _QUADS.take(magnitude % _POW10.take(over) * _POW10.take(3 - over))  # in places 17-19
    _layout(words, np.zeros(values.size, np.uint8), (count * 23).astype(np.intp), negative)
    return words, (count + negative).astype(np.uint8)
