"""The vectorized numpy kernels: the Hermite-basis recurrence and the two
density mesh scans, each scan over any block of its mesh (a slice of each
axis), so that a cell has the same bits whichever block makes it.

numpy is the only backend.  The kernels stay in their own module, and their
callers look them up as module attributes (_kernels.name(...)), so a
benchmark can wrap each kernel where it is called.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_PI_QRT = math.pi ** -0.25
_TINY = sys.float_info.min  # smallest normal float


def hermite_basis(xi, n_max):
    """Orthonormal Hermite functions h_0..h_n_max sampled on xi, yielded one row at a
    time, each a new array; the three-term recurrence (with h_-1 = 0) holds only
    the two previous rows, and makes each row in place, with one temporary."""
    with np.errstate(over="ignore"):  # an overflow here is +inf, and exp(-inf) is exactly 0
        prev, row = 0.0, _PI_QRT * np.exp(-0.5 * xi * xi)
    yield row
    for k in range(n_max):
        new = np.multiply(math.sqrt(2.0 / (k + 1)), xi)
        new *= row
        new -= math.sqrt(k / (k + 1)) * prev
        prev, row = row, new
        yield row


def reduced_scan(dx, dp, rate, pref):
    """Mesh of pref * exp(-rate * |dx*dp|) over the separations dx (rows) and
    dp (columns), made in one array."""
    with np.errstate(over="ignore"):  # an overflow here is +inf, and exp(-inf) is exactly 0
        values = np.outer(dx, dp)
        np.abs(values, out=values)
        values *= -rate
        np.exp(values, out=values)
        values *= pref
        return _refold(values, pref, lambda i, j: -rate * np.abs(dx[i] * dp[j]))


def gauss_scan(x_factor, p_factor, pref):
    """Mesh of the factorized Gaussian density from each axis's gauss_axis;
    rows follow the x axis, columns the p axis."""
    (ex, fx), (ep, fp) = x_factor, p_factor
    values = np.outer(fx, fp)
    values *= pref
    return _refold(values, pref, lambda i, j: ex[i] + ep[j])


def gauss_axis(axis, mean, var):
    """An axis's factor of gauss_scan: its exponents -0.5*(axis-mean)**2/var and their exps."""
    exponent = _gauss_exponent(axis, mean, var)
    return exponent, np.exp(exponent)


def _refold(values, pref, exponent_at):
    """values is pref * exp(exponent) on a mesh, exponent_at(i, j) giving the
    exponent at cells (i, j).  A cell below the normal floats becomes
    exp(log(pref) + exponent) where that is a normal float: exp alone
    underflowed there before a large pref could scale it.  Every other value
    keeps its bits."""
    if values.min(initial=np.inf) < _TINY:  # min is cheap; the mask and nonzero are not
        i, j = np.nonzero(values < _TINY)
        folded = np.exp(math.log(pref) + exponent_at(i, j))
        rescued = folded >= _TINY
        values[i[rescued], j[rescued]] = folded[rescued]
    return values


def _gauss_exponent(axis, mean, var):
    """-0.5*(axis-mean)**2/var on an axis array; where the squared separation leaves the
    floats, the separation is divided by sqrt(var) before it is squared."""
    with np.errstate(over="ignore"):  # an overflow here is +inf, and exp(-inf) is exactly 0
        d = axis - mean
        exponent = -0.5 * d**2 / var
        wide = np.isinf(exponent)
        exponent[wide] = -0.5 * (d[wide] / math.sqrt(var)) ** 2
        return exponent


def active_backend() -> str:
    """Name of the kernel implementation in use; always "numpy"."""
    return "numpy"
