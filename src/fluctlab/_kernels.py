"""The three vectorized numpy kernels: the Hermite-basis recurrence and the
two density mesh scans.

numpy is the only backend.  The kernels stay in their own module, and their
callers look them up as module attributes (_kernels.name(...)), so a
benchmark can wrap each kernel where it is called.
"""

from __future__ import annotations

import math

import numpy as np

_PI_QRT = math.pi ** -0.25


def hermite_basis(xi, n_max):
    """Orthonormal Hermite functions h_0..h_n_max sampled on xi, yielded one row at a
    time; the three-term recurrence (with h_-1 = 0) holds only the two previous rows."""
    with np.errstate(over="ignore"):  # an overflow here is +inf, and exp(-inf) is exactly 0
        prev, row = 0.0, _PI_QRT * np.exp(-0.5 * xi * xi)
    yield row
    for k in range(n_max):
        prev, row = row, math.sqrt(2.0 / (k + 1)) * xi * row - math.sqrt(k / (k + 1)) * prev
        yield row


def reduced_scan(xs, ps, mean_x, mean_p, rate, pref):
    """Mesh of pref * exp(-rate * |dx*dp|); rows follow xs, columns ps."""
    with np.errstate(over="ignore"):  # an overflow here is +inf, and exp(-inf) is exactly 0
        return pref * np.exp(-rate * np.abs(np.outer(xs - mean_x, ps - mean_p)))


def gauss_scan(xs, ps, mean_x, mean_p, var_x, var_p, pref):
    """Mesh of the factorized Gaussian density; rows follow xs, columns ps."""
    return pref * np.outer(_gauss_factor(xs, mean_x, var_x), _gauss_factor(ps, mean_p, var_p))


def _gauss_factor(axis, mean, var):
    """exp(-0.5*(axis-mean)**2/var) on an axis array; where the squared separation leaves the
    floats, the separation is divided by sqrt(var) before it is squared."""
    with np.errstate(over="ignore"):  # an overflow here is +inf, and exp(-inf) is exactly 0
        d = axis - mean
        exponent = -0.5 * d**2 / var
        wide = np.isinf(exponent)
        exponent[wide] = -0.5 * (d[wide] / math.sqrt(var)) ** 2
        return np.exp(exponent)


def active_backend() -> str:
    """Name of the kernel implementation in use; always "numpy"."""
    return "numpy"
