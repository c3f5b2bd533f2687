"""Standalone checks of the numpy kernels."""

import math

import numpy as np

from fluctlab import _kernels as kernels


def test_hermite_rows_are_orthonormal():
    # trapezoid inner products on a wide fine grid: the recurrence output
    # must reproduce the orthonormality of the underlying functions
    x = np.linspace(-20.0, 20.0, 4001)
    dx = x[1] - x[0]
    basis = np.array(list(kernels.hermite_basis(x, 20)))
    gram = basis @ basis.T * dx
    np.testing.assert_allclose(gram, np.eye(21), atol=1e-10)


def test_hermite_low_orders_closed_form():
    x = np.linspace(-5.0, 5.0, 101)
    basis = np.array(list(kernels.hermite_basis(x, 2)))
    h0 = np.pi**-0.25 * np.exp(-0.5 * x * x)
    np.testing.assert_allclose(basis[0], h0, rtol=1e-14)
    np.testing.assert_allclose(basis[1], np.sqrt(2.0) * x * h0, rtol=1e-14)
    np.testing.assert_allclose(basis[2], (2.0 * x * x - 1.0) / np.sqrt(2.0) * h0, rtol=5e-14, atol=1e-16)


def test_hermite_rows_are_the_one_expression_recurrence():
    """Each row is made in place, as (c1*xi)*row - c2*prev, so every value is
    the float the one-expression recurrence gives, and each row is a new array
    (a sweep holds a row its twin measures until the twin's moments arrive)."""
    xi = np.linspace(-20.0, 20.0, 4097)
    prev, row = 0.0, kernels._PI_QRT * np.exp(-0.5 * xi * xi)
    expected = [row]
    for k in range(150):
        prev, row = row, math.sqrt(2.0 / (k + 1)) * xi * row - math.sqrt(k / (k + 1)) * prev
        expected.append(row)
    rows = list(kernels.hermite_basis(xi, 150))
    assert [r.tobytes() for r in rows] == [r.tobytes() for r in expected]
    assert not any(np.shares_memory(a, b) for a, b in zip(rows, rows[1:]))
