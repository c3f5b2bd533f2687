"""Standalone checks of the numpy kernels."""

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
