"""Independent reference computations used only by the test suite.

Everything here deliberately avoids the library's own code paths: exact
determinants by elimination in rationals, and the metric through an explicit
superoperator matrix in the standard basis, diagonalized whole by numpy's
``eigh`` instead of through the state's eigenframe.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


def det_exact(m) -> Fraction:
    """Exact determinant of a real matrix's float entries, by Gaussian
    elimination in ``fractions.Fraction``."""
    a = [[Fraction(x) for x in row] for row in np.asarray(m, dtype=float).tolist()]
    n = len(a)
    det = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if a[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, n):
            ratio = a[i][j] / a[j][j]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[j])]
    return det


def _vec(x: np.ndarray) -> np.ndarray:
    # column stacking, so that vec(A X B) = (B^T kron A) vec(X)
    return np.asarray(x).reshape(-1, order="F")


def metric_superoperator(d: np.ndarray, f) -> np.ndarray:
    """The n^2 x n^2 matrix R^{1/2} f(L R^{-1}) R^{1/2} in the standard basis.

    L and R are left and right multiplication by the state d; f is applied as
    a matrix function through numpy's eigh.
    """
    n = d.shape[0]
    eye = np.eye(n)
    left = np.kron(eye, d)
    right = np.kron(d.T, eye)
    w, v = np.linalg.eigh(np.kron(np.linalg.inv(d).T, d))  # L R^{-1}
    f_lr = (v * f(w)) @ v.conj().T
    wr, vr = np.linalg.eigh(right)
    r_half = (vr * np.sqrt(wr)) @ vr.conj().T
    assert np.abs(left @ right - right @ left).max() < 1e-10 * np.abs(left).max()
    return r_half @ f_lr @ r_half


def metric_inner_superop(d: np.ndarray, f, x: np.ndarray, y: np.ndarray) -> float:
    """Monotone-metric scalar product through the explicit superoperator inverse."""
    m = metric_superoperator(d, f)
    val = _vec(x).conj() @ np.linalg.inv(m) @ _vec(y)
    return float(val.real)


def qov_superop(d: np.ndarray, f, a: np.ndarray, b: np.ndarray) -> float:
    """Quantum covariance via the superoperator oracle."""
    xa = 1j * (d @ a - a @ d)
    xb = 1j * (d @ b - b @ d)
    return 0.5 * f(0.0) * metric_inner_superop(d, f, xa, xb)
