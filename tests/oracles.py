"""Independent reference computations used only by the test suite.

Everything here deliberately avoids the library's own code paths: determinants
by cofactor expansion, and the metric through an explicit superoperator matrix
in the standard basis, diagonalized whole by numpy's ``eigh`` instead of
through the state's eigenframe.
"""
from __future__ import annotations

import math

import numpy as np


def det_cofactor(m) -> complex:
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(m)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * a[0, j] * det_cofactor(minor)
    return total


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


def det_real_symmetric_numpy(m) -> float:
    """The closed-form determinant for N <= 3 as it ran on numpy scalars.

    Kept verbatim as the bit-level reference for the library's plain-float
    closed forms: same symmetry check, same eigenvalue formulas, same product.
    """
    a = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    asym = float(np.abs(a - a.T).max(initial=0.0))
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    n = a.shape[0]
    if n == 1:
        vals = np.array([float(a[0, 0])])
    elif n == 2:
        half = 0.5 * (float(a[0, 0]) + float(a[1, 1]))
        spread = math.hypot(0.5 * (float(a[0, 0]) - float(a[1, 1])), float(a[0, 1]))
        vals = np.array([half - spread, half + spread])
    elif n == 3:
        p1 = float(a[0, 1]) ** 2 + float(a[0, 2]) ** 2 + float(a[1, 2]) ** 2
        diag = np.diagonal(a).astype(float)
        if p1 == 0.0:
            vals = np.sort(diag)
        else:
            q = float(diag.sum()) / 3.0
            p2 = float(((diag - q) ** 2).sum()) + 2.0 * p1
            p = math.sqrt(p2 / 6.0)
            b = (a - q * np.eye(3)) / p
            r = float(
                b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
                - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
                + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
            ) / 2.0
            r = min(1.0, max(-1.0, r))
            phi = math.acos(r) / 3.0
            big = q + 2.0 * p * math.cos(phi)
            small = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
            mid = 3.0 * q - big - small
            vals = np.array(sorted((small, mid, big)))
    else:
        raise ValueError(f"closed forms cover N <= 3, got {n}")
    return float(np.prod(vals))
