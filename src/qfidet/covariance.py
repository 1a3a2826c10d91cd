"""Classical covariance, monotone-metric inner products, and quantum covariance.

Each quantity has one route here, through the state's eigenframe:

* ``cov_matrix_frame`` evaluates the eigenbasis double sum with
  arithmetic-mean weights (lambda_h + lambda_j)/2.
* ``qov_matrix_frame`` sums the coefficients
  alpha_hj = (lambda_h + lambda_j)/2 - m_tilde(lambda_h, lambda_j) against the
  frame matrices; the mean subtraction never sees a commutator or a division.

Both are one einsum per matrix, or per stack of a block's matrices.  The
definitions they are tested against live in the test suite's oracles: the
trace formula for Cov, and for Qov_f f(0)/2 times the metric inner product of
i[D, A] and i[D, B], where the metric divides by the matrix mean
m_f(lambda_h, lambda_j).  That metric is ``metric_inner`` (and, on sums the
caller forms, ``metric_sum``).

A nonregular f (f(0) = 0) makes Qov_f identically zero.  ``qov_matrix_frame``
rejects it rather than return that zero; ``inequalities.InstanceBlock.assemble``
supplies the zero matrix itself.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import frobenius, require_hermitian
from .monotone import MonotoneFunction, mean, tilde
from .states import DensityMatrix, EigenFrame

__all__ = [
    "metric_inner",
    "metric_sum",
    "alpha_coefficients",
    "pair_means",
    "cov_matrix_frame",
    "qov_matrix_frame",
    "observable_scale",
]


def pair_means(lambdas: np.ndarray, f: MonotoneFunction) -> np.ndarray:
    """Matrix of m_f(lambda_h, lambda_j) over all eigenvalue pairs.

    A stack of spectra (..., n) gives the stack of their matrices from one
    ``mean`` call.
    """
    return mean(f, lambdas[..., :, None], lambdas[..., None, :])


def metric_sum(products: np.ndarray, means: np.ndarray, f: MonotoneFunction):
    """Real part of sum products_hj / m_f(lambda_h, lambda_j), given the means from ``pair_means``;
    the array of these sums for stacks (..., n, n), the first nonpositive mean raising ValueError."""
    lows = means.min(axis=(-2, -1), initial=np.inf).ravel()
    bad = ~(lows > 0.0)
    if bad.any():
        raise ValueError(f"matrix mean underflow for {f.label}: min {lows[np.argmax(bad)]:.3e}")
    return np.sum(products / means, axis=(-2, -1)).real


def metric_inner(d: DensityMatrix, f: MonotoneFunction, x: np.ndarray, y: np.ndarray) -> float:
    """Scalar product sum conj(X_hj) Y_hj / m_f(lambda_h, lambda_j) in D's eigenbasis.

    Defined for arbitrary Hermitian tangents; positivity of the state keeps
    every matrix mean strictly positive.
    """
    for label, t in (("x", x), ("y", y)):
        if t.shape != d.matrix.shape:
            raise ValueError(f"tangent {label} shape {t.shape} does not match the state")
        require_hermitian(t, label=f"tangent {label}")
    u = d.eigen.unitary
    xr = u.conj().T @ x @ u
    yr = u.conj().T @ y @ u
    return float(metric_sum(xr.conj() * yr, pair_means(d.eigenvalues, f), f))


def alpha_coefficients(lambdas: np.ndarray, f: MonotoneFunction) -> np.ndarray:
    """Coefficients (lambda_h + lambda_j)/2 - m_tilde(lambda_h, lambda_j).

    Zero on the diagonal, strictly positive off it (for distinct eigenvalues);
    equal to f(0)(lambda_h - lambda_j)^2 / (2 m_f) by the transform identity,
    which the tests check but this route never uses.  Spectra (..., n) give a stack.
    """
    lam = np.asarray(lambdas, dtype=float)
    arithmetic = 0.5 * (lam[..., :, None] + lam[..., None, :])
    return arithmetic - pair_means(lam, tilde(f))


def _frame_quadratic(frame: EigenFrame, weights: np.ndarray) -> np.ndarray:
    x = frame.observables
    raw = np.einsum("...hj,...khj,...ljh->...kl", weights, x, x).real
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


def cov_matrix_frame(frame: EigenFrame) -> np.ndarray:
    """N x N matrix of pairwise covariances, assembled in one pass from the frame (a stack from a
    stacked frame)."""
    lam = frame.lambdas
    return _frame_quadratic(frame, 0.5 * (lam[..., :, None] + lam[..., None, :]))


def qov_matrix_frame(frame: EigenFrame, f: MonotoneFunction) -> np.ndarray:
    """N x N matrix of pairwise quantum covariances, assembled in one pass from the frame (a stack
    from a stacked frame); f must be regular."""
    if not f.regular:
        raise ValueError(f"{f.label} is not regular (f(0) = 0), so its quantum covariance is identically zero")
    return _frame_quadratic(frame, alpha_coefficients(frame.lambdas, f))


def observable_scale(obs):
    """Tolerance scales max(1, sum of squared Frobenius norms) of a (B, N, n, n) stack of families:
    the list of their B scales and the (B, N) array of the norms they are computed from, from one
    ``frobenius`` call.  ValueError for any other shape, one family too, and, naming its
    observables, for the first family whose sum overflows.
    """
    obs = np.asarray(obs)
    if obs.ndim != 4:
        raise ValueError(f"expected a (B, N, n, n) stack of families, got shape {obs.shape}")
    with np.errstate(over="ignore"):
        norms = frobenius(obs)
    scales = []
    for family in norms.tolist():
        try:
            total = sum(v**2 for v in family)  # Python's float power raises OverflowError past the float range
        except OverflowError:
            total = math.inf
        if total == math.inf:
            listed = ", ".join(f"norm of observables[{k}] = {v:.3e}" for k, v in enumerate(family))
            raise ValueError(f"observables: the sum of squared Frobenius norms overflows ({listed})")
        scales.append(max(1.0, total))
    return scales, norms
