"""Classical covariance, monotone-metric inner products, and quantum covariance.

Every quantity here is computed by two genuinely different routes that the
test suite forces to agree:

* ``cov`` works directly with traces of matrix products, while
  ``cov_matrix_frame`` evaluates the eigenbasis double sum with
  arithmetic-mean weights (lambda_h + lambda_j)/2.
* ``qov`` follows its definition, f(0)/2 times the metric inner product of
  i[D, A] and i[D, B], where the metric divides by the matrix mean
  m_f(lambda_h, lambda_j).  ``qov_matrix_frame`` instead sums the
  coefficients alpha_hj = (lambda_h + lambda_j)/2 - m_tilde(lambda_h, lambda_j)
  against the frame matrices; the mean subtraction never sees a commutator or
  a division, so agreement is informative.

The frame assemblers are the fast path (one einsum per matrix, or per stack of
a block's matrices); the entrywise assemblers ``cov_matrix`` and ``qov_matrix``
stay close to the definitions and are what the frame assemblers are tested against.

A nonregular f (f(0) = 0) makes Qov_f identically zero.  ``qov``,
``qov_matrix`` and ``qov_matrix_frame`` reject it rather than return that
zero; ``inequalities.PreparedInstance`` supplies the zero matrix itself.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import commutator, frobenius, hermitian_part, require_hermitian
from .monotone import MonotoneFunction, mean, tilde
from .states import DensityMatrix, EigenFrame

__all__ = [
    "cov",
    "metric_inner",
    "metric_sum",
    "qov",
    "alpha_coefficients",
    "pair_means",
    "cov_matrix",
    "qov_matrix",
    "cov_matrix_frame",
    "qov_matrix_frame",
    "robertson_matrix",
    "observable_scale",
]


def cov(d: DensityMatrix, a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized covariance Tr(D(AB+BA))/2 - Tr(DA)Tr(DB)."""
    if a.shape != d.matrix.shape or b.shape != d.matrix.shape:
        raise ValueError("observable shape does not match the state")
    dm = d.matrix
    mean_a = float(np.trace(dm @ a).real)
    mean_b = float(np.trace(dm @ b).real)
    sym = 0.5 * float(np.trace(dm @ (a @ b + b @ a)).real)
    return sym - mean_a * mean_b


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


def _require_regular(f: MonotoneFunction) -> None:
    if not f.regular:
        raise ValueError(
            f"{f.label} is not regular (f(0) = 0), so its quantum covariance is identically zero"
        )


def qov(d: DensityMatrix, f: MonotoneFunction, a: np.ndarray, b: np.ndarray) -> float:
    """Quantum covariance f(0)/2 * <i[D,A], i[D,B]>_{D,f}; f must be regular."""
    _require_regular(f)
    ca = hermitian_part(1j * commutator(d.matrix, a))
    cb = hermitian_part(1j * commutator(d.matrix, b))
    return 0.5 * f.value_at_zero * metric_inner(d, f, ca, cb)


def alpha_coefficients(lambdas: np.ndarray, f: MonotoneFunction) -> np.ndarray:
    """Coefficients (lambda_h + lambda_j)/2 - m_tilde(lambda_h, lambda_j).

    Zero on the diagonal, strictly positive off it (for distinct eigenvalues);
    equal to f(0)(lambda_h - lambda_j)^2 / (2 m_f) by the transform identity,
    which the tests check but this route never uses.  Spectra (..., n) give a stack.
    """
    lam = np.asarray(lambdas, dtype=float)
    arithmetic = 0.5 * (lam[..., :, None] + lam[..., None, :])
    return arithmetic - pair_means(lam, tilde(f))


def _entrywise(obs_count: int, entry) -> np.ndarray:
    out = np.empty((obs_count, obs_count), dtype=float)
    for i in range(obs_count):
        for j in range(i, obs_count):
            out[i, j] = out[j, i] = entry(i, j)
    return out


def cov_matrix(d: DensityMatrix, obs) -> np.ndarray:
    """N x N matrix of pairwise covariances, entrywise from the trace formula."""
    obs = list(obs)
    return _entrywise(len(obs), lambda i, j: cov(d, obs[i], obs[j]))


def qov_matrix(d: DensityMatrix, f: MonotoneFunction, obs) -> np.ndarray:
    """N x N matrix of pairwise quantum covariances, entrywise from the definition."""
    obs = list(obs)
    return _entrywise(len(obs), lambda i, j: qov(d, f, obs[i], obs[j]))


def _frame_quadratic(frame: EigenFrame, weights: np.ndarray) -> np.ndarray:
    x = frame.observables
    raw = np.einsum("...hj,...khj,...ljh->...kl", weights, x, x).real
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


def cov_matrix_frame(frame: EigenFrame) -> np.ndarray:
    """Same matrix as cov_matrix, assembled in one pass from the frame (a stack from a stacked frame)."""
    lam = frame.lambdas
    return _frame_quadratic(frame, 0.5 * (lam[..., :, None] + lam[..., None, :]))


def qov_matrix_frame(frame: EigenFrame, f: MonotoneFunction) -> np.ndarray:
    """Same matrix as qov_matrix, assembled in one pass from the frame (a stack from a stacked frame)."""
    _require_regular(f)
    return _frame_quadratic(frame, alpha_coefficients(frame.lambdas, f))


def robertson_matrix(d: DensityMatrix, obs) -> np.ndarray:
    """Antisymmetric matrix with entries -(i/2) Tr(D [A_h, A_j])."""
    obs = list(obs)
    n = len(obs)
    out = np.zeros((n, n), dtype=float)
    for i in range(n):
        if obs[i].shape != d.matrix.shape:
            raise ValueError(f"observable {i} shape {obs[i].shape} does not match the state")
        for j in range(i + 1, n):
            t = complex(np.trace(d.matrix @ commutator(obs[i], obs[j])))
            out[i, j] = 0.5 * t.imag
            out[j, i] = -out[i, j]
    return out


def observable_scale(obs):
    """Tolerance scale max(1, sum of squared Frobenius norms), and the norms it
    is computed from; ValueError, naming the observables, where it overflows.

    A (B, N, n, n) stack of families gives the list of their B scales and the
    (B, N) array of their norms, from one ``frobenius`` call; the first family
    that overflows raises.
    """
    with np.errstate(over="ignore"):
        norms = frobenius(np.asarray(obs))
    scales = []
    for family in np.reshape(norms, (-1, norms.shape[-1])).tolist():
        try:
            total = sum(v**2 for v in family)  # Python's float power raises OverflowError past the float range
        except OverflowError:
            total = math.inf
        if total == math.inf:
            listed = ", ".join(f"norm of observables[{k}] = {v:.3e}" for k, v in enumerate(family))
            raise ValueError(f"observables: the sum of squared Frobenius norms overflows ({listed})")
        scales.append(max(1.0, total))
    return (scales, norms) if norms.ndim > 1 else (scales[0], tuple(norms.tolist()))
