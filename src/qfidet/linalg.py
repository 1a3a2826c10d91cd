"""Dense Hermitian linear algebra at desk scale (n <= 16 or so).

Matrices are plain complex128 ndarrays.  Eigenvalues and eigenvectors come
only from LAPACK (``np.linalg.eigh`` and ``eigvalsh``).  Determinants are taken
directly: by cofactor expansion up to 3x3 and by LU above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EigenDecomposition",
    "as_complex_matrix",
    "hermitian_part",
    "require_hermitian",
    "frobenius",
    "hermitian_eigen",
    "commutator",
    "apply_scalar_function",
    "det_real_symmetric",
    "det_antisymmetric",
    "min_eigenvalue",
    "numeric_rank",
]


def as_complex_matrix(a, label: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{label}: expected a square matrix, got shape {m.shape}")
    return m


def hermitian_part(a) -> np.ndarray:
    """(A + A^dagger) / 2."""
    m = as_complex_matrix(a)
    return 0.5 * (m + m.conj().T)


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def _entry_scale(a: np.ndarray, label: str = "matrix") -> float:
    """max(1, largest |entry|); a NaN or infinite entry raises ValueError naming it."""
    largest = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(largest):
        where = tuple(int(k) for k in np.argwhere(~np.isfinite(a))[0])
        raise ValueError(f"{label}: non-finite entry {where} = {a[where]}")
    return max(1.0, largest)


def require_hermitian(m: np.ndarray, tol: float = 1e-12, label: str = "matrix") -> None:
    """Raise with the offending entry if m deviates from m^dagger or is not finite."""
    scale = _entry_scale(m, label)
    delta = np.abs(m - m.conj().T)
    if not delta.max(initial=0.0) <= tol * scale:
        h, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        raise ValueError(
            f"{label}: not Hermitian, entry ({h},{j}) = {m[h, j]} vs "
            f"conjugate of ({j},{h}) = {np.conj(m[j, h])}"
        )


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending real eigenvalues and a unitary whose columns are eigenvectors."""

    eigenvalues: np.ndarray
    unitary: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.unitary
        return (u * self.eigenvalues) @ u.conj().T

    def unitarity_residual(self) -> float:
        u = self.unitary
        return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


def hermitian_eigen(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    Inside a degenerate eigenspace the basis is whichever one LAPACK returns.
    """
    m = as_complex_matrix(h)
    require_hermitian(m)
    values, unitary = np.linalg.eigh(m)
    return EigenDecomposition(eigenvalues=values, unitary=unitary)


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    ma = as_complex_matrix(a, "left operand")
    mb = as_complex_matrix(b, "right operand")
    if ma.shape != mb.shape:
        raise ValueError(f"commutator: shape mismatch {ma.shape} vs {mb.shape}")
    return ma @ mb - mb @ ma


def apply_scalar_function(
    h,
    phi: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float] | None = None,
) -> np.ndarray:
    """phi applied to a Hermitian matrix through its eigenvalues."""
    eig = hermitian_eigen(h)
    vals = eig.eigenvalues
    if domain is not None:
        lo, hi = domain
        if vals[0] < lo or vals[-1] > hi:
            bad = vals[0] if vals[0] < lo else vals[-1]
            raise ValueError(
                f"eigenvalue {bad!r} outside the function domain [{lo}, {hi}]"
            )
    try:
        w = np.asarray(phi(vals), dtype=float)
        if w.shape != vals.shape:
            raise TypeError
    except TypeError:
        w = np.array([float(phi(v)) for v in vals])
    u = eig.unitary
    return hermitian_part((u * w) @ u.conj().T)


def _checked_real(m, tol: float, sign: float = 1.0) -> np.ndarray:
    """m as a float array, which must be square, finite and symmetric
    (``sign`` = 1) or antisymmetric (``sign`` = -1) within tol times its
    largest entry; ValueError otherwise."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = _entry_scale(a)
    asym = float(np.abs(a - sign * a.T).max(initial=0.0))
    if not asym <= tol * scale:
        if sign > 0:
            raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
        raise ValueError(f"matrix is not antisymmetric (max |M + M^T| = {asym:.3e})")
    return a


def det_real_symmetric(m, tol: float = 1e-12) -> float:
    """Determinant of a real symmetric matrix.

    Up to 3x3 by cofactor expansion on plain floats, since numpy calls cost
    more than the arithmetic at this size; LU (``np.linalg.det``) above.
    numpy forms the LU determinant as the exp of a sum of logs, so its
    relative error grows with |log det|.
    Input that is not square, not finite or not symmetric within ``tol``
    times its largest entry raises ValueError.
    """
    a = np.asarray(m, dtype=float)
    if not (a.ndim == 2 and 1 <= a.shape[0] == a.shape[1] <= 3):
        return float(np.linalg.det(_checked_real(a, tol)))
    r = a.tolist()
    n = len(r)
    scale = max(1.0, max(abs(x) for row in r for x in row))
    asym = max(abs(r[i][j] - r[j][i]) for i in range(n) for j in range(n))
    if not asym <= tol * scale:
        _entry_scale(a)
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    if n == 1:
        det = r[0][0]
    elif n == 2:
        det = r[0][0] * r[1][1] - r[0][1] * r[1][0]
    else:
        det = (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )
    if not math.isfinite(det):
        _entry_scale(a)  # Python's max can pass over a NaN above
    return det


def det_antisymmetric(k, tol: float = 1e-12) -> float:
    """Determinant of a real antisymmetric matrix: exactly zero at odd sizes, LU at even ones."""
    a = _checked_real(k, tol, sign=-1.0)
    if a.shape[0] % 2 == 1:
        return 0.0
    return float(np.linalg.det(a))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian (or real symmetric) matrix."""
    a = np.asarray(m)
    if np.isrealobj(a):
        return float(np.linalg.eigvalsh(_checked_real(a, 1e-11))[0])
    h = as_complex_matrix(a)
    require_hermitian(h)
    return float(np.linalg.eigvalsh(h)[0])


def numeric_rank(
    vectors: Sequence[np.ndarray] | np.ndarray, tol: float = 1e-9, floor: float = 0.0
) -> int:
    """Number of singular values above tol times the largest one.

    A purely relative threshold calls a stack of rounding-noise rows full
    rank, since the noise is compared only against itself.  Callers that
    know the scale the rows were produced at can pass ``floor`` (an absolute
    singular value below which a direction counts as zero).
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if floor < 0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(tol * s[0], floor)))
