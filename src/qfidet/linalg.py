"""Dense Hermitian linear algebra at desk scale (n <= 16 or so).

Matrices are plain complex128 ndarrays.  Eigenvalues and eigenvectors come
only from LAPACK (``np.linalg.eigh`` and ``eigvalsh``).  Determinants are taken
directly: by cofactor expansion up to 3x3 and by LU above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EigenDecomposition",
    "as_complex_matrix",
    "hermitian_part",
    "require_hermitian",
    "frobenius",
    "hermitian_eigen",
    "commutator",
    "det_real_symmetric",
    "det_antisymmetric",
    "min_eigenvalue",
    "numeric_rank",
    "SYMMETRY_TOL",
    "RANK_TOL",
]

# largest |M - M^H| (or |M -+ M^T|) accepted, relative to the largest entry
SYMMETRY_TOL = 1e-12
# singular values at or below this fraction of the largest one count as zero
RANK_TOL = 1e-9


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


def require_hermitian(m: np.ndarray, label: str = "matrix") -> None:
    """Raise with the offending entry if m deviates from m^dagger or is not finite."""
    scale = _entry_scale(m, label)
    delta = np.abs(m - m.conj().T)
    if not delta.max(initial=0.0) <= SYMMETRY_TOL * scale:
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


def _checked_real(m, tol: float, sign: float = 1.0) -> tuple[np.ndarray, float]:
    """m as a float array, which must be square, finite and symmetric
    (``sign`` = 1) or antisymmetric (``sign`` = -1) within tol times its
    largest entry (ValueError otherwise), and max(1, that entry)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = _entry_scale(a)
    asym = float(np.abs(a - a.T if sign > 0 else a + a.T).max(initial=0.0))
    if not asym <= tol * scale:
        if sign > 0:
            raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
        raise ValueError(f"matrix is not antisymmetric (max |M + M^T| = {asym:.3e})")
    return a, scale


def _overflow(a: np.ndarray) -> OverflowError:
    return OverflowError(f"determinant of finite entries up to {np.abs(a).max():.3e} overflows the float range")


def det_real_symmetric(m):
    """Determinant of a real symmetric N x N matrix ``m``, or the K determinants of an
    (N, N, K) stack of them; either way ``len(m)`` is N.

    The stack runs along the last axis, so that ``m[i, j]`` holds entry (i, j)
    of every matrix.  Up to 3x3 by cofactor expansion on those entries (the
    same operations in the same order for each matrix, so a determinant does
    not depend on the stack it is taken in), LU (``np.linalg.det``) above.
    numpy forms the LU determinant as the exp of a sum of logs, so its
    relative error grows with |log det|.
    Input that is not square, not finite or not symmetric within
    ``SYMMETRY_TOL`` times its largest entry raises ValueError naming the
    first such matrix, and a determinant of finite entries that overflows
    raises OverflowError.
    """
    a = np.asarray(m, dtype=float)
    stacked = a.ndim == 3
    if a.ndim not in (2, 3) or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        what = "an (N, N, K) stack of square matrices" if stacked else "a square matrix"
        raise ValueError(f"expected {what}, got shape {a.shape}")
    s = a if stacked else a[:, :, None]
    largest = np.abs(s).max(axis=(0, 1))
    # the symmetry test flags the NaN of inf - inf; one test of the results finds an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(s - s.transpose(1, 0, 2)).max(axis=(0, 1))
        bad = ~(asym <= SYMMETRY_TOL * np.maximum(1.0, largest))
        if bad.any():
            k = int(np.argmax(bad))
            _entry_scale(s[:, :, k])
            raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym[k]:.3e})")
        dets = np.linalg.det(s.transpose(2, 0, 1)) if len(s) > 3 else _cofactor_det(s)
    finite = np.isfinite(dets)
    if not finite.all():
        raise _overflow(s[:, :, int(np.argmin(finite))])
    return dets if stacked else float(dets[0])


def _cofactor_det(r):
    """Cofactor expansion of an N x N matrix, N <= 3, given as rows of entries."""
    if len(r) == 1:
        return r[0][0]
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def det_antisymmetric(k) -> float:
    """Determinant of a real antisymmetric matrix: exactly zero at odd sizes, LU (``np.linalg.det``) at
    even ones.  By Hadamard's inequality |det| <= (sqrt(N) max|entry|)^N, so below e^700 no step of the
    LU can overflow and only larger entries pay for silencing numpy; a result that is not finite
    raises OverflowError."""
    a, scale = _checked_real(k, SYMMETRY_TOL, sign=-1.0)
    n = a.shape[0]
    if n % 2 == 1:
        return 0.0
    if n * math.log(n * scale * scale) < 1400.0:
        return float(np.linalg.det(a))
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(a))
    if not math.isfinite(det):
        raise _overflow(a)
    return det


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian (or real symmetric) matrix."""
    a = np.asarray(m)
    if np.isrealobj(a):
        return float(np.linalg.eigvalsh(_checked_real(a, 1e-11)[0])[0])
    h = as_complex_matrix(a)
    require_hermitian(h)
    return float(np.linalg.eigvalsh(h)[0])


def numeric_rank(vectors: Sequence[np.ndarray] | np.ndarray, floor=0.0):
    """Number of singular values above ``RANK_TOL`` times the largest one.

    A purely relative threshold calls a stack of rounding-noise rows full
    rank, since the noise is compared only against itself.  Callers that
    know the scale the rows were produced at can pass ``floor`` (an absolute
    singular value below which a direction counts as zero).  A stack (..., rows,
    cols) gives its ranks from one batched SVD, each with its own entry of ``floor``.
    """
    floors = np.asarray(floor, dtype=float)
    if not (floors >= 0).all():
        raise ValueError(f"floor must be nonnegative, got {floor}")
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    # all-zero rows give s = 0, which no threshold max(0, floor) counts
    ranks = np.count_nonzero(s > np.maximum(RANK_TOL * s[..., :1], floors[..., None]), axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks
