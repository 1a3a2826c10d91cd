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
    "det_real_symmetric_stack",
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


def _lu_det(a: np.ndarray, scale: float) -> float:
    """``np.linalg.det`` of a checked matrix with entries of at most ``scale``.  By Hadamard's
    inequality |det| <= (sqrt(N) scale)^N, so below e^700 no step of the LU can overflow and
    only larger entries pay for silencing numpy; a result that is not finite raises OverflowError."""
    n = a.shape[0]
    if n * math.log(n * scale * scale) < 1400.0:
        return float(np.linalg.det(a))
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(a))
    if not math.isfinite(det):
        raise _overflow(a)
    return det


def det_real_symmetric(m) -> float:
    """Determinant of a real symmetric matrix.

    Up to 3x3 by cofactor expansion on plain floats, since numpy calls cost
    more than the arithmetic at this size; LU (``np.linalg.det``) above.
    numpy forms the LU determinant as the exp of a sum of logs, so its
    relative error grows with |log det|.
    Input that is not square, not finite or not symmetric within
    ``SYMMETRY_TOL`` times its largest entry raises ValueError, and a
    determinant of finite entries that overflows raises OverflowError.
    """
    a = np.asarray(m, dtype=float)
    if not (a.ndim == 2 and 1 <= a.shape[0] == a.shape[1] <= 3):
        return _lu_det(*_checked_real(a, SYMMETRY_TOL))
    r = a.tolist()
    n = len(r)
    scale = max(1.0, max(abs(x) for row in r for x in row))
    asym = max(abs(r[i][j] - r[j][i]) for i in range(n) for j in range(n))
    if not asym <= SYMMETRY_TOL * scale:
        _entry_scale(a)
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    det = _cofactor_det(r)
    if not math.isfinite(det):
        _entry_scale(a)  # Python's max can pass over a NaN above
        raise _overflow(a)
    return det


def _cofactor_det(r):
    """Cofactor expansion of an N x N matrix, N <= 3, given as rows of entries.

    The entries are floats for one matrix, or arrays that hold one entry of
    every matrix of a stack; either way the operations and their order are
    the same, so a stacked determinant equals the single one bit for bit.
    """
    if len(r) == 1:
        return r[0][0]
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def det_real_symmetric_stack(ms) -> np.ndarray:
    """Determinants of a (T, N, N) stack of real symmetric matrices.

    Each equals ``det_real_symmetric`` of its matrix bit for bit: the same
    cofactor expressions on array columns up to 3x3, and the same LU above.
    The first matrix that is not finite or not symmetric raises the
    ValueError that ``det_real_symmetric`` raises for it, and an overflow OverflowError.
    """
    a = np.asarray(ms, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    largest = np.abs(a).max(axis=(1, 2))
    # the symmetry test flags the NaN of inf - inf; one test of the results finds an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2))
        bad = ~(asym <= SYMMETRY_TOL * np.maximum(1.0, largest))
        if bad.any():
            k = int(np.argmax(bad))
            _entry_scale(a[k])
            raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym[k]:.3e})")
        dets = np.linalg.det(a) if a.shape[1] > 3 else _cofactor_det(a.transpose(1, 2, 0))
    finite = np.isfinite(dets)
    if not finite.all():
        raise _overflow(a[int(np.argmin(finite))])
    return dets


def det_antisymmetric(k) -> float:
    """Determinant of a real antisymmetric matrix: exactly zero at odd sizes, LU (``_lu_det``) at even ones."""
    a, scale = _checked_real(k, SYMMETRY_TOL, sign=-1.0)
    if a.shape[0] % 2 == 1:
        return 0.0
    return _lu_det(a, scale)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian (or real symmetric) matrix."""
    a = np.asarray(m)
    if np.isrealobj(a):
        return float(np.linalg.eigvalsh(_checked_real(a, 1e-11)[0])[0])
    h = as_complex_matrix(a)
    require_hermitian(h)
    return float(np.linalg.eigvalsh(h)[0])


def numeric_rank(vectors: Sequence[np.ndarray] | np.ndarray, floor: float = 0.0) -> int:
    """Number of singular values above ``RANK_TOL`` times the largest one.

    A purely relative threshold calls a stack of rounding-noise rows full
    rank, since the noise is compared only against itself.  Callers that
    know the scale the rows were produced at can pass ``floor`` (an absolute
    singular value below which a direction counts as zero).
    """
    if floor < 0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(RANK_TOL * s[0], floor)))
