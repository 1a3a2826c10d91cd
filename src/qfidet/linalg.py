"""Dense Hermitian linear algebra at desk scale (n <= 16 or so).

Matrices are plain complex128 ndarrays.  The norms, the eigensolver, the
determinants and the ranks take stacks only, as a block evaluates them: one
matrix is a stack of one.  ``hermitian_eigen`` is the package's one caller of
LAPACK's eigensolver (``np.linalg.eigh``).  Determinants are taken directly: by
cofactor expansion up to 3x3 and by LU above.  ``require_hermitian`` judges a
matrix from outside, once, at its door; the kernels check only a stack's shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "as_complex_matrix",
    "hermitian_part",
    "require_hermitian",
    "frobenius",
    "hermitian_eigen",
    "det_real_symmetric",
    "det_antisymmetric",
    "numeric_rank",
    "SYMMETRY_TOL",
    "RANK_TOL",
]

# largest |M - M^H| that require_hermitian accepts, relative to max(1, the largest entry)
SYMMETRY_TOL = 1e-12
# singular values at or below this fraction of the largest one count as zero
RANK_TOL = 1e-9


def as_complex_matrix(a, label: str) -> np.ndarray:
    """Coerce to a square complex128 array of at least one entry."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        empty = "non-empty " if m.shape == (0, 0) else ""
        raise ValueError(f"{label}: expected a {empty}square matrix, got shape {m.shape}")
    return m


def hermitian_part(a) -> np.ndarray:
    """(A + A^dagger) / 2, of each of a stack (..., n, n) too."""
    m = np.asarray(a, dtype=complex)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def frobenius(a):
    """The array of Frobenius norms of a stack (..., n, n) of matrices.

    Each norm has the bits of ``np.linalg.norm`` of its matrix alone: the BLAS
    dot of the real parts with themselves plus that of the imaginary parts,
    from one matmul of row vectors over the stack.  A plain sum of squares
    rounds differently.
    """
    m = np.asarray(a)
    if m.ndim < 3:
        raise ValueError(f"expected a stack (..., n, n) of matrices, got shape {m.shape}")
    flat = m.reshape(*m.shape[:-2], 1, -1)
    parts = (flat.real, flat.imag) if flat.dtype.kind == "c" else (flat,)
    return np.sqrt(sum(p @ p.swapaxes(-1, -2) for p in parts))[..., 0, 0]


def require_hermitian(m: np.ndarray, label: str) -> None:
    """Raise ValueError, as ``label``, if ``m``, one matrix or a stack (..., n, n), is not finite or not
    Hermitian (symmetric, if real) within ``SYMMETRY_TOL`` times max(1, its largest entry); for a stack, for
    its first such matrix, from one test of all: its first non-finite entry, else its largest gap."""
    s = m.reshape(-1, *m.shape[-2:])
    largest = np.abs(s).max(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, and overflowing differences
        delta = np.abs(s - s.swapaxes(1, 2).conj())
        bad = ~((delta.max(axis=(1, 2)) <= SYMMETRY_TOL * np.maximum(1.0, largest)) & np.isfinite(largest))
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if not np.isfinite(s[k]).all():
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(s[k]))[0])
        raise ValueError(f"{label}: non-finite entry {where} = {s[k][where]}")
    h, j = np.unravel_index(int(np.argmax(delta[k])), s.shape[1:])
    if s.dtype.kind == "c":
        what, mirrored = "Hermitian", f"conjugate of ({j},{h}) = {np.conj(s[k, j, h])}"
    else:
        what, mirrored = "symmetric", f"({j},{h}) = {s[k, j, h]}"
    raise ValueError(f"{label}: not {what}, entry ({h},{j}) = {s[k, h, j]} vs {mirrored}")


def _stack(m, dtype) -> np.ndarray:
    """An (n, n, K) stack ``m`` of K square matrices, n >= 1, as a ``dtype`` array; otherwise ValueError."""
    s = np.asarray(m, dtype=dtype)
    if s.ndim != 3 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise ValueError(f"expected an (n, n, K) stack of square matrices, got shape {s.shape}")
    return s


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending real eigenvalues and a unitary whose columns are eigenvectors."""

    eigenvalues: np.ndarray
    unitary: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """U diag(eigenvalues) U^dagger, of each of a stack too."""
        u = self.unitary
        return (u * np.asarray(self.eigenvalues)[..., None, :]) @ u.conj().swapaxes(-1, -2)


def hermitian_eigen(h) -> EigenDecomposition:
    """Eigendecompositions of an (n, n, K) stack of K finite Hermitian matrices, as their callers build
    or judge them, by LAPACK (``np.linalg.eigh``), from one call; ``len(h)`` is n.

    The stack runs along the last axis, as in ``det_real_symmetric``; its K
    eigenvalue rows and unitaries come back stacked along a leading axis,
    each with the bits of its matrix's decomposition alone.  Inside a
    degenerate eigenspace the basis is whichever one LAPACK returns.
    """
    values, unitary = np.linalg.eigh(_stack(h, complex).transpose(2, 0, 1))
    return EigenDecomposition(eigenvalues=values, unitary=unitary)


def _finite(dets: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The determinants of the stack ``s`` once all are finite: one that is not is taken again by
    LU (a cofactor product can overflow where it does not), else OverflowError."""
    finite = np.isfinite(dets)
    if not finite.all():
        with np.errstate(over="ignore", invalid="ignore"):
            dets = np.where(finite, dets, np.linalg.det(s.transpose(2, 0, 1)))
        finite = np.isfinite(dets)
    if not finite.all():
        largest = np.abs(s[:, :, int(np.argmin(finite))]).max()
        raise OverflowError(f"determinant of finite entries up to {largest:.3e} overflows the float range")
    return dets


def det_real_symmetric(m):
    """The K determinants of an (n, n, K) stack ``m`` of real symmetric matrices; ``len(m)`` is n.

    The stack runs along the last axis, so that ``m[i, j]`` holds entry (i, j)
    of every matrix.  Up to 3x3 by cofactor expansion on those entries (the
    same operations in the same order for each matrix, so a determinant does
    not depend on the stack it is taken in), LU (``np.linalg.det``) above.
    numpy forms the LU determinant as the exp of a sum of logs, so its
    relative error grows with |log det|.
    Each matrix must be finite and symmetric (its callers build or judge it
    so).  Input that is not such a stack (one matrix too) raises ValueError; a
    determinant of finite entries that overflows raises OverflowError.
    """
    s = _stack(m, float)
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(s.transpose(2, 0, 1)) if len(s) > 3 else _cofactor_det(s)
    return _finite(dets, s)


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


def det_antisymmetric(k):
    """The K determinants of an (n, n, K) stack ``k`` of finite real antisymmetric matrices, as their
    callers build them: exactly zero at odd n, LU (``np.linalg.det``, one matrix at a time) at even n,
    and OverflowError for a determinant of finite entries that overflows."""
    s = _stack(k, float)
    if len(s) % 2 == 1:
        dets = np.zeros(s.shape[2])
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            dets = np.linalg.det(s.transpose(2, 0, 1))
    return _finite(dets, s)


def numeric_rank(vectors, floor) -> np.ndarray:
    """The ranks of a (B, rows, cols) stack of B real matrices, from one batched SVD: the number of
    singular values of each above both ``RANK_TOL`` times its largest one and its entry of ``floor``.

    A purely relative threshold calls a matrix of rounding-noise rows full
    rank, since the noise is compared only against itself, so callers pass
    the scale each matrix's rows were produced at as ``floor`` (B absolute
    singular values, or one for all, at or below which a direction counts as
    zero; 0 for none).  Input that is not such a stack (one matrix too)
    raises ValueError, and so does a negative floor.
    """
    rows = np.asarray(vectors, dtype=float)
    if rows.ndim != 3:
        raise ValueError(f"expected a (B, rows, cols) stack of matrices, got shape {rows.shape}")
    floors = np.asarray(floor, dtype=float)
    if not (floors >= 0).all():
        raise ValueError(f"floor must be nonnegative, got {floor}")
    s = np.linalg.svd(rows, compute_uv=False)
    # all-zero rows give s = 0, which no threshold max(0, floor) counts
    return (s > np.maximum(RANK_TOL * s[:, :1], floors[..., None])).sum(axis=-1)
