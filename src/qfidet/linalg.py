"""Dense Hermitian linear algebra at desk scale (n <= 16 or so).

Matrices are plain complex128 ndarrays.  Eigensystems come from LAPACK
(``np.linalg.eigh`` and ``eigvalsh``).  Real symmetric matrices up to 3x3 take
closed-form eigenvalues on plain floats instead, and determinants of symmetric
and antisymmetric matrices are products of eigenvalues.
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
    "real_symmetric_eigenvalues",
    "det_real_symmetric",
    "det_symmetric_rows",
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


def _det3(m: list) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _closed_form_eigenvalues(rows: list) -> list:
    """Ascending eigenvalues of a 1x1 to 3x3 real symmetric matrix given as
    nested lists of floats.

    Plain floats, because numpy scalars cost more than the arithmetic at this
    size.  Sums run left to right.  Diagonal offsets are squared as x * x and
    off-diagonal entries with ** 2 (libm pow); the two can differ in the last
    bit, and every determinant in a report depends on which one each term uses.
    """
    n = len(rows)
    if n == 1:
        return [rows[0][0]]
    if n == 2:
        (a, b), (_, d) = rows
        half = 0.5 * (a + d)
        spread = math.hypot(0.5 * (a - d), b)
        return [half - spread, half + spread]
    p1 = rows[0][1] ** 2 + rows[0][2] ** 2 + rows[1][2] ** 2
    d0, d1, d2 = rows[0][0], rows[1][1], rows[2][2]
    if p1 == 0.0:
        return sorted((d0, d1, d2))
    q = (d0 + d1 + d2) / 3.0
    p2 = (d0 - q) * (d0 - q) + (d1 - q) * (d1 - q) + (d2 - q) * (d2 - q) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = [[(x - q * (i == j)) / p for j, x in enumerate(row)] for i, row in enumerate(rows)]
    r = _det3(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    big = q + 2.0 * p * math.cos(phi)
    small = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    mid = 3.0 * q - big - small
    return sorted((small, mid, big))


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


def real_symmetric_eigenvalues(m, tol: float = 1e-12) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix.

    Closed forms up to 3x3, LAPACK ``eigvalsh`` of the symmetric part above.
    Input that is not square, not finite or not symmetric within ``tol``
    raises ValueError, with the messages of ``det_real_symmetric``.
    """
    a = _checked_real(m, tol)
    if 1 <= a.shape[0] <= 3:
        return np.array(_closed_form_eigenvalues(a.tolist()))
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def det_symmetric_rows(rows: list, tol: float = 1e-12) -> float:
    """Determinant of a 1x1 to 3x3 real symmetric matrix given as nested lists of floats.

    The same checks and closed-form eigenvalues, and so the same bits, as
    ``det_real_symmetric`` on the matrix as an array.
    """
    n = len(rows)
    scale = max(1.0, max(abs(x) for row in rows for x in row))
    asym = max(abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(n))
    if not asym <= tol * scale:
        _entry_scale(np.array(rows))
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    det = math.prod(_closed_form_eigenvalues(rows))
    if not math.isfinite(det):
        _entry_scale(np.array(rows))  # Python's max can pass over a NaN above
    return det


def det_real_symmetric(m, tol: float = 1e-12) -> float:
    """Determinant of a real symmetric matrix as the product of its eigenvalues."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 2 and 1 <= a.shape[0] == a.shape[1] <= 3:
        return det_symmetric_rows(a.tolist(), tol)
    return float(np.prod(real_symmetric_eigenvalues(a, tol)))


def det_antisymmetric(k, tol: float = 1e-12) -> float:
    """Determinant of a real antisymmetric matrix via the Hermitian matrix iK.

    Eigenvalues of K are -i times those of iK, so det K = (-i)^n prod(mu);
    the imaginary residue vanishes and odd sizes land on zero.
    """
    a = _checked_real(k, tol, sign=-1.0)
    n = a.shape[0]
    if n % 2 == 1:
        return 0.0
    mu = np.linalg.eigvalsh(1j * a)
    return float((((-1j) ** n) * np.prod(mu)).real)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian (or real symmetric) matrix."""
    a = np.asarray(m)
    if np.isrealobj(a):
        return float(real_symmetric_eigenvalues(a, tol=1e-11)[0])
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
