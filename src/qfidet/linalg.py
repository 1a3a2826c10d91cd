"""Dense Hermitian linear algebra at desk scale (n <= 16 or so).

Matrices are plain complex128 ndarrays.  The eigensolver is a cyclic Jacobi
iteration written here so that the sweep order can be shuffled (useful for
probing basis freedom inside degenerate eigenspaces) and so that determinants
of near-singular symmetric matrices come from an eigenvalue product rather
than an LU factorization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConvergenceError",
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

MAX_SWEEPS = 100
OFFDIAG_THRESHOLD = 1e-14  # times the Frobenius norm of the input


class ConvergenceError(RuntimeError):
    """The Jacobi iteration did not reach its off-diagonal threshold."""


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


def _offdiag_norm_sq(a: np.ndarray) -> float:
    sq = np.abs(a) ** 2
    np.fill_diagonal(sq, 0.0)
    return float(sq.sum())


@lru_cache(maxsize=32)
def _rotation_table(n: int) -> tuple:
    """(p, q, read-only index array [p, q]) for every rotation of an n x n sweep, in cyclic order."""
    table = tuple((p, q, np.array([p, q])) for p in range(n - 1) for q in range(p + 1, n))
    for _, _, pq in table:
        pq.flags.writeable = False
    return table


def _jacobi(h, sweep_seed: int | None, max_sweeps: int, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues of a Hermitian matrix, with the unitary only when ``vectors``.

    The rotations of ``a`` do not read the unitary, so the eigenvalues are the
    same bits with or without it.
    """
    a = as_complex_matrix(h).copy()
    require_hermitian(a)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=complex) if vectors else None
    norm = frobenius(a)
    threshold = OFFDIAG_THRESHOLD * norm
    # rotations on entries already below this cutoff cannot matter for the
    # sweep-level stopping rule
    skip = threshold / math.sqrt(max(n * (n - 1), 1))
    u = np.eye(n, dtype=complex) if vectors else None
    table = _rotation_table(n)
    rng = np.random.default_rng(sweep_seed) if sweep_seed is not None else None

    converged = _offdiag_norm_sq(a) <= threshold**2
    for _ in range(max_sweeps):
        if converged:
            break
        order = table if rng is None else [table[i] for i in rng.permutation(len(table))]
        for p, q, pq in order:
            apq = a[p, q]
            r = abs(apq)
            if r <= skip:
                continue
            app = a[p, p].real
            aqq = a[q, q].real
            phase = apq / r
            theta = 0.5 * math.atan2(2.0 * r, aqq - app)
            c = math.cos(theta)
            s = math.sin(theta)
            v = np.array([[c * phase, s * phase], [-s, c]], dtype=complex)
            a[:, pq] = a[:, pq] @ v
            a[pq, :] = v.conj().T @ a[pq, :]
            a[p, q] = 0.0
            a[q, p] = 0.0
            if vectors:
                u[:, pq] = u[:, pq] @ v
        converged = _offdiag_norm_sq(a) <= threshold**2
    else:
        if not converged:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {math.sqrt(_offdiag_norm_sq(a)):.3e}, "
                f"threshold {threshold:.3e})"
            )
    values = np.diagonal(a).real.copy()
    idx = np.argsort(values, kind="stable")
    return values[idx], u[:, idx] if vectors else None


def _eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, the bits ``hermitian_eigen`` gives."""
    return _jacobi(h, None, MAX_SWEEPS, vectors=False)[0]


def hermitian_eigen(
    h,
    *,
    sweep_seed: int | None = None,
    max_sweeps: int = MAX_SWEEPS,
) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    ``sweep_seed`` shuffles the rotation order of each sweep; any seed gives a
    valid decomposition, but degenerate eigenspaces may come out in a
    different internal basis.  Convergence is declared when the off-diagonal
    Frobenius norm drops below 1e-14 times the input norm.
    """
    values, unitary = _jacobi(h, sweep_seed, max_sweeps, vectors=True)
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


def real_symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix.

    Closed forms for n <= 3, Jacobi above that.
    """
    a = np.asarray(m, dtype=float)
    if 1 <= a.shape[0] <= 3:
        return np.array(_closed_form_eigenvalues(a.tolist()))
    return _eigenvalues(0.5 * (a + a.T))


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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if 1 <= a.shape[0] <= 3:
        return det_symmetric_rows(a.tolist(), tol)
    scale = _entry_scale(a)
    asym = float(np.abs(a - a.T).max(initial=0.0))
    if not asym <= tol * scale:
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    return float(np.prod(real_symmetric_eigenvalues(a)))


def det_antisymmetric(k, tol: float = 1e-12) -> float:
    """Determinant of a real antisymmetric matrix via the Hermitian matrix iK.

    Eigenvalues of K are -i times those of iK, so det K = (-i)^n prod(mu);
    the imaginary residue vanishes and odd sizes land on zero.
    """
    a = np.asarray(k, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = _entry_scale(a)
    asym = float(np.abs(a + a.T).max(initial=0.0))
    if not asym <= tol * scale:
        raise ValueError(f"matrix is not antisymmetric (max |M + M^T| = {asym:.3e})")
    n = a.shape[0]
    if n % 2 == 1:
        return 0.0
    mu = _eigenvalues(1j * a)
    return float((((-1j) ** n) * np.prod(mu)).real)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian (or real symmetric) matrix."""
    a = np.asarray(m)
    if np.isrealobj(a):
        af = np.asarray(a, dtype=float)
        if af.ndim != 2 or af.shape[0] != af.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {af.shape}")
        scale = _entry_scale(af)
        if float(np.abs(af - af.T).max(initial=0.0)) <= 1e-11 * scale:
            return float(real_symmetric_eigenvalues(0.5 * (af + af.T))[0])
    return float(_eigenvalues(a)[0])


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
