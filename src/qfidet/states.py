"""States, observables, and the shared eigenbasis frame.

A state here is a strictly positive density matrix; strict positivity (rather
than mere positive semidefiniteness) is what keeps every downstream division
by a matrix mean well defined.  Observables are plain Hermitian arrays.  The
frame bundles the state's spectrum with all observables centered and rotated
into the state's eigenbasis, which is the one intermediate every covariance
formula shares.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    RANK_TOL,
    EigenDecomposition,
    as_complex_matrix,
    frobenius,
    hermitian_eigen,
    hermitian_part,
    numeric_rank,
    require_hermitian,
)

__all__ = [
    "POSITIVITY_FLOOR",
    "STATE_KINDS",
    "DensityMatrix",
    "EigenFrame",
    "DependenceReport",
    "density",
    "observable",
    "centered",
    "eigenframe",
    "random_density",
    "random_observable",
    "derive_seed",
    "offdiagonal_dependence",
    "pinching",
    "random_partition",
]

# smallest admissible eigenvalue of a state; keeps 1/mean(lambda_h, lambda_j)
# below 1e10 so worst-case metric terms retain five significant digits
POSITIVITY_FLOOR = 1e-10

_TRACE_TOL = 1e-12
STATE_KINDS = ("generic", "degenerate", "near-singular")


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from any printable parts, stable across runs."""
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A strictly positive trace-one Hermitian matrix with its spectrum cached."""

    matrix: np.ndarray
    eigen: EigenDecomposition

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigen.eigenvalues


def density(matrix, *, eigen: EigenDecomposition | None = None) -> DensityMatrix:
    """Validate and wrap a state.

    A precomputed eigendecomposition may be supplied (the random generators
    do this after editing a spectrum); it is accepted only if it reconstructs
    the matrix.
    """
    m = as_complex_matrix(matrix, label="state")
    require_hermitian(m, label="state")
    m = hermitian_part(m)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"state trace is {tr!r}, expected 1 within {_TRACE_TOL:g}")
    if eigen is None:
        # m is exactly Hermitian now, so LAPACK needs no second check
        eigen = EigenDecomposition(*np.linalg.eigh(m))
    else:
        residual = frobenius(eigen.reconstruct() - m)
        if residual > 1e-11 * max(1.0, frobenius(m)):
            raise ValueError(f"supplied eigendecomposition does not match the state (residual {residual:.3e})")
    smallest = float(eigen.eigenvalues[0])
    if smallest < POSITIVITY_FLOOR:
        raise ValueError(
            f"state is not strictly positive: min eigenvalue {smallest:.3e} "
            f"is below the floor {POSITIVITY_FLOOR:g}"
        )
    return DensityMatrix(m, eigen)


def observable(matrix) -> np.ndarray:
    """Validate a Hermitian observable and return it as a complex array."""
    m = as_complex_matrix(matrix, label="observable")
    require_hermitian(m, label="observable")
    return hermitian_part(m)


def centered(d: DensityMatrix, a: np.ndarray) -> np.ndarray:
    """Subtract the state expectation: a - Tr(d a) * identity."""
    if a.shape != d.matrix.shape:
        raise ValueError(f"observable shape {a.shape} does not match state shape {d.matrix.shape}")
    expectation = float(np.trace(d.matrix @ a).real)
    return a - expectation * np.eye(d.dim)


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Spectrum of a state plus all observables centered and rotated into its eigenbasis.

    ``observables`` is one read-only (N, n, n) array: ``observables[k, h, j]``
    is the (h, j) entry of U† (A_k - Tr(D A_k) I) U where
    D = U diag(lambdas) U†, and ``norms`` their Frobenius norms.  The double sums
    behind every covariance formula read their inputs from here.  A block stacks
    frames along a leading axis, and the assemblers then return stacks.
    """

    lambdas: np.ndarray
    observables: np.ndarray
    norms: np.ndarray

    @property
    def dim(self) -> int:
        return self.lambdas.shape[-1]

    @property
    def size(self) -> int:
        return self.observables.shape[-3]


def eigenframe(d: DensityMatrix, obs: Sequence[np.ndarray]) -> EigenFrame:
    """Center every observable and rotate it into the eigenbasis of ``d``."""
    if not obs:
        raise ValueError("eigenframe needs at least one observable")
    u = d.eigen.unitary
    lambdas = d.eigen.eigenvalues
    rotated = np.empty((len(obs),) + d.matrix.shape, dtype=complex)
    norms = np.empty(len(obs))
    for k, a in enumerate(obs):
        if a.shape != d.matrix.shape:
            raise ValueError(
                f"observable {k} has shape {a.shape}, state has shape {d.matrix.shape}"
            )
        checked = hermitian_part(u.conj().T @ centered(d, a) @ u)
        residue = abs(float(np.sum(lambdas * checked.diagonal().real)))
        norms[k] = frobenius(checked)
        if residue > 1e-11 * max(1.0, norms[k]):
            raise ValueError(f"observable {k}: centering residue {residue:.3e} after rotation")
        rotated[k] = checked
    rotated.flags.writeable = False
    return EigenFrame(lambdas, rotated, norms)


def random_density(n: int, seed: int, kind: str = "generic") -> DensityMatrix:
    """Draw a state of the requested kind, deterministic per (n, seed, kind).

    generic: normalized G G† with G standard complex Gaussian.
    degenerate: generic spectrum with one uniformly chosen eigenvalue pair
    replaced by its average.
    near-singular: smallest eigenvalue forced down to 1e-8.
    """
    if not 2 <= n <= 16:
        raise ValueError(f"dimension must be in [2, 16], got {n}")
    if kind not in STATE_KINDS:
        raise ValueError(f"kind must be one of {STATE_KINDS}, got {kind!r}")
    rng = np.random.default_rng(derive_seed("density", n, seed, kind))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = hermitian_part(g @ g.conj().T)
    m /= np.trace(m).real
    if kind == "generic":
        return density(m)
    eig = hermitian_eigen(m)
    lam = eig.eigenvalues.copy()
    if kind == "degenerate":
        i, j = sorted(rng.choice(n, size=2, replace=False))
        lam[i] = lam[j] = 0.5 * (lam[i] + lam[j])
    else:
        lam[0] = 1e-8
    lam /= lam.sum()
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    u = eig.unitary[:, order]
    rebuilt = hermitian_part((u * lam) @ u.conj().T)
    return density(rebuilt, eigen=EigenDecomposition(lam, u))


def random_observable(n: int, seed: int) -> np.ndarray:
    """Hermitian part of a complex Gaussian matrix, unit Frobenius norm."""
    if not 2 <= n <= 16:
        raise ValueError(f"dimension must be in [2, 16], got {n}")
    rng = np.random.default_rng(derive_seed("observable", n, seed))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = hermitian_part(g)
    return h / frobenius(h)


@dataclass(frozen=True)
class DependenceReport:
    dependent: bool | np.ndarray
    rank: int | np.ndarray


def offdiagonal_dependence(frame: EigenFrame) -> DependenceReport:
    """Can some real combination of the frame's observables be made diagonal?

    Each rotated observable is flattened to the real vector of its strictly
    upper-triangular entries (real parts then imaginary parts; the lower
    triangle is redundant by Hermiticity).  A combination is diagonal exactly
    when it kills all these vectors, so dependence is a rank deficiency (arrays
    of them for a stacked frame, from one batched SVD).
    """
    h, j = np.triu_indices(frame.dim, k=1)
    upper = frame.observables[..., h, j]
    vectors = np.concatenate((upper.real, upper.imag), axis=-1)
    # An observable diagonal in the eigenbasis leaves rounding noise in its
    # off-diagonal entries whenever the basis itself was computed; measure
    # that noise against the observables, not against itself.
    scale = np.maximum(1.0, frame.norms.max(axis=-1))
    rank = numeric_rank(vectors, floor=RANK_TOL * scale)
    return DependenceReport(dependent=rank < frame.size, rank=rank)


def pinching(x: np.ndarray, partition: Sequence[Iterable[int]]) -> np.ndarray:
    """Block-diagonal truncation sum(P_i x P_i) over coordinate projections (of each of a stack).

    The simplest completely positive trace-preserving map that is not a
    unitary conjugation; used to exercise monotonicity under coarse-graining.
    """
    n = x.shape[-1]
    blocks = [sorted(int(i) for i in block) for block in partition]
    flat = sorted(i for block in blocks for i in block)
    if flat != list(range(n)):
        raise ValueError(f"partition {blocks!r} does not partition range({n})")
    owner = np.empty(n, dtype=int)
    for k, block in enumerate(blocks):
        owner[block] = k
    return np.where(owner[:, None] == owner[None, :], np.asarray(x, dtype=complex), 0.0)


def random_partition(n: int, seed: int) -> list[list[int]]:
    """A uniformly shuffled partition of range(n) into 1..n contiguous chunks."""
    rng = np.random.default_rng(derive_seed("partition", n, seed))
    perm = rng.permutation(n)
    k = int(rng.integers(1, n + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
    out = []
    start = 0
    for cut in list(cuts) + [n]:
        out.append(sorted(int(i) for i in perm[start:cut]))
        start = cut
    return out
