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
from itertools import chain
from typing import Sequence

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
    "density_stack",
    "observable",
    "observable_stack",
    "eigenframe",
    "eigenframe_stack",
    "random_density",
    "random_density_stack",
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


def density(matrix) -> DensityMatrix:
    """Validate and wrap a state: ``density_stack`` of a block of one."""
    m, values, vectors = density_stack(as_complex_matrix(matrix, label="state")[None], None)
    return DensityMatrix(m[0], EigenDecomposition(values[0], vectors[0]))


def density_stack(matrices: np.ndarray, eigen: EigenDecomposition | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a (B, n, n) stack of states; return their Hermitian parts, eigenvalues and eigenvectors.

    Each matrix must be of trace one within ``_TRACE_TOL`` and its least
    eigenvalue must reach ``POSITIVITY_FLOOR``.  For ``eigen`` None each must
    be finite and Hermitian too, and one ``np.linalg.eigh`` of the stack takes
    them; supplied ones (``random_density_stack``'s, of states exactly Hermitian
    and checked by ``hermitian_eigen``) must reconstruct their matrices.  The
    first that fails raises the ``ValueError`` ``density`` raises for it alone.
    """
    if eigen is None:
        require_hermitian(matrices, label="state")
        m = hermitian_part(matrices)
        # m is exactly Hermitian now, so LAPACK needs no second check
        values, vectors = np.linalg.eigh(m)
    else:
        m, values, vectors = matrices, eigen.eigenvalues, eigen.unitary
        residual = frobenius(eigen.reconstruct() - m)
        wrong = residual > 1e-11 * np.maximum(1.0, frobenius(m))
        if wrong.any():
            raise ValueError(
                f"supplied eigendecomposition does not match the state (residual {residual[np.argmax(wrong)]:.3e})"
            )
    tr = np.trace(m, axis1=-2, axis2=-1).real
    wrong = np.abs(tr - 1.0) > _TRACE_TOL
    if wrong.any():
        raise ValueError(f"state trace is {float(tr[np.argmax(wrong)])!r}, expected 1 within {_TRACE_TOL:g}")
    _require_positive(values)
    return m, values, vectors


def _require_positive(values: np.ndarray) -> None:
    """Raise for the first of a (B, n) stack of ascending spectra whose least one is below ``POSITIVITY_FLOOR``."""
    wrong = values[:, 0] < POSITIVITY_FLOOR
    if wrong.any():
        least = values[np.argmax(wrong), 0]
        raise ValueError(f"state is not strictly positive: min eigenvalue {least:.3e} is below the floor {POSITIVITY_FLOOR:g}")


def observable(matrix) -> np.ndarray:
    """Validate a Hermitian observable and return it as a complex array."""
    m = as_complex_matrix(matrix, label="observable")
    require_hermitian(m, label="observable")
    return hermitian_part(m)


def _centered(states: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """obs - Tr(D obs) I, for states D and observables that broadcast against each other."""
    expectation = np.trace(states @ obs, axis1=-2, axis2=-1).real
    return obs - expectation[..., None, None] * np.eye(obs.shape[-1])


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


def observable_stack(shape: tuple, obs: Sequence) -> np.ndarray:
    """The observables ``obs`` as one complex (N, n, n) stack, once there is one and each has
    the state's ``shape``."""
    if not len(obs):
        raise ValueError("eigenframe needs at least one observable")
    for k, a in enumerate(obs):
        if np.shape(a) != shape:
            raise ValueError(f"observable {k} has shape {np.shape(a)}, state has shape {shape}")
    return np.array(obs, dtype=complex)


def eigenframe(d: DensityMatrix, obs: Sequence[np.ndarray]) -> EigenFrame:
    """Center every observable and rotate it into the eigenbasis of ``d``: ``eigenframe_stack``
    of a block of one."""
    state = (d.matrix[None], d.eigen.eigenvalues[None], d.eigen.unitary[None])
    frame = eigenframe_stack(state, observable_stack(d.matrix.shape, obs)[None])
    return EigenFrame(frame.lambdas[0], frame.observables[0], frame.norms[0])


def eigenframe_stack(states: tuple, obs: np.ndarray) -> EigenFrame:
    """The stacked frame of B states, given as ``density_stack`` returns them, and their
    (B, N, n, n) observables: all centered and rotated in one stacked matmul.

    Every operation acts on one matrix at a time (the BLAS products, and the
    norms through ``frobenius``), so each frame has the bits it has alone.  An
    observable whose rotated diagonal does not average to zero over the
    spectrum raises ``ValueError`` naming it, for the first such instance.
    """
    matrices, lambdas, u = states
    u = u[:, None]
    rotated = hermitian_part(np.swapaxes(u.conj(), -1, -2) @ _centered(matrices[:, None], obs) @ u)
    residue = np.abs(np.sum(lambdas[:, None, :] * np.diagonal(rotated, axis1=-2, axis2=-1).real, axis=-1))
    norms = frobenius(rotated)
    wrong = residue > 1e-11 * np.maximum(1.0, norms)
    if wrong.any():
        _, k = np.unravel_index(np.argmax(wrong), wrong.shape)
        raise ValueError(f"observable {k}: centering residue {residue.flat[np.argmax(wrong)]:.3e} after rotation")
    rotated.flags.writeable = False
    return EigenFrame(lambdas, rotated, norms)


def _draw_gaussians(rng: np.random.Generator, n: int, count: int, kind: str) -> tuple:
    """What a drawn state and its observables take from ``rng`` first: ``count`` complex Gaussian
    n x n matrices from one ``standard_normal`` call, as a (count, 2, n, n) array of each one's real
    then imaginary parts, then the eigenvalue pair that a degenerate state merges (else None)."""
    if not 2 <= n <= 16:
        raise ValueError(f"dimension must be in [2, 16], got {n}")
    if kind not in STATE_KINDS:
        raise ValueError(f"kind must be one of {STATE_KINDS}, got {kind!r}")
    x = rng.standard_normal((count, 2, n, n))
    return x, tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) if kind == "degenerate" else None


def random_density(n: int, seed: int, kind: str = "generic") -> DensityMatrix:
    """Draw a state of the requested kind, deterministic per (n, seed, kind).

    generic: normalized G G† with G standard complex Gaussian.
    degenerate: generic spectrum with one uniformly chosen eigenvalue pair
    replaced by its average.
    near-singular: smallest eigenvalue forced down to 1e-8.
    The state is ``random_density_stack`` of a block of one.
    """
    x, pair = _draw_gaussians(np.random.default_rng(derive_seed("density", n, seed, kind)), n, 1, kind)
    m, values, vectors = random_density_stack(x, (kind,), (pair,))
    return DensityMatrix(m[0], EigenDecomposition(values[0], vectors[0]))


def random_density_stack(x: np.ndarray, kinds: Sequence[str], pairs: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states of B drawn Gaussians ``x`` of shape (B, 2, n, n), with their ``kinds`` and
    ``pairs`` (``_draw_gaussians``'s), as ``density_stack`` returns them.

    One stacked G G† / Tr (a BLAS product per matrix, so each state has the
    bits it has alone), one ``hermitian_eigen`` call over all of them, then one
    stacked edit of the degenerate and near-singular spectra: renormalized,
    sorted, and rebuilt into their matrices.  ``density_stack`` then checks
    every state against its decomposition, and not a second time for Hermiticity.
    """
    g = x[:, 0] + 1j * x[:, 1]
    m = hermitian_part(g @ np.swapaxes(g.conj(), -1, -2))
    m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    eigen = hermitian_eigen(np.moveaxis(m, 0, -1))  # a drawn matrix is exactly Hermitian
    values, vectors = eigen.eigenvalues, eigen.unitary
    edited = [k for k, kind in enumerate(kinds) if kind != "generic"]
    if edited:
        # a degenerate state averages its pair (i, j), a near-singular one sets (0, 0) to 1e-8
        lam, rows = values[edited], np.arange(len(edited))
        i, j = np.array([pairs[k] or (0, 0) for k in edited]).T
        singular = np.array([kinds[k] == "near-singular" for k in edited])
        lam[rows, i] = lam[rows, j] = np.where(singular, 1e-8, 0.5 * (lam[rows, i] + lam[rows, j]))
        lam /= lam.sum(axis=-1, keepdims=True)
        order = np.argsort(lam, axis=-1, kind="stable")
        lam = np.take_along_axis(lam, order, axis=-1)
        u = np.take_along_axis(vectors[edited], order[:, None, :], axis=-1)
        m[edited] = hermitian_part(EigenDecomposition(lam, u).reconstruct())
        values[edited], vectors[edited] = lam, u
    return density_stack(m, EigenDecomposition(values, vectors))


def _unit_observables(x: np.ndarray) -> np.ndarray:
    """The Hermitian parts of drawn Gaussians, ``x`` of shape (..., 2, n, n), each divided by its
    Frobenius norm (``frobenius``'s, so each has the bits it has alone)."""
    h = hermitian_part(x[..., 0, :, :] + 1j * x[..., 1, :, :])
    return h / frobenius(h)[..., None, None]


def random_observable(n: int, seed: int) -> np.ndarray:
    """Hermitian part of a complex Gaussian matrix, unit Frobenius norm."""
    x, _ = _draw_gaussians(np.random.default_rng(derive_seed("observable", n, seed)), n, 1, "generic")
    return _unit_observables(x)[0]


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


def pinching(x: np.ndarray, partition) -> np.ndarray:
    """Block-diagonal truncation sum(P_i x P_i) over coordinate projections: of a matrix for one
    partition, or of a stack (B, ..., n, n) for B partitions, one per leading index, by one mask.

    The simplest completely positive trace-preserving map that is not a
    unitary conjugation; used to exercise monotonicity under coarse-graining.
    The first partition that is not one of range(n) raises ValueError.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    owner = []  # per partition, the block number of each index
    for part in [partition] if x.ndim == 2 else partition:
        blocks = [sorted(map(int, block)) for block in part]
        if sorted(chain.from_iterable(blocks)) != list(range(n)):
            raise ValueError(f"partition {blocks!r} does not partition range({n})")
        owner.append([k for _, k in sorted((i, k) for k, block in enumerate(blocks) for i in block)])
    owner = np.array(owner, dtype=int).reshape(-1, n)
    mask = owner[:, :, None] == owner[:, None, :]
    return np.where(mask[0] if x.ndim == 2 else mask.reshape(-1, *(1,) * (x.ndim - 3), n, n), x, 0.0)


def random_partition(n: int, seed: int) -> list[list[int]]:
    """A uniformly shuffled partition of range(n) into 1..n contiguous chunks, from its own generator."""
    return _draw_partition(np.random.default_rng(derive_seed("partition", n, seed)), n)


def _draw_partition(rng: np.random.Generator, n: int) -> list[list[int]]:
    """A shuffle of range(n), a chunk count k in 1..n, then k - 1 distinct cuts of 1..n-1 with the
    bits of ``rng.choice(np.arange(1, n), ...)``, all from ``rng``; the chunks between, each sorted."""
    perm, k = rng.permutation(n).tolist(), int(rng.integers(1, n + 1))
    bounds = [0, *sorted((rng.choice(n - 1, size=k - 1, replace=False) + 1).tolist() if k > 1 else []), n]
    return [sorted(perm[a:b]) for a, b in zip(bounds, bounds[1:])]
