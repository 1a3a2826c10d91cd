"""Reference computations used only by the test suite.

Two kinds live here.  The independent oracles deliberately avoid the
library's own code paths: exact determinants by elimination in rationals,
exact rational instances (``exact_instance``: a Cayley unitary, a spectrum of
squares and Gaussian-integer observables, with every Gram matrix and
determinant in ``Fraction``), exact replays of drawn instances (``exact_replay``: the stored doubles as
rationals, Cov and the commutator matrix by traces and Qov_sld by one rational Lyapunov solve, with every
determinant in ``Fraction``), the metric through an explicit superoperator matrix in the standard basis,
diagonalized whole by numpy's ``eigh`` instead of through the state's
eigenframe, matrix functions and smallest eigenvalues straight from numpy's
``eigh`` and ``eigvalsh``, the scalar cross terms (``remainder`` and
``remainder_t``) as one sum of Python floats, and the drawn instances rebuilt
one matrix at a time.  The definition routes (``cov``, ``qov``, their entrywise matrices
``cov_matrix`` and ``qov_matrix``, ``robertson_matrix`` and ``commutator``)
follow the paper's formulas: traces of matrix products, and the metric inner
product of the commutators i[D, A].  The program runs none of them; its
eigenframe routes are tested against them.

Library code used here, and what for:

* ``custom_function`` wraps a test's evaluator in the library's
  ``MonotoneFunction`` and runs the library's grid validation on it, so that
  the order check and the catalogue tests can take it like a member.
* ``planted_function`` builds the planted f_c as a ``MonotoneFunction``
  directly: the grid validation rightly refuses it for c > 0.
* ``components_reference`` reads an evaluated instance's memos (its pencil
  rows, determinants and contraction sums) and builds the dict from them, and
  ``instance_views`` reads an instance's state, observables, frame and norms
  from its block's stacks.
* ``skew_product`` and ``luo_u`` read an instance's memos (``matrix(f)``,
  ``matrix("cov")`` and ``det("robertson")``) for both sides of two published
  relatives of the bounds on a family of two.
* The single-matrix forms ``det_one``, ``det_antisymmetric_one``,
  ``eigen_one``, ``frobenius_one``, ``pinching_one``, ``scale_one``,
  ``rank_one`` and ``dependence_one`` call the library's stack-only routines
  on a stack of one and read its one result; ``dependence_one`` also gives the
  rank behind its flag, from ``rank_one``.
* ``pencil_spectra`` reads a block's stacked frame and weighs its observables
  with the library's ``alpha_coefficients``; the pencil determinants then come
  from one thin QR and one ``eigvalsh`` per block, not from the library's
  determinants.
* The definition routes take the library's ``DensityMatrix`` (its matrix,
  and for ``qov`` its eigendecomposition) and ``MonotoneFunction``;
  ``commutator`` coerces with ``as_complex_matrix``; ``qov`` takes Hermitian
  parts with ``hermitian_part`` and sums over the eigenbasis with
  ``pair_means`` and ``metric_sum``, the operations of ``metric_inner``, in
  two steps (``rotated_tangent``, ``qov_rotated``) that a sweep can reuse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from qfidet.covariance import alpha_coefficients, metric_sum, observable_scale, pair_means
from qfidet.linalg import (
    RANK_TOL,
    EigenDecomposition,
    as_complex_matrix,
    det_antisymmetric,
    det_real_symmetric,
    frobenius,
    hermitian_eigen,
    hermitian_part,
    numeric_rank,
)
from qfidet.monotone import MonotoneFunction, _validate_grid
from qfidet.states import DensityMatrix, EigenFrame, offdiagonal_dependence, pinching


def det_exact(m) -> Fraction:
    """Exact determinant of a real matrix's float entries, by Gaussian
    elimination in ``fractions.Fraction``."""
    return det_rational([[Fraction(x) for x in row] for row in np.asarray(m, dtype=float).tolist()])


def det_rational(rows) -> Fraction:
    """Determinant of a square matrix of rationals, given as rows, by Gaussian elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    det = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if a[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, n):
            ratio = a[i][j] / a[j][j]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[j])]
    return det


def det_one(m) -> float:
    """``det_real_symmetric`` of one matrix, as a stack of one."""
    return float(det_real_symmetric(np.asarray(m, dtype=float)[..., None])[0])


def det_antisymmetric_one(k) -> float:
    """``det_antisymmetric`` of one matrix, as a stack of one."""
    return float(det_antisymmetric(np.asarray(k, dtype=float)[..., None])[0])


def eigen_one(h) -> EigenDecomposition:
    """``hermitian_eigen`` of one matrix, as a stack of one."""
    eig = hermitian_eigen(np.asarray(h)[..., None])
    return EigenDecomposition(eig.eigenvalues[0], eig.unitary[0])


def frobenius_one(a) -> float:
    """``frobenius`` of one matrix, as a stack of one."""
    return float(frobenius(np.asarray(a)[None])[0])


def pinching_one(x, partition) -> np.ndarray:
    """``pinching`` of one matrix at one partition, as a stack of one."""
    return pinching(np.asarray(x)[None], [partition])[0]


def scale_one(obs) -> tuple:
    """``observable_scale`` of one family, as a stack of one: its scale and the tuple of its norms."""
    scales, norms = observable_scale(np.asarray(obs)[None])
    return scales[0], tuple(norms[0].tolist())


def rank_one(vectors, floor) -> int:
    """``numeric_rank`` of one matrix of row vectors, as a stack of one; no rows at all have rank 0."""
    return int(numeric_rank(np.atleast_2d(np.asarray(vectors, dtype=float))[None], floor)[0])


def dependence_one(frame) -> tuple[bool, int]:
    """``offdiagonal_dependence`` of one frame, as a stacked frame of one, and the rank behind its flag:
    that of the real and imaginary parts of the observables' strictly upper entries, at the floor
    ``RANK_TOL`` times max(1, the largest frame norm)."""
    stacked = EigenFrame(frame.lambdas[None], frame.observables[None], frame.norms[None])
    h, j = np.triu_indices(frame.dim, k=1)
    upper = frame.observables[:, h, j]
    rank = rank_one(np.concatenate((upper.real, upper.imag), axis=-1), RANK_TOL * max(1.0, float(frame.norms.max())))
    return bool(offdiagonal_dependence(stacked)[0]), rank


def remainder(det_q: float, det_diff: float, n_obs: int) -> float:
    """Binomial cross-term sum between the N-th roots of two determinants.

    Equals ((det_q)^{1/N} + (det_diff)^{1/N})^N minus the two pure terms;
    zero for N = 1 and whenever either determinant vanishes.
    """
    return _cross_terms(_root(det_q, n_obs), _root(det_diff, n_obs), n_obs)


def remainder_t(det_q: float, det_diff: float, n_obs: int, t: float) -> float:
    """Weighted cross terms ((1-t) q^{1/N})^k (t c^{1/N})^{N-k}, k = 1..N-1.

    At t = 1/2 this is exactly 2^{-N} times ``remainder``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return _cross_terms(_root(det_q, n_obs) * (1.0 - t), _root(det_diff, n_obs) * t, n_obs)


def _cross_terms(x: float, y: float, n_obs: int) -> float:
    """C(N,k) x^k y^{N-k} summed over k = 1..N-1 in Python floats, each power by Python's float power."""
    return float(sum(math.comb(n_obs, k) * x**k * y ** (n_obs - k) for k in range(1, n_obs)))


def _root(det: float, n_obs: int) -> float:
    """det^{1/N}, with a roundoff-negative det (down to -1e-12) read as 0."""
    if n_obs < 1:
        raise ValueError(f"observable count must be >= 1, got {n_obs}")
    if det < -1e-12:
        raise ValueError(f"determinant {det!r} is negative beyond roundoff")
    return float(det) ** (1.0 / n_obs) if det > 0.0 else 0.0


def skew_product(inst, f) -> tuple[float, float]:
    """Both sides of the Heisenberg-type product I_f(A) I_f(B) >= 1/4 |Tr D[A, B]|^2 on a family of two.

    The skew informations I_f are the diagonal of the program's ``matrix(f)`` (for ``wy`` the Wigner-Yanase
    skew information Tr(D A^2) - Tr(sqrt(D) A sqrt(D) A)), and 1/4 |Tr D[A, B]|^2 is its ``det("robertson")``.
    """
    q = inst.matrix(f)
    return float(q[0, 0] * q[1, 1]), inst.det("robertson")


def luo_u(inst, f) -> tuple[float, float]:
    """Both sides of Luo's U_f(A) U_f(B) >= 1/4 |Tr D[A, B]|^2 on a family of two, U_f(A)^2 = I_f(A) (2 V(A) -
    I_f(A)): the variances V are the diagonal of the program's ``matrix("cov")``, and I_f and the right side
    are ``skew_product``'s."""
    i, v = np.diagonal(inst.matrix(f)), np.diagonal(inst.matrix("cov"))
    return math.sqrt(float(np.prod(i * (2.0 * v - i)))), inst.det("robertson")


class InstanceViews(NamedTuple):
    """An instance's own slices of its block's stacks."""

    state: DensityMatrix
    observables: tuple
    frame: EigenFrame
    norms: tuple


def instance_views(inst) -> InstanceViews:
    """An instance's state, observables (a tuple of matrices), frame and observable norms (a tuple of
    floats), read from its block's stacks; an instance that no block has built is built alone first."""
    block, k = inst._block, inst._index
    matrices, values, vectors = block.states
    frame = block.frame
    return InstanceViews(
        DensityMatrix(matrices[k], EigenDecomposition(values[k], vectors[k])),
        tuple(block.observables[k]),
        EigenFrame(frame.lambdas[k], frame.observables[k], frame.norms[k]),
        tuple(frame.norms[k].tolist()),
    )


def _vec(x: np.ndarray) -> np.ndarray:
    # column stacking, so that vec(A X B) = (B^T kron A) vec(X)
    return np.asarray(x).reshape(-1, order="F")


def metric_superoperator(d: np.ndarray, f) -> np.ndarray:
    """The n^2 x n^2 matrix R^{1/2} f(L R^{-1}) R^{1/2} in the standard basis.

    L and R are left and right multiplication by the state d; f is applied as
    a matrix function through numpy's eigh.
    """
    n = d.shape[0]
    eye = np.eye(n)
    left = np.kron(eye, d)
    right = np.kron(d.T, eye)
    w, v = np.linalg.eigh(np.kron(np.linalg.inv(d).T, d))  # L R^{-1}
    f_lr = (v * f(w)) @ v.conj().T
    wr, vr = np.linalg.eigh(right)
    r_half = (vr * np.sqrt(wr)) @ vr.conj().T
    assert np.abs(left @ right - right @ left).max() < 1e-10 * np.abs(left).max()
    return r_half @ f_lr @ r_half


def metric_inner_superop(d: np.ndarray, f, x: np.ndarray, y: np.ndarray) -> float:
    """Monotone-metric scalar product through the explicit superoperator inverse."""
    m = metric_superoperator(d, f)
    val = _vec(x).conj() @ np.linalg.inv(m) @ _vec(y)
    return float(val.real)


def qov_superop(d: np.ndarray, f, a: np.ndarray, b: np.ndarray) -> float:
    """Quantum covariance via the superoperator oracle."""
    xa = 1j * (d @ a - a @ d)
    xb = 1j * (d @ b - b @ d)
    return 0.5 * f(0.0) * metric_inner_superop(d, f, xa, xb)


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    ma = as_complex_matrix(a, "left operand")
    mb = as_complex_matrix(b, "right operand")
    if ma.shape != mb.shape:
        raise ValueError(f"commutator: shape mismatch {ma.shape} vs {mb.shape}")
    return ma @ mb - mb @ ma


def cov(d, a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized covariance Tr(D(AB+BA))/2 - Tr(DA)Tr(DB) of a ``DensityMatrix`` d."""
    if a.shape != d.matrix.shape or b.shape != d.matrix.shape:
        raise ValueError("observable shape does not match the state")
    dm = d.matrix
    mean_a = float(np.trace(dm @ a).real)
    mean_b = float(np.trace(dm @ b).real)
    sym = 0.5 * float(np.trace(dm @ (a @ b + b @ a)).real)
    return sym - mean_a * mean_b


def qov(d, f, a: np.ndarray, b: np.ndarray) -> float:
    """Quantum covariance f(0)/2 * <i[D,A], i[D,B]>_{D,f} of a ``DensityMatrix`` d; f must be regular.

    The scalar product is the library's ``metric_inner`` with the same
    operations, less its Hermitian check of the tangents, which are Hermitian
    parts by construction: both rotated into D's eigenbasis (``rotated_tangent``),
    and sum conj(X_hj) Y_hj / m_f(lambda_h, lambda_j) (``qov_rotated``).
    """
    if not f.regular:
        raise ValueError(f"{f.label} is not regular (f(0) = 0), so its quantum covariance is identically zero")
    return qov_rotated(f, rotated_tangent(d, a), rotated_tangent(d, b), pair_means(d.eigenvalues, f))


def rotated_tangent(d, a: np.ndarray) -> np.ndarray:
    """The Hermitian part of i[D, A], rotated into the eigenbasis of a ``DensityMatrix`` d."""
    u = d.eigen.unitary
    return u.conj().T @ hermitian_part(1j * commutator(d.matrix, a)) @ u


def qov_rotated(f, xr: np.ndarray, yr: np.ndarray, means: np.ndarray) -> float:
    """``qov`` of the tangents ``rotated_tangent`` gives, with D's ``pair_means`` for f: a caller
    that forms each tangent and the means once gets each entry with ``qov``'s operations and bits."""
    return 0.5 * f.value_at_zero * float(metric_sum(xr.conj() * yr, means, f))


def _entrywise(obs_count: int, entry) -> np.ndarray:
    out = np.empty((obs_count, obs_count), dtype=float)
    for i in range(obs_count):
        for j in range(i, obs_count):
            out[i, j] = out[j, i] = entry(i, j)
    return out


def cov_matrix(d, obs) -> np.ndarray:
    """N x N matrix of pairwise covariances, entrywise from the trace formula."""
    obs = list(obs)
    return _entrywise(len(obs), lambda i, j: cov(d, obs[i], obs[j]))


def qov_matrix(d, f, obs) -> np.ndarray:
    """N x N matrix of pairwise quantum covariances, entrywise from the definition."""
    obs = list(obs)
    return _entrywise(len(obs), lambda i, j: qov(d, f, obs[i], obs[j]))


def robertson_matrix(d, obs) -> np.ndarray:
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


def unitarity_residual(eig) -> float:
    """Frobenius norm of U^dagger U - I for an eigendecomposition's unitary."""
    u = eig.unitary
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def apply_scalar_function(h, phi) -> np.ndarray:
    """phi, which maps an array of eigenvalues elementwise, applied to a Hermitian matrix."""
    w, u = np.linalg.eigh(np.asarray(h, dtype=complex))
    m = (u * np.asarray(phi(w), dtype=float)) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def draw_per_matrix(n: int, n_obs: int, seed: int, kind: str) -> tuple:
    """What ``prepare_random(n, n_obs, seed, kind)`` draws, one matrix at a time.

    One generator seeded with ``seed`` draws, in this order: for the state and
    then for each observable, the real and then the imaginary parts of a
    complex Gaussian matrix; a degenerate state's eigenvalue pair; the
    partition, as a shuffle of range(n), a chunk count k and k - 1 cut points.
    Returns the normalized state G G^dagger / Tr, its kind and pair, the
    Hermitian parts of the observables' Gaussians divided by ``np.linalg.norm``,
    and the partition.
    """
    rng = np.random.default_rng(seed)
    gaussians = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(1 + n_obs)]
    pair = tuple(sorted(int(i) for i in rng.choice(n, size=2, replace=False))) if kind == "degenerate" else None
    perm = rng.permutation(n)
    k = int(rng.integers(1, n + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist()) if k > 1 else []
    bounds = [0, *cuts, n]
    partition = [sorted(int(i) for i in perm[a:b]) for a, b in zip(bounds, bounds[1:])]
    state = gaussians[0] @ gaussians[0].conj().T
    state = 0.5 * (state + state.conj().T)
    state = state / np.trace(state).real
    hermitian = [0.5 * (g + g.conj().T) for g in gaussians[1:]]
    return state, kind, pair, [h / np.linalg.norm(h) for h in hermitian], partition


def prepared_per_matrix(matrix, kind: str, pair, observables, partition) -> dict:
    """The state, frame, scale, norms and partition of one drawn instance, one matrix at a time.

    Takes what ``draw_per_matrix`` returns: the normalized Gaussian product of
    the state, its kind, the eigenvalue pair a degenerate state merges, the
    observables and the partition.
    Works as the per-instance code did before instances were built in blocks:
    ``np.linalg.eigh`` on one matrix, the spectrum edit and rebuild of the
    degenerate and near-singular kinds, then for each observable
    U^dagger (A - Tr(D A) I) U, and ``np.linalg.norm`` per observable as given.
    """

    def hermitian(x):
        return 0.5 * (x + x.conj().T)

    m = hermitian(matrix)
    lam, u = np.linalg.eigh(m if kind == "generic" else matrix)
    if kind != "generic":
        lam = lam.copy()
        if kind == "degenerate":
            i, j = pair
            lam[i] = lam[j] = 0.5 * (lam[i] + lam[j])
        else:
            lam[0] = 1e-8
        lam /= lam.sum()
        order = np.argsort(lam, kind="stable")
        lam, u = lam[order], u[:, order]
        m = hermitian(hermitian((u * lam) @ u.conj().T))
    obs = [hermitian(np.asarray(a, dtype=complex)) for a in observables]
    norms = [float(np.linalg.norm(a)) for a in obs]
    rotated = [hermitian(u.conj().T @ (a - float(np.trace(m @ a).real) * np.eye(len(m))) @ u) for a in obs]
    return {
        "matrix": m,
        "eigenvalues": lam,
        "unitary": u,
        "observables": np.array(rotated),
        "scale": max(1.0, sum(v**2 for v in norms)),
        "norms": np.array(norms),
        "partition": partition,
    }


def custom_function(name: str, evaluator, value_at_zero: float) -> MonotoneFunction:
    """Wrap a test's evaluator as a function of the catalogue's kind.  Grid-checked only."""
    f = MonotoneFunction(name, evaluator, float(value_at_zero), abs(value_at_zero) > 1e-12)
    _validate_grid(f)
    return f


def planted_function(c: float) -> MonotoneFunction:
    """f_c(x) = (1 + x)/2 + c (sqrt(x) - 1)^2: symmetric, f(1) = 1 and f(0) = 1/2 + c, but for c > 0
    not monotone, and its transform is negative on a band of ratios, so Qov_{f_c} can exceed Cov and
    ``main`` fails.  At c = 0 it is ``sld``'s (1 + x)/2.  Built without ``_validate_grid``, which refuses it."""
    return MonotoneFunction("planted", lambda x: 0.5 * (1.0 + x) + c * (np.sqrt(x) - 1.0) ** 2, 0.5 + c, True, (c,))


@dataclass(frozen=True)
class OrderCheckReport:
    """Sampled matrix-order check: does A <= B imply f(A) <= f(B)?"""

    label: str
    dim: int
    trials: int
    violations: tuple[tuple[int, float], ...]
    worst_margin: float

    @property
    def passed(self) -> bool:
        return not self.violations


def check_operator_monotone(f, dim: int, trials: int, seed: int) -> OrderCheckReport:
    """Sample random pairs 0 < A <= B and test min eig of f(B) - f(A) against -1e-9.

    Evidence only: passing certifies nothing, a failure is disqualifying.
    """
    rng = np.random.default_rng(seed)
    violations = []
    worst = math.inf
    for k in range(trials):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = g @ g.conj().T / dim + 0.05 * np.eye(dim)
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = a + rng.uniform(0.0, 1.0) * (h @ h.conj().T) / dim
        gap = apply_scalar_function(b, f) - apply_scalar_function(a, f)
        m = float(np.linalg.eigvalsh(gap)[0])
        worst = min(worst, m)
        if m < -1e-9:
            violations.append((k, m))
    return OrderCheckReport(f.label, dim, trials, tuple(violations), worst)


# pencil check -> the names its components give lhs, det K_small, det(K_big - K_small) and the cross terms
_PENCIL_COMPONENTS = {
    "conj1": ("det_cov", "det_qov", "det_diff", "remainder"),
    "conj2": ("det_qov_f", "det_qov_g", "det_diff_fg", "remainder"),
    "firey": ("det_mix", "det_small", "det_diff", "remainder_t"),
}


def components_reference(name: str, inst, f, g, t, tol: float) -> dict:
    """The components of the ``name`` outcome at (f, g, t) on an evaluated instance, built as one
    dict per outcome from the values the outcome was judged from: its pencil row, its determinant
    memos (and, for equality, its block's structure) or its contraction sums.  The keys, their order
    and the window formula are written out here rather than taken from the library."""
    if name in _PENCIL_COMPONENTS:
        lhs, rem, _, q, dd = inst._block.pencil[f, g, t][inst._index][:5]
        keys = _PENCIL_COMPONENTS[name]
        out = {keys[0]: lhs, keys[1]: q, keys[2]: dd, keys[3]: rem}
        if t is not None:
            out["t"] = t
        out["f"] = f.label
        if g is not None:
            out["g"] = g.label
        return out
    if name == "main":
        return {"det_cov": inst.det("cov"), "det_qov": inst.det(f), "f": f.label}
    if name == "robertson":
        return {"det_cov": inst.det("cov"), "det_commutator": inst.det("robertson")}
    if name == "equality":
        det_cov, det_qov_f = inst.det("cov"), inst.det(f)
        det_qov_g = None if g is None else inst.det(g)
        rank, offdiag = inst._block.structure[None][inst._index]
        window = tol * inst.scale
        a = abs(det_cov - det_qov_f) <= window
        b = None if g is None else abs(det_qov_f - det_qov_g) <= window
        c = rank < inst._block.frame.size
        verdict = ",".join(name for name, held in zip("abc", (a, b, c)) if held) or "none"
        # an equality without the dependence behind it is unresolved; a dependence without its equality, inconsistent
        resolved = not (a and not c) and not (b and not offdiag)
        consistent = not (c and not a) and not (g is not None and offdiag and not b)
        return {"det_cov": det_cov, "det_qov_f": det_qov_f, "det_qov_g": det_qov_g, "condition_a": a, "condition_b": b,
                "condition_c": c, "linearly_dependent": c, "offdiag_dependent": offdiag, "rank": rank, "verdict": verdict,
                "resolved": resolved, "consistent": consistent}
    if name == "contraction":
        before, after, floor, blocks = inst.contraction(f)
        window = tol * max(1.0, before) + 4.0 * inst._block.frame.dim * float(np.finfo(float).eps) / floor * before
        return {"before": before, "after": after, "window": window, "blocks": blocks, "f": f.label}
    raise ValueError(f"{name}: no components")


def _gram_weights(frame, side) -> np.ndarray:
    """The (B, 2 n^2) weights w of a side's Gram form K = V diag(w) V^T on the real vectors V of the frame's
    observables (real parts, then imaginary parts): the mean (lambda_h + lambda_j) / 2 for "cov", the
    coefficients ``alpha_coefficients`` for a regular f, and zero for a nonregular one."""
    lam = frame.lambdas
    if side == "cov":
        w = 0.5 * (lam[:, :, None] + lam[:, None, :])
    else:
        w = alpha_coefficients(lam, side) if side.regular else np.zeros(lam.shape + lam.shape[-1:])
    w = w.reshape(len(lam), -1)
    return np.concatenate((w, w), axis=-1)


def pencil_spectra(block, f, g) -> tuple[np.ndarray, np.ndarray]:
    """The generalized eigenvalues mu (B, N) of the pencil (K_small, K_big) of each instance of ``block``,
    and det K_big (B,), where (K_big, K_small) is (Cov, Qov_f) for g None and (Qov_f, Qov_g) otherwise.

    With Y = V diag(w_big)^{1/2}, one thin QR Y^T = Q T gives K_big = T^T T, so det K_big = prod T_ii^2,
    and mu are the eigenvalues of Q^T diag(w_small / w_big) Q (the ratio 0 where w_big is 0), from one
    ``eigvalsh``.  Then det K_small = det K_big prod mu, det(K_big - K_small) = det K_big prod (1 - mu)
    and det(t K_big + (1 - 2t) K_small) = det K_big prod (t + (1 - 2t) mu).  The program's pencil
    determinants take none of these steps.
    """
    frame = block.frame
    x = frame.observables.reshape(block.size, frame.size, -1)
    v = np.concatenate((x.real, x.imag), axis=-1)  # (B, N, 2 n^2)
    w_big, w_small = (_gram_weights(frame, side) for side in (("cov", f) if g is None else (f, g)))
    support = w_big > 0.0
    y = v * np.sqrt(np.where(support, w_big, 0.0))[:, None, :]
    q, t = np.linalg.qr(np.swapaxes(y, -1, -2))
    ratio = np.divide(w_small, w_big, out=np.zeros_like(w_big), where=support)
    mu = np.linalg.eigvalsh(np.swapaxes(q, -1, -2) @ (ratio[:, :, None] * q))
    return mu, np.prod(np.diagonal(t, axis1=-2, axis2=-1) ** 2, axis=-1)


class ExactInstance(NamedTuple):
    """A state and family with rational spectrum, eigenvectors and frame, and their exact determinants."""

    state: np.ndarray  # U diag(lambda) U^dagger, each entry rounded to the nearest double
    observables: list  # Gaussian-integer Hermitian matrices, exact as doubles
    det: dict  # "cov", "sld", "wy" and "robertson" -> the determinant of that matrix, as a Fraction


def _product(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _inverse(a) -> list:
    """Inverse of an invertible matrix of rationals, by Gauss-Jordan elimination."""
    n = len(a)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for j in range(n):
        pivot = next(i for i in range(j, n) if rows[i][j])
        rows[j], rows[pivot] = rows[pivot], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i in range(n):
            if i != j and rows[i][j]:
                rows[i] = [x - rows[i][j] * y for x, y in zip(rows[i], rows[j])]
    return [row[n:] for row in rows]


def _real_form(m) -> list:
    """The complex matrix m, of Gaussian rationals, as the real matrix [[Re m, -Im m], [Im m, Re m]] of
    Fractions: products, inverses and transposes of these forms are those of the matrices and adjoints."""
    re, im = [[[Fraction(v) for v in row] for row in part] for part in (np.real(m), np.imag(m))]
    return [r + [-v for v in i] for r, i in zip(re, im)] + [i + r for r, i in zip(re, im)]


def _entries(form) -> list:
    """The complex matrix of a real form, as rows of (re, im) Fraction pairs."""
    n = len(form) // 2
    return [[(form[h][j], form[n + h][j]) for j in range(n)] for h in range(n)]


def exact_instance(n: int, n_obs: int, kind: str, dependent: bool, seed: int) -> ExactInstance:
    """An instance whose quantities are all rational, from one generator seeded with ``seed``.

    The eigenvectors are the columns of the Cayley unitary U = (I - K)(I + K)^-1 of a skew-Hermitian K
    with Gaussian-integer entries in [-3, 3].  The spectrum is lambda_h = s_h^2 / sum s^2 for integers
    s_h: distinct ones in [1, 12] for ``generic``, with the first repeated for ``degenerate``, and 1
    beside distinct ones in [300, 999] for ``near-singular``.  So sqrt(lambda_h lambda_j) is rational,
    and with it the weights of Cov, (lambda_h + lambda_j)/2, of Qov_sld,
    (lambda_h - lambda_j)^2 / (2 (lambda_h + lambda_j)), and of Qov_wy, (s_h - s_j)^2 / (2 sum s^2).
    The observables are Hermitian with Gaussian-integer entries in [-3, 3]; a ``dependent`` family's
    last one is an integer combination of the others plus a nonzero multiple of I.  The frame is
    U^dagger (A - Tr(D A) I) U, and the commutator matrix sums Im(lambda_h X^k_hj X^l_jh).
    """
    rng = np.random.default_rng(seed)

    def gaussian_integers(sign: int) -> np.ndarray:
        """An n x n matrix with Gaussian-integer entries in [-3, 3] that is ``sign`` times its adjoint."""
        re, im, diagonal = rng.integers(-3, 4, (3, n, n))
        upper = np.triu(re + 1j * im, 1)
        return upper + sign * upper.conj().T + np.diag(np.diag(diagonal)) * (1 if sign > 0 else 1j)

    if kind == "near-singular":
        s = [1, *(int(v) for v in rng.choice(np.arange(300, 1000), n - 1, replace=False))]
    else:
        s = [int(v) + 1 for v in rng.choice(12, n, replace=False)]
        if kind == "degenerate":
            s[1] = s[0]
    total = sum(v * v for v in s)
    lam = [Fraction(v * v, total) for v in s]
    k, eye = gaussian_integers(-1), np.eye(n)
    u = _product(_real_form(eye - k), _inverse(_real_form(eye + k)))
    adjoint = [list(col) for col in zip(*u)]
    state = _entries(_product(_product(u, _real_form(np.diag(lam))), adjoint))
    family = [gaussian_integers(1) for _ in range(n_obs)]
    if dependent:
        c = rng.integers(-2, 3, n_obs).tolist()
        family[-1] = sum(ck * a for ck, a in zip(c, family[:-1])) + (c[-1] or 1) * eye
    frames = []
    for a in family:
        x = _entries(_product(_product(adjoint, _real_form(a)), u))
        mean = sum(lam[h] * x[h][h][0] for h in range(n))
        frames.append([[(re - mean * (h == j), im) for j, (re, im) in enumerate(row)] for h, row in enumerate(x)])

    def gram(weight, imaginary: bool) -> list:
        """The N x N matrix of sum_hj weight(h, j) X^k_hj X^l_jh, its real or its imaginary part."""
        def entry(x, y):
            terms = ((weight(h, j), x[h][j], y[j][h]) for h in range(n) for j in range(n))
            return sum(w * (a * d + b * c if imaginary else a * c - b * d) for w, (a, b), (c, d) in terms)
        return [[entry(x, y) for y in frames] for x in frames]

    weights = {
        "cov": lambda h, j: (lam[h] + lam[j]) / 2,
        "sld": lambda h, j: (lam[h] - lam[j]) ** 2 / (2 * (lam[h] + lam[j])),
        "wy": lambda h, j: Fraction((s[h] - s[j]) ** 2, 2 * total),
        "robertson": lambda h, j: lam[h],
    }
    det = {side: det_rational(gram(weight, side == "robertson")) for side, weight in weights.items()}
    rounded = np.array([[complex(float(re), float(im)) for re, im in row] for row in state])
    return ExactInstance(rounded, family, det)


class ExactReplay(NamedTuple):
    """The exact matrices of a stored state and family, and their determinants, all in ``Fraction``."""

    matrix: dict  # "cov", "sld" and "robertson" -> that N x N matrix, as rows
    det: dict  # the same keys -> its determinant


def exact_replay(state, observables) -> ExactReplay:
    """Cov, Qov_sld and the commutator matrix of a drawn instance, exactly, from the dyadic rationals that
    its stored state matrix and unit observables are.

    The state is its stored matrix divided by its exact trace, so that its trace is exactly one.
    Cov_kl = Re Tr(D A_k A_l) - Tr(D A_k) Tr(D A_l), the commutator matrix has ``robertson_matrix``'s
    entries -(i/2) Tr(D [A_k, A_l]), and Qov_sld(A_k, A_l) = Tr(C_k X_l) / 4, with C = i[D, A] and X the
    solution of (D X + X D) / 2 = C: one rational n^2 x n^2 system over the real coordinates of Hermitian
    matrices (the diagonal, then the real and the imaginary parts above it), with no eigendecomposition.
    """
    n = len(state)
    trace = sum(Fraction(v) for v in np.real(np.diagonal(state)).tolist())
    d = [[v / trace for v in row] for row in _real_form(state)]
    forms = [_real_form(a) for a in observables]
    left = [_product(d, a) for a in forms]  # D A_k

    def trace_of(x, y, imaginary: bool) -> Fraction:
        """Re Tr(x y), or Im Tr(x y), of the real forms x and y."""
        return sum(v * y[j][h] for h in range(n) for j, v in enumerate(x[h + n * imaginary]))

    upper = [(h, j) for h in range(n) for j in range(h + 1, n)]

    def coordinates(form) -> list:
        z = _entries(form)
        return [z[h][h][0] for h in range(n)] + [z[h][j][0] for h, j in upper] + [z[h][j][1] for h, j in upper]

    basis = [np.diag(np.eye(n)[h]) for h in range(n)]
    for part in (1, 1j):
        for h, j in upper:
            e = np.zeros((n, n), dtype=complex)
            e[h, j], e[j, h] = part, np.conj(part)
            basis.append(e)
    # column b of the Lyapunov map is (D E_b + E_b D) / 2 in coordinates
    columns = [coordinates([[(x + y) / 2 for x, y in zip(*rows)] for rows in zip(_product(d, e), _product(e, d))])
               for e in map(_real_form, basis)]
    lyapunov = [list(row) for row in zip(*columns)]
    tangents = []  # C_k = i (D A_k - A_k D), whose real form is J times that of the commutator
    for dk, a in zip(left, forms):
        c = [[x - y for x, y in zip(*rows)] for rows in zip(dk, _product(a, d))]
        tangents.append(coordinates([[-v for v in row] for row in c[n:]] + c[:n]))
    solved = _product(_inverse(lyapunov), [list(col) for col in zip(*tangents)])  # n^2 x N: column l is X_l
    weight = [1] * n + [2] * (n * n - n)  # Tr(C X) of Hermitian C and X, in coordinates
    size = len(forms)
    means = [sum(dk[h][h] for h in range(n)) for dk in left]
    matrix = {
        "cov": [[(trace_of(left[k], forms[l], False) + trace_of(left[l], forms[k], False)) / 2 - means[k] * means[l]
                 for l in range(size)] for k in range(size)],
        "sld": [[sum(w * c * row[l] for w, c, row in zip(weight, tangents[k], solved)) / 4 for l in range(size)]
                for k in range(size)],
        "robertson": [[(trace_of(left[k], forms[l], True) - trace_of(left[l], forms[k], True)) / 2 for l in range(size)]
                      for k in range(size)],
    }
    return ExactReplay(matrix, {side: det_rational(m) for side, m in matrix.items()})
