from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import PAULI_X, PAULI_Y, PAULI_Z, random_hermitian
from oracles import det_exact

from qfidet.inequalities import prepare_random
from qfidet.linalg import (
    apply_scalar_function,
    as_complex_matrix,
    commutator,
    det_antisymmetric,
    det_real_symmetric,
    frobenius,
    hermitian_eigen,
    hermitian_part,
    min_eigenvalue,
    numeric_rank,
)
from qfidet.monotone import make_function
from qfidet.states import derive_seed

# Largest |det - exact det| allowed, in units of eps * max(|prod diag|,
# max|entry|^N).  The worst case over 40 reseeded runs of the inputs below
# was 138.  np.linalg.det goes through slogdet, so its error grows with
# |log det|, which is why the inputs span scales from 1e-6 to 1e3.
DET_ERROR_BOUND = 256.0
KINDS = ("generic", "degenerate", "near-singular")


def test_pauli_x_spectrum():
    eig = hermitian_eigen(PAULI_X)
    assert np.abs(eig.eigenvalues - np.array([-1.0, 1.0])).max() < 1e-14
    assert frobenius(eig.reconstruct() - PAULI_X) < 1e-13


def test_diagonal_input_is_exact():
    d = np.diag([0.75, 0.25]).astype(complex)
    eig = hermitian_eigen(d)
    assert eig.eigenvalues.tolist() == [0.25, 0.75]
    # already diagonal, so the unitary is a pure permutation
    assert np.abs(np.abs(eig.unitary) - np.array([[0.0, 1.0], [1.0, 0.0]])).max() == 0.0


def test_zero_matrix():
    eig = hermitian_eigen(np.zeros((3, 3)))
    assert np.all(eig.eigenvalues == 0.0)
    assert eig.unitarity_residual() == 0.0


def test_eigen_random_reconstruction(rng):
    # spot the solver invariants over a spread of sizes
    for _ in range(250):
        n = int(rng.integers(2, 9))
        h = random_hermitian(rng, n)
        eig = hermitian_eigen(h)
        scale = max(1.0, frobenius(h))
        assert frobenius(eig.reconstruct() - h) <= 1e-11 * scale
        assert eig.unitarity_residual() <= 1e-12
        assert np.all(np.diff(eig.eigenvalues) >= 0.0)


def test_eigen_matches_lapack(rng):
    for n in (2, 3, 5, 8):
        h = random_hermitian(rng, n)
        mine = hermitian_eigen(h).eigenvalues
        ref = np.linalg.eigvalsh(h)
        assert np.abs(mine - ref).max() < 1e-11 * max(1.0, frobenius(h))


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_commutator_paulis():
    # [sigma_x, sigma_y] = 2i sigma_z
    assert np.abs(commutator(PAULI_X, PAULI_Y) - 2j * PAULI_Z).max() == 0.0


def test_commutator_antisymmetry_and_trace(rng):
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    c = commutator(a, b)
    assert np.abs(c + commutator(b, a)).max() == 0.0
    assert abs(np.trace(c)) <= 1e-12 * frobenius(a) * frobenius(b)


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        commutator(np.eye(2), np.eye(3))


def test_scalar_function_square(rng):
    h = random_hermitian(rng, 4)
    sq = apply_scalar_function(h, lambda x: x**2)
    assert frobenius(sq - h @ h) < 1e-11 * max(1.0, frobenius(h) ** 2)


def test_scalar_function_on_scaled_identity():
    out = apply_scalar_function(3.0 * np.eye(3), lambda x: np.sqrt(x))
    assert np.abs(out - math.sqrt(3.0) * np.eye(3)).max() == 0.0


def test_scalar_function_domain_violation():
    with pytest.raises(ValueError, match="outside the function domain"):
        apply_scalar_function(np.diag([1.0, -2.0]), np.sqrt, domain=(0.0, np.inf))


def test_scalar_function_accepts_scalar_callable():
    out = apply_scalar_function(np.diag([1.0, 4.0]), lambda x: math.sqrt(x))
    assert np.abs(out - np.diag([1.0, 2.0])).max() < 1e-14


def test_det_small_examples():
    assert det_real_symmetric(np.diag([0.75, 0.25])) == pytest.approx(3.0 / 16.0, abs=1e-15)
    assert det_real_symmetric(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert det_real_symmetric(m) == pytest.approx(3.0, rel=1e-13)


def _det_error(det: float, m: np.ndarray) -> float:
    """|det - exact det of m| in units of eps * max(|prod diag|, max|entry|^N)."""
    unit = max(abs(float(np.prod(np.diagonal(m)))), float(np.abs(m).max()) ** m.shape[0])
    if unit == 0.0:  # the zero matrix, e.g. Qov_f at the maximally mixed qubit
        return 0.0 if det == 0.0 else math.inf
    return float(abs(Fraction(det) - det_exact(m)) / Fraction(unit)) / float(np.finfo(float).eps)


def test_det_real_symmetric_matches_exact_rationals():
    # both sides of the size switch (cofactors up to 3x3, LU above); n = 2
    # gives rank-deficient Gram matrices (Qov_f has rank <= 2 there)
    rng = np.random.default_rng(11)
    sld, wy = make_function("sld"), make_function("wy")
    for n_obs in range(1, 7):
        for k in range(24):
            inst = prepare_random((2, 3, 4, 6)[k % 4], n_obs, derive_seed("det", n_obs, k), KINDS[k % 3])
            g = rng.standard_normal((n_obs, n_obs))
            cov = inst.matrix("cov")
            for m in (g + g.T, g @ g.T, cov, inst.matrix(sld), cov - inst.matrix(wy)):
                m = m * 10.0 ** rng.uniform(-6.0, 3.0)
                assert _det_error(det_real_symmetric(m), m) <= DET_ERROR_BOUND, m.tolist()


def test_det_antisymmetric_matches_exact_rationals():
    rng = np.random.default_rng(13)
    for n_obs in (2, 4, 6):
        for k in range(24):
            inst = prepare_random((2, 3, 4, 6)[k % 4], n_obs, derive_seed("det-anti", n_obs, k), KINDS[k % 3])
            g = rng.standard_normal((n_obs, n_obs))
            for m in (g - g.T, inst.matrix("robertson")):
                m = m * 10.0 ** rng.uniform(-6.0, 3.0)
                assert _det_error(det_antisymmetric(m), m) <= DET_ERROR_BOUND, m.tolist()
    for n_obs in (1, 3, 5):
        g = rng.standard_normal((n_obs, n_obs))
        assert det_exact(g - g.T) == 0
        assert det_antisymmetric(g - g.T) == 0.0


def test_det_near_singular_sign():
    # the exact determinant of the rounded entries is at rounding level, and
    # cofactor expansion of entries no larger than 1 adds a few eps at most
    v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    m = np.eye(3) - np.outer(v, v)
    assert abs(det_real_symmetric(m)) < 1e-14


def test_det_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        det_real_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_non_finite_entries_are_rejected(n, bad):
    for h, j in ((0, 0), (n - 1, 0)):
        m = np.eye(n)
        m[h, j] = m[j, h] = bad
        for solver in (hermitian_eigen, det_real_symmetric, det_antisymmetric, min_eigenvalue):
            with pytest.raises(ValueError, match="non-finite entry"):
                solver(m)


def test_det_and_min_eigenvalue_check_their_input():
    """det_real_symmetric on both sides of its size switch, and the real path of
    min_eigenvalue, reject non-square, asymmetric and non-finite input."""
    for solver in (det_real_symmetric, min_eigenvalue):
        with pytest.raises(ValueError, match=r"not symmetric \(max \|M - M\^T\| = 5.000e\+00\)"):
            solver(np.array([[1.0, 5.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match=r"not symmetric"):
            solver(np.triu(np.ones((5, 5))))
        with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
            solver(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"non-finite entry \(0, 1\) = nan"):
        det_real_symmetric(np.array([[1.0, math.nan], [math.nan, 1.0]]))


def test_det_antisymmetric_examples(rng):
    k = np.array([[0.0, 0.5], [-0.5, 0.0]])
    assert det_antisymmetric(k) == pytest.approx(0.25, rel=1e-13)
    assert det_antisymmetric(np.zeros((3, 3))) == 0.0
    g = rng.standard_normal((4, 4))
    a = g - g.T
    assert det_antisymmetric(a) == pytest.approx(float(np.linalg.det(a)), rel=1e-10)
    # odd size is exactly zero by construction
    g5 = rng.standard_normal((5, 5))
    assert det_antisymmetric(g5 - g5.T) == 0.0


def test_min_eigenvalue():
    assert min_eigenvalue(np.diag([3.0, -1.0, 2.0])) == pytest.approx(-1.0, abs=1e-14)
    assert min_eigenvalue(PAULI_Y) == pytest.approx(-1.0, abs=1e-13)


def test_numeric_rank_cases():
    assert numeric_rank(np.zeros((3, 4))) == 0
    assert numeric_rank([]) == 0
    assert numeric_rank([[1.0, 0.0], [0.0, 1.0]]) == 2
    assert numeric_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    v = np.array([1.0, -0.5, 0.25])
    assert numeric_rank([v, 2.0 * v, np.array([0.0, 1.0, 1.0])]) == 2
    with pytest.raises(ValueError, match="tolerance"):
        numeric_rank([[1.0]], tol=0.0)


def test_numeric_rank_floor_discards_noise_rows():
    noise = 1e-16 * np.ones((1, 4))
    assert numeric_rank(noise) == 1
    assert numeric_rank(noise, floor=1e-9) == 0
    stack = np.vstack([np.array([1.0, 0.0, 0.0, 0.0]), 1e-16 * np.ones(4)])
    assert numeric_rank(stack, floor=1e-9) == 1
    assert numeric_rank(stack, floor=0.5) == 1
    assert numeric_rank(stack, floor=2.0) == 0
    with pytest.raises(ValueError, match="floor"):
        numeric_rank([[1.0]], floor=-1e-9)


def test_hermitian_part_and_coercion():
    g = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitian_part(g)
    assert np.abs(h - h.conj().T).max() == 0.0
    with pytest.raises(ValueError, match="square"):
        as_complex_matrix(np.ones((2, 3)))
