from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import PAULI_X, PAULI_Y, PAULI_Z, random_hermitian
from oracles import det_cofactor, det_real_symmetric_numpy

from qfidet.linalg import (
    apply_scalar_function,
    as_complex_matrix,
    commutator,
    det_antisymmetric,
    det_real_symmetric,
    det_symmetric_rows,
    frobenius,
    hermitian_eigen,
    hermitian_part,
    min_eigenvalue,
    numeric_rank,
    real_symmetric_eigenvalues,
)


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


def test_det_matches_cofactor(rng):
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            g = rng.standard_normal((n, n))
            m = g + g.T
            ref = float(det_cofactor(m).real)
            got = det_real_symmetric(m)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_det_near_singular_sign():
    # eigenvalue product keeps tiny determinants at roundoff scale instead of
    # blowing them up through pivot growth
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
        for solver in (hermitian_eigen, real_symmetric_eigenvalues, det_real_symmetric, det_antisymmetric, min_eigenvalue):
            with pytest.raises(ValueError, match="non-finite entry"):
                solver(m)


def test_real_symmetric_eigenvalues_check_their_input():
    with pytest.raises(ValueError, match=r"not symmetric \(max \|M - M\^T\| = 5.000e\+00\)"):
        real_symmetric_eigenvalues(np.array([[1.0, 5.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match=r"not symmetric"):
        real_symmetric_eigenvalues(np.triu(np.ones((5, 5))))
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        real_symmetric_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not symmetric"):
        min_eigenvalue(np.array([[1.0, 5.0], [0.0, 2.0]]))


def test_small_symmetric_eigenvalues_match_lapack(rng):
    for n in (2, 3):
        for _ in range(50):
            g = rng.standard_normal((n, n))
            m = g + g.T
            mine = real_symmetric_eigenvalues(m)
            ref = np.linalg.eigvalsh(m)
            assert np.abs(mine - ref).max() < 1e-12 * max(1.0, float(np.abs(m).max()))


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


def test_small_det_is_bit_identical_to_the_numpy_closed_form():
    rng = np.random.default_rng(31)
    for k in range(21000):
        n = 1 + k % 3
        g = rng.standard_normal((n, n))
        m = (g + g.T, g @ g.T, np.diag(np.diag(g)))[k // 3 % 3]
        m = m * 10.0 ** rng.uniform(-8.0, 4.0)
        got, ref = det_real_symmetric(m), det_real_symmetric_numpy(m)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (m.tolist(), got, ref)


def test_det_on_rows_is_det_on_the_array():
    rng = np.random.default_rng(47)
    for k in range(600):
        n = 1 + k % 3
        g = rng.standard_normal((n, n))
        m = g + g.T
        assert np.float64(det_symmetric_rows(m.tolist())).tobytes() == np.float64(det_real_symmetric(m)).tobytes()
    with pytest.raises(ValueError, match="not symmetric"):
        det_symmetric_rows([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"non-finite entry \(0, 1\) = nan"):
        det_symmetric_rows([[1.0, math.nan], [math.nan, 1.0]])
