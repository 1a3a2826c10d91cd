from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import PAULI_X, PAULI_Y, PAULI_Z, random_hermitian
from oracles import (
    apply_scalar_function,
    commutator,
    det_antisymmetric_one,
    det_exact,
    det_one,
    eigen_one,
    frobenius_one,
    rank_one,
    unitarity_residual,
)

from qfidet.covariance import observable_scale
from qfidet.inequalities import prepare_random
from qfidet.linalg import (
    as_complex_matrix,
    det_antisymmetric,
    det_real_symmetric,
    frobenius,
    hermitian_eigen,
    hermitian_part,
    numeric_rank,
    require_hermitian,
)
from qfidet.monotone import make_function
from qfidet.states import density, derive_seed, eigenframe, observable, offdiagonal_dependence, pinching

# Largest |det - exact det| allowed, in units of eps * max(|prod diag|,
# max|entry|^N).  The worst case over 40 reseeded runs of the inputs below
# was 138.  np.linalg.det goes through slogdet, so its error grows with
# |log det|, which is why the inputs span scales from 1e-6 to 1e3.
DET_ERROR_BOUND = 256.0
KINDS = ("generic", "degenerate", "near-singular")


def test_pauli_x_spectrum():
    eig = eigen_one(PAULI_X)
    assert np.abs(eig.eigenvalues - np.array([-1.0, 1.0])).max() < 1e-14
    assert frobenius_one(eig.reconstruct() - PAULI_X) < 1e-13


def test_diagonal_input_is_exact():
    d = np.diag([0.75, 0.25]).astype(complex)
    eig = eigen_one(d)
    assert eig.eigenvalues.tolist() == [0.25, 0.75]
    # already diagonal, so the unitary is a pure permutation
    assert np.abs(np.abs(eig.unitary) - np.array([[0.0, 1.0], [1.0, 0.0]])).max() == 0.0


def test_zero_matrix():
    eig = eigen_one(np.zeros((3, 3)))
    assert np.all(eig.eigenvalues == 0.0)
    assert unitarity_residual(eig) == 0.0


def test_eigen_random_reconstruction(rng):
    # spot the solver invariants over a spread of sizes
    for _ in range(250):
        n = int(rng.integers(2, 9))
        h = random_hermitian(rng, n)
        eig = eigen_one(h)
        scale = max(1.0, frobenius_one(h))
        assert frobenius_one(eig.reconstruct() - h) <= 1e-11 * scale
        assert unitarity_residual(eig) <= 1e-12
        assert np.all(np.diff(eig.eigenvalues) >= 0.0)


def test_eigen_matches_lapack(rng):
    for n in (2, 3, 5, 8):
        h = random_hermitian(rng, n)
        mine = eigen_one(h).eigenvalues
        ref = np.linalg.eigvalsh(h)
        assert np.abs(mine - ref).max() < 1e-11 * max(1.0, frobenius_one(h))


def test_eigen_rejects_non_hermitian():
    # hermitian_eigen takes what its callers built; a non-Hermitian matrix is refused at the door
    # (require_hermitian, which density and observable call) before it reaches the eigensolver
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"^matrix: not Hermitian, entry \(0,1\) = \(1\+0j\) vs"):
        require_hermitian(m, "matrix")
    with pytest.raises(ValueError, match=r"^observable: not Hermitian"):
        observable(m)


def test_eigen_of_a_stack_gives_each_matrix_its_bits_alone(rng):
    for n in (2, 3, 8):
        mats = [random_hermitian(rng, n) for _ in range(5)]
        stack = np.stack(mats, axis=-1)
        eig = hermitian_eigen(stack)
        assert eig.eigenvalues.shape == (5, n) and eig.unitary.shape == (5, n, n)
        for k, m in enumerate(mats):
            alone = eigen_one(m)
            assert np.array_equal(eig.eigenvalues[k], alone.eigenvalues)
            assert np.array_equal(eig.unitary[k], alone.unitary)


def test_commutator_paulis():
    # [sigma_x, sigma_y] = 2i sigma_z
    assert np.abs(commutator(PAULI_X, PAULI_Y) - 2j * PAULI_Z).max() == 0.0


def test_commutator_antisymmetry_and_trace(rng):
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    c = commutator(a, b)
    assert np.abs(c + commutator(b, a)).max() == 0.0
    assert abs(np.trace(c)) <= 1e-12 * frobenius_one(a) * frobenius_one(b)


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        commutator(np.eye(2), np.eye(3))


def test_scalar_function_square(rng):
    h = random_hermitian(rng, 4)
    sq = apply_scalar_function(h, lambda x: x**2)
    assert frobenius_one(sq - h @ h) < 1e-11 * max(1.0, frobenius_one(h) ** 2)


def test_scalar_function_on_scaled_identity():
    out = apply_scalar_function(3.0 * np.eye(3), lambda x: np.sqrt(x))
    assert np.abs(out - math.sqrt(3.0) * np.eye(3)).max() == 0.0


def test_det_small_examples():
    assert det_one(np.diag([0.75, 0.25])) == pytest.approx(3.0 / 16.0, abs=1e-15)
    assert det_one(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert det_one(m) == pytest.approx(3.0, rel=1e-13)


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
                assert _det_error(det_one(m), m) <= DET_ERROR_BOUND, m.tolist()


def test_det_antisymmetric_matches_exact_rationals():
    rng = np.random.default_rng(13)
    for n_obs in (2, 4, 6):
        for k in range(24):
            inst = prepare_random((2, 3, 4, 6)[k % 4], n_obs, derive_seed("det-anti", n_obs, k), KINDS[k % 3])
            g = rng.standard_normal((n_obs, n_obs))
            for m in (g - g.T, inst.matrix("robertson")):
                m = m * 10.0 ** rng.uniform(-6.0, 3.0)
                assert _det_error(det_antisymmetric_one(m), m) <= DET_ERROR_BOUND, m.tolist()
    for n_obs in (1, 3, 5):
        g = rng.standard_normal((n_obs, n_obs))
        assert det_exact(g - g.T) == 0
        assert det_antisymmetric_one(g - g.T) == 0.0


def test_det_near_singular_sign():
    # the exact determinant of the rounded entries is at rounding level, and
    # cofactor expansion of entries no larger than 1 adds a few eps at most
    v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    m = np.eye(3) - np.outer(v, v)
    assert abs(det_one(m)) < 1e-14


def test_det_rejects_asymmetric():
    # det_real_symmetric takes what its callers built; an asymmetric real matrix is refused at the door
    with pytest.raises(ValueError, match=r"^matrix: not symmetric, entry \(0,1\) = 2.0 vs \(1,0\) = 0.0$"):
        require_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]), "matrix")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_non_finite_entries_are_rejected(n, bad):
    # the door judges finiteness, of one matrix or of any matrix of a stack, real or complex, and names
    # the first non-finite entry in row-major order
    for h, j in ((0, 0), (0, n - 1)):
        m = np.eye(n)
        m[h, j] = m[j, h] = bad
        for given in (m, np.stack([np.eye(n), m]), m.astype(complex)):
            with pytest.raises(ValueError, match=f"^matrix: non-finite entry \\({h}, {j}\\) = "):
                require_hermitian(given, "matrix")


def test_det_checks_its_input():
    """det_real_symmetric rejects input that is not an (n, n, K) stack; a matrix's values are judged at
    its door (``require_hermitian``)."""
    with pytest.raises(ValueError, match=r"expected an \(n, n, K\) stack of square matrices, got shape \(2, 3\)"):
        det_real_symmetric(np.ones((2, 3)))


def test_require_hermitian_names_the_entry_without_its_mirror():
    # real matrices are held to symmetry, complex ones to Hermiticity, each in its own words
    cases = (
        (np.array([[1.0, 5.0], [0.0, 2.0]]), r"^matrix: not symmetric, entry \(0,1\) = 5.0 vs \(1,0\) = 0.0$"),
        (np.triu(np.ones((5, 5))), "not symmetric"),
        (np.array([[1.0, math.nan], [math.nan, 1.0]]), r"^matrix: non-finite entry \(0, 1\) = nan$"),
    )
    for matrix, message in cases:
        with pytest.raises(ValueError, match=message):
            require_hermitian(matrix, "matrix")
    require_hermitian(np.array([[1.0, 2.0j], [-2.0j, 1.0]]), "matrix")


def test_real_matrices_share_one_symmetry_tolerance():
    """The door accepts an asymmetry up to SYMMETRY_TOL times max(1, the largest entry) and rejects
    one above it."""
    for scale in (1.0, 1e6):
        for off, ok in ((0.5e-12, True), (5e-12, False)):
            m = scale * np.eye(4)
            m[0, 1] += off * scale
            if ok:
                require_hermitian(m, "matrix")
            else:
                with pytest.raises(ValueError, match="not symmetric"):
                    require_hermitian(m, "matrix")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_stack_equals_det_real_symmetric_bit_for_bit(n):
    rng = np.random.default_rng(derive_seed("det-stack", n))
    g = rng.standard_normal((300, n, n))
    stack = (g + g.transpose(0, 2, 1)) * 10.0 ** rng.uniform(-8.0, 4.0, size=(300, 1, 1))
    stack[0] = 0.0
    dets = det_real_symmetric(stack.transpose(1, 2, 0))
    singles = np.array([det_one(m) for m in stack])
    # the closed forms on Python floats up to 3x3, numpy's LU one matrix at a time above
    reference = np.array([_cofactor_on_floats(m.tolist()) if n <= 3 else float(np.linalg.det(m)) for m in stack])
    assert dets.shape == (300,)
    assert np.array_equal(dets.view(np.uint64), singles.view(np.uint64))
    assert np.array_equal(dets.view(np.uint64), reference.view(np.uint64))


def _cofactor_on_floats(r):
    if len(r) == 1:
        return r[0][0]
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def test_det_stack_checks_its_input():
    for shape, what in (((3,), "an (n, n, K) stack of square matrices"), ((2, 3, 2), "an (n, n, K) stack of square matrices")):
        with pytest.raises(ValueError, match=re.escape(f"expected {what}, got shape {shape}")):
            det_real_symmetric(np.ones(shape))
    for shape in ((0, 0), (0, 0, 4), (2, 2, 3, 1)):
        for det in (det_real_symmetric, det_antisymmetric):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                det(np.ones(shape))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_a_determinant_that_overflows_raises_overflow_error(n):
    # finite entries on both sides of the size switch whose determinant is past the float range
    big = np.eye(n) * 1e308 ** (2.0 / n)
    with pytest.raises(OverflowError, match="overflows the float range"):
        det_one(big)
    with pytest.raises(OverflowError, match="overflows the float range"):
        det_real_symmetric(np.stack([np.eye(n), big], axis=-1))
    if n == 2:
        # cofactor products past the float range (inf - inf) of a determinant that is 0: LU gives it
        m = np.full((2, 2), 1e200)
        assert det_one(m) == 0.0
        assert det_real_symmetric(np.stack([np.eye(2), m], axis=-1)).tolist() == [1.0, 0.0]
    if n % 2 == 0:
        k = np.kron(np.eye(n // 2), np.array([[0.0, 1e200], [-1e200, 0.0]]))
        with pytest.raises(OverflowError, match="overflows the float range"):
            det_antisymmetric_one(k)
    # large entries whose determinant stays in range pass, within Hadamard's
    # bound (sqrt(N) max|entry|)^N <= e^700 and beyond it
    for m in (np.eye(n) * 1e300 ** (1.0 / n), np.diag([1e200] + [1e-50] * (n - 1))):
        assert 0.0 < det_one(m) < math.inf
        assert 0.0 < det_real_symmetric(m[:, :, None])[0] < math.inf
    if n % 2 == 0:
        k = np.kron(np.diag([1e154] + [1e-50] * (n // 2 - 1)), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert 0.0 < det_antisymmetric_one(k) < math.inf


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_antisymmetric_stack_equals_single_matrices_bit_for_bit(n):
    rng = np.random.default_rng(derive_seed("det-anti-stack", n))
    g = rng.standard_normal((300, n, n))
    stack = (g - g.transpose(0, 2, 1)) * 10.0 ** rng.uniform(-8.0, 4.0, size=(300, 1, 1))
    dets = det_antisymmetric(stack.transpose(1, 2, 0))
    singles = np.array([det_antisymmetric_one(m) for m in stack])
    # exactly zero at odd sizes, numpy's LU one matrix at a time at even ones
    reference = np.array([0.0 if n % 2 else float(np.linalg.det(m)) for m in stack])
    assert dets.shape == (300,)
    assert np.array_equal(dets.view(np.uint64), singles.view(np.uint64))
    assert np.array_equal(dets.view(np.uint64), reference.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_require_hermitian_names_the_first_bad_matrix_of_a_stack(n):
    # one test of a (..., n, n) stack, and the text of its first faulty matrix, whichever its fault
    for first, second in ((1, 3), (3, 1)):
        stack = np.zeros((5, n, n))
        stack[first, 0, 1] = math.nan
        stack[second, 1, 0] = 0.25
        nan, asymmetric = r"^matrix: non-finite entry \(0, 1\) = nan$", r"^matrix: not symmetric, entry \(0,1\) = 0.0 vs \(1,0\) = 0.25$"
        with pytest.raises(ValueError, match=nan if first < second else asymmetric):
            require_hermitian(stack, "matrix")
    stack = np.stack([np.eye(n)] * 5).astype(complex)
    stack[2, 0, 1] += 0.25
    stack[4, 1, 0] += 7.0
    stack[3, n - 1, n - 1] = math.inf
    # a complex stack of any leading shape, whose first faulty matrix comes before a non-finite one
    hermitian = r"^matrix: not Hermitian, entry \(0,1\) = \(0.25\+0j\) vs conjugate of \(1,0\) = -?0j$"
    with pytest.raises(ValueError, match=hermitian):
        require_hermitian(stack.reshape(5, 1, n, n), "matrix")


def test_det_antisymmetric_examples(rng):
    k = np.array([[0.0, 0.5], [-0.5, 0.0]])
    assert det_antisymmetric_one(k) == pytest.approx(0.25, rel=1e-13)
    assert det_antisymmetric_one(np.zeros((3, 3))) == 0.0
    g = rng.standard_normal((4, 4))
    a = g - g.T
    assert det_antisymmetric_one(a) == pytest.approx(float(np.linalg.det(a)), rel=1e-10)
    # odd size is exactly zero by construction
    g5 = rng.standard_normal((5, 5))
    assert det_antisymmetric_one(g5 - g5.T) == 0.0


def test_numeric_rank_cases():
    assert rank_one(np.zeros((3, 4)), 0.0) == 0
    assert rank_one([], 0.0) == 0
    assert rank_one([[1.0, 0.0], [0.0, 1.0]], 0.0) == 2
    assert rank_one([[1.0, 2.0], [2.0, 4.0]], 0.0) == 1
    v = np.array([1.0, -0.5, 0.25])
    assert rank_one([v, 2.0 * v, np.array([0.0, 1.0, 1.0])], 0.0) == 2


def test_numeric_rank_floor_discards_noise_rows():
    noise = 1e-16 * np.ones((1, 4))
    assert rank_one(noise, 0.0) == 1
    assert rank_one(noise, floor=1e-9) == 0
    stack = np.vstack([np.array([1.0, 0.0, 0.0, 0.0]), 1e-16 * np.ones(4)])
    assert rank_one(stack, floor=1e-9) == 1
    assert rank_one(stack, floor=0.5) == 1
    assert rank_one(stack, floor=2.0) == 0
    with pytest.raises(ValueError, match="floor"):
        rank_one([[1.0]], floor=-1e-9)


def test_hermitian_part_and_coercion():
    g = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitian_part(g)
    assert np.abs(h - h.conj().T).max() == 0.0
    with pytest.raises(ValueError, match="square"):
        as_complex_matrix(np.ones((2, 3)), "matrix")


# each routine that takes stacks only, a single matrix or family, and the error it raises for that
STACK_ONLY = [
    (frobenius, (PAULI_X,), "expected a stack (..., n, n) of matrices, got shape (2, 2)"),
    (hermitian_eigen, (PAULI_X,), "expected an (n, n, K) stack of square matrices, got shape (2, 2)"),
    (det_real_symmetric, (np.eye(2),), "expected an (n, n, K) stack of square matrices, got shape (2, 2)"),
    (det_antisymmetric, (np.zeros((2, 2)),), "expected an (n, n, K) stack of square matrices, got shape (2, 2)"),
    (pinching, (PAULI_X, [[0], [1]]), "expected a (B, ..., n, n) stack and B partitions, got shape (2, 2) and 2"),
    (observable_scale, ([PAULI_X, PAULI_Y],), "expected a (B, N, n, n) stack of families, got shape (2, 2, 2)"),
    (numeric_rank, (np.eye(2), 0.0), "expected a (B, rows, cols) stack of matrices, got shape (2, 2)"),
    (
        offdiagonal_dependence,
        (eigenframe(density(np.eye(2) / 2), [PAULI_X]),),
        "expected a stacked frame of (B, N, n, n) observables, got shape (1, 2, 2)",
    ),
]


@pytest.mark.parametrize("routine, arguments, expected", STACK_ONLY, ids=[case[0].__name__ for case in STACK_ONLY])
def test_a_stack_only_routine_refuses_one_matrix_or_one_family(routine, arguments, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        routine(*arguments)
