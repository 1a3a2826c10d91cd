from __future__ import annotations

import math

import numpy as np
import pytest

from qfidet.covariance import (
    alpha_coefficients,
    cov_matrix_frame,
    metric_inner,
    metric_sum,
    pair_means,
    qov_matrix_frame,
)
from qfidet.inequalities import PreparedInstance
from qfidet.linalg import EigenDecomposition
from qfidet.monotone import make_function, parse_function_spec
from qfidet.states import DensityMatrix, density, density_stack, eigenframe, random_density, random_observable

from conftest import PAULI_X, PAULI_Y, PAULI_Z
from oracles import (
    cov,
    cov_matrix,
    det_one,
    metric_inner_superop,
    qov,
    qov_matrix,
    qov_superop,
    robertson_matrix,
    scale_one,
)

REGULAR = [make_function("sld"), make_function("wy"), make_function("wyd", 0.3)]
NONREGULAR = ["harmonic", "kubo-mori", "log-square", "sqrt-log", "alpha:0.2", "wyd:-0.4"]


def qubit(p=0.75):
    return density(np.diag([p, 1.0 - p]).astype(complex))


def test_cov_hand_values():
    d = qubit()
    assert cov(d, PAULI_X, PAULI_X) == pytest.approx(1.0, abs=1e-14)
    assert cov(d, PAULI_Z, PAULI_Z) == pytest.approx(0.75, abs=1e-14)
    assert abs(cov(d, np.eye(2, dtype=complex), PAULI_Y)) <= 1e-14
    assert cov(d, PAULI_X, PAULI_Y) == pytest.approx(cov(d, PAULI_Y, PAULI_X), abs=1e-14)
    with pytest.raises(ValueError, match="shape"):
        cov(d, np.eye(3, dtype=complex), PAULI_X)


def test_cov_frame_matches_and_is_nearly_real():
    d = qubit()
    frame = eigenframe(d, [PAULI_X, PAULI_Z])
    c = cov_matrix_frame(frame)
    assert c[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert c[1, 1] == pytest.approx(0.75, abs=1e-12)
    # the un-real-parted double sum already lands on the real axis
    lam = frame.lambdas
    w = 0.5 * (lam[:, None] + lam[None, :])
    a, b = frame.observables
    assert abs(np.sum(w * a * b.T).imag) <= 1e-11


def test_cov_frame_commuting_case_is_classical():
    lam = np.array([0.2, 0.3, 0.5])
    d = density(np.diag(lam).astype(complex))
    a = np.diag([1.0, 0.0, -1.0]).astype(complex)
    frame = eigenframe(d, [a])
    classical = np.sum(lam * np.diag(a).real ** 2) - np.sum(lam * np.diag(a).real) ** 2
    assert cov_matrix_frame(frame)[0, 0] == pytest.approx(classical, abs=1e-14)


def test_metric_inner_maximally_mixed():
    d = density(np.eye(2, dtype=complex) / 2)
    assert metric_inner(d, make_function("sld"), PAULI_X, PAULI_X) == pytest.approx(4.0, abs=1e-12)
    zero = np.zeros((2, 2), dtype=complex)
    assert metric_inner(d, make_function("sld"), zero, zero) == 0.0
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        metric_inner(d, make_function("sld"), np.array([[0, 1], [0, 0]], dtype=complex), PAULI_X)
    with pytest.raises(ValueError, match=r"^tangent y shape \(3, 3\) does not match the state$"):
        metric_inner(d, make_function("sld"), PAULI_X, np.eye(3, dtype=complex))


def test_metric_sum_refuses_a_nonpositive_mean():
    # the second of two stacks holds a zero mean, as a state of rank one gives a nonregular f
    means = np.ones((2, 2, 2))
    means[1, 0, 1] = 0.0
    with pytest.raises(ValueError, match=r"^matrix mean underflow for kubo-mori: min 0\.000e\+00$"):
        metric_sum(np.ones((2, 2, 2)), means, make_function("kubo-mori"))


def test_metric_inner_is_a_scalar_product(rng):
    d = random_density(3, 5)
    f = make_function("wy")
    x = random_observable(3, 1)
    y = random_observable(3, 2)
    z = random_observable(3, 3)
    assert metric_inner(d, f, x, y) == pytest.approx(metric_inner(d, f, y, x), rel=1e-12)
    lhs = metric_inner(d, f, x, 0.7 * y + 1.3 * z)
    rhs = 0.7 * metric_inner(d, f, x, y) + 1.3 * metric_inner(d, f, x, z)
    assert lhs == pytest.approx(rhs, rel=1e-11)
    assert metric_inner(d, f, x, x) > 0.0


@pytest.mark.parametrize("spec", ["sld", "wy", "wyd:0.3", "kubo-mori", "harmonic"])
def test_metric_inner_against_superoperator(spec, rng):
    f = parse_function_spec(spec)
    for trial in range(20):
        d = random_density(3, 1000 + trial)
        x = random_observable(3, 2000 + trial)
        y = random_observable(3, 3000 + trial)
        ours = metric_inner(d, f, x, y)
        ref = metric_inner_superop(d.matrix, f, x, y)
        assert abs(ours - ref) <= 1e-9 * max(1.0, abs(ref))


def test_qov_hand_values():
    d = qubit()
    assert qov(d, make_function("sld"), PAULI_X, PAULI_X) == pytest.approx(0.25, abs=1e-13)
    expected_wy = (2.0 - math.sqrt(3.0)) / 2.0
    assert qov(d, make_function("wy"), PAULI_X, PAULI_X) == pytest.approx(expected_wy, abs=1e-13)
    mixed = density(np.eye(2, dtype=complex) / 2)
    assert abs(qov(mixed, make_function("sld"), PAULI_X, PAULI_X)) <= 1e-14
    assert abs(qov(d, make_function("sld"), PAULI_Z, PAULI_Z)) <= 1e-14  # commuting
    assert qov(d, make_function("sld"), PAULI_X, PAULI_X) >= -1e-12


def test_qov_rejects_nonregular_by_default():
    d = qubit()
    with pytest.raises(ValueError, match="not regular"):
        qov(d, make_function("kubo-mori"), PAULI_X, PAULI_X)


@pytest.mark.parametrize("spec", NONREGULAR)
def test_nonregular_qov_is_rejected_here_and_zero_on_an_instance(spec):
    f = parse_function_spec(spec)
    d = random_density(3, 77)
    obs = [random_observable(3, 78 + k) for k in range(2)]
    for assemble in (
        lambda: qov(d, f, obs[0], obs[1]),
        lambda: qov_matrix(d, f, obs),
        lambda: qov_matrix_frame(eigenframe(d, obs), f),
    ):
        with pytest.raises(ValueError, match="not regular"):
            assemble()
    zero = PreparedInstance(d, obs).matrix(f)
    assert zero.shape == (2, 2) and not zero.any()


def test_qov_against_superoperator(rng):
    for trial in range(10):
        d = random_density(3, 4000 + trial)
        a = random_observable(3, 5000 + trial)
        b = random_observable(3, 6000 + trial)
        for f in REGULAR:
            ours = qov(d, f, a, b)
            ref = qov_superop(d.matrix, f, a, b)
            assert abs(ours - ref) <= 1e-9 * max(1.0, abs(ref))


def test_alpha_coefficients_hand_value():
    sld = make_function("sld")
    alpha = alpha_coefficients(np.array([0.75, 0.25]), sld)
    assert alpha[0, 1] == pytest.approx(0.125, abs=1e-14)
    assert alpha[0, 0] == 0.0 and alpha[1, 1] == 0.0
    assert alpha[0, 1] == alpha[1, 0]


def test_alpha_coefficient_identity(rng):
    # subtraction route equals f(0)(x-y)^2/(2 m_f) to pair-scale accuracy
    for f in REGULAR:
        lam = rng.dirichlet(np.ones(6))
        lam = np.maximum(lam, 1e-8)
        lam /= lam.sum()
        alpha = alpha_coefficients(lam, f)
        x, y = lam[:, None], lam[None, :]
        stable = f.value_at_zero * (x - y) ** 2 / (2.0 * pair_means(lam, f))
        pair_scale = 0.5 * (x + y)
        assert (np.abs(alpha - stable) / pair_scale).max() <= 1e-11


def test_alpha_positive_off_diagonal(rng):
    for f in REGULAR:
        lam = np.sort(rng.uniform(0.05, 1.0, size=5))
        lam /= lam.sum()
        alpha = alpha_coefficients(lam, f)
        off = alpha[~np.eye(5, dtype=bool)]
        assert np.all(off > 0.0)


def test_qov_frame_matches_definition_route(rng):
    for trial in range(40):
        n = int(rng.integers(2, 5))
        d = random_density(n, 7000 + trial, ("generic", "degenerate", "near-singular")[trial % 3])
        a = random_observable(n, 7100 + trial)
        b = random_observable(n, 7200 + trial)
        frame = eigenframe(d, [a, b])
        c_direct = cov(d, a, b)
        c_frame = cov_matrix_frame(frame)[0, 1]
        assert abs(c_direct - c_frame) <= 1e-10 * max(1.0, abs(c_direct))
        for f in REGULAR:
            q_direct = qov(d, f, a, b)
            q_frame = qov_matrix_frame(frame, f)[0, 1]
            assert abs(q_direct - q_frame) <= 1e-10 * max(1.0, abs(q_direct))


def test_qov_frame_diagonal_observables_vanish():
    d = density(np.diag([0.2, 0.8]).astype(complex))
    frame = eigenframe(d, [PAULI_Z])
    assert qov_matrix_frame(frame, make_function("sld"))[0, 0] == 0.0


def test_shift_invariance(rng):
    d = random_density(3, 99)
    a = random_observable(3, 98)
    b = random_observable(3, 97)
    shifted = a + 1.7 * np.eye(3)
    assert cov(d, shifted, b) == pytest.approx(cov(d, a, b), abs=1e-10)
    for f in REGULAR:
        assert qov(d, f, shifted, b) == pytest.approx(qov(d, f, a, b), abs=1e-10)


def test_matrix_hand_values():
    d = qubit()
    cm = cov_matrix(d, [PAULI_X, PAULI_Y])
    assert np.abs(cm - np.eye(2)).max() <= 1e-13
    qm = qov_matrix(d, make_function("sld"), [PAULI_X, PAULI_Y])
    assert np.abs(qm - 0.25 * np.eye(2)).max() <= 1e-13
    single = cov_matrix(d, [PAULI_Z])
    assert single.shape == (1, 1) and single[0, 0] == pytest.approx(0.75, abs=1e-14)


def test_matrix_assemblers_agree_with_entrywise(rng):
    for trial in range(15):
        n = int(rng.integers(2, 5))
        nobs = int(rng.integers(1, 4))
        d = random_density(n, 8000 + trial)
        obs = [random_observable(n, 8100 + 10 * trial + k) for k in range(nobs)]
        frame = eigenframe(d, obs)
        cm = cov_matrix(d, obs)
        assert np.abs(cm - cov_matrix_frame(frame)).max() <= 1e-11
        assert np.array_equal(cm, cm.T)
        for f in REGULAR:
            qm = qov_matrix(d, f, obs)
            assert np.abs(qm - qov_matrix_frame(frame, f)).max() <= 1e-11
            assert np.array_equal(qm, qm.T)


def test_matrix_positivity_and_ordering(rng):
    sld, wy = make_function("sld"), make_function("wy")
    for trial in range(25):
        d = random_density(3, 8500 + trial)
        obs = [random_observable(3, 8600 + 10 * trial + k) for k in range(3)]
        frame = eigenframe(d, obs)
        scale, _ = scale_one(obs)
        cm = cov_matrix_frame(frame)
        qm_f = qov_matrix_frame(frame, sld)
        qm_g = qov_matrix_frame(frame, wy)
        assert np.linalg.eigvalsh(qm_f)[0] >= -1e-10 * scale
        assert np.linalg.eigvalsh(cm - qm_f)[0] >= -1e-10 * scale
        # sld dominates wy strictly, so its quantum covariance dominates too
        assert np.linalg.eigvalsh(qm_f - qm_g)[0] >= -1e-10 * scale


def test_repeated_observable_makes_cov_singular():
    d = qubit()
    cm = cov_matrix(d, [PAULI_X, PAULI_X])
    assert abs(det_one(cm)) <= 1e-10


def test_dependent_family_makes_qov_singular():
    d = qubit()
    qm = qov_matrix(d, make_function("sld"), [PAULI_X, PAULI_X + PAULI_Z])
    assert abs(det_one(qm)) <= 1e-10


def test_qov_matrix_nonregular_gate():
    d = qubit()
    frame = eigenframe(d, [PAULI_X])
    with pytest.raises(ValueError, match="not regular"):
        qov_matrix_frame(frame, make_function("harmonic"))


def test_robertson_hand_values():
    d = qubit()
    r = robertson_matrix(d, [PAULI_X, PAULI_Y])
    assert np.abs(r - np.array([[0.0, 0.5], [-0.5, 0.0]])).max() <= 1e-14
    mixed = density(np.eye(2, dtype=complex) / 2)
    assert np.abs(robertson_matrix(mixed, [PAULI_X, PAULI_Y])).max() <= 1e-14
    commuting = robertson_matrix(d, [PAULI_Z, np.eye(2, dtype=complex)])
    assert np.abs(commuting).max() <= 1e-15


def test_robertson_structure(rng):
    d = random_density(4, 55)
    obs = [random_observable(4, 60 + k) for k in range(3)]
    r = robertson_matrix(d, obs)
    assert np.array_equal(r, -r.T)
    assert np.all(np.diag(r) == 0.0)


def test_transpose_convention_is_neutral(rng):
    # flipping every frame matrix to its transpose (the opposite reading of
    # the inner-product convention) cannot change any double-sum value
    from qfidet.states import EigenFrame

    for trial in range(10):
        d = random_density(3, 9000 + trial)
        obs = [random_observable(3, 9100 + 10 * trial + k) for k in range(2)]
        frame = eigenframe(d, obs)
        flipped = EigenFrame(frame.lambdas, frame.observables.transpose(0, 2, 1), frame.norms)
        assert cov_matrix_frame(frame)[0, 1] == pytest.approx(cov_matrix_frame(flipped)[0, 1], abs=1e-12)
        for f in REGULAR:
            assert qov_matrix_frame(frame, f)[0, 1] == pytest.approx(
                qov_matrix_frame(flipped, f)[0, 1], abs=1e-12
            )


def test_degenerate_state_results_do_not_depend_on_basis_choice():
    base = random_density(4, 123, "degenerate")
    obs = [random_observable(4, 300 + k) for k in range(2)]
    lam = base.eigenvalues
    # the averaged pair is exactly equal, so adjacent in the ascending spectrum
    k = int(np.flatnonzero(lam[1:] == lam[:-1])[0])
    pair = [k, k + 1]
    rng = np.random.default_rng(5)
    bases = [base.eigen.unitary]
    for _ in range(3):
        w, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = base.eigen.unitary.copy()
        u[:, pair] = u[:, pair] @ w
        assert np.abs(u - base.eigen.unitary).max() > 1e-2
        bases.append(u)
    values = []
    for u in bases:
        m, spectra, unitaries = density_stack(base.matrix[None], EigenDecomposition(lam[None], u[None]))
        d = DensityMatrix(m[0], EigenDecomposition(spectra[0], unitaries[0]))
        frame = eigenframe(d, obs)
        values.append(
            (
                cov_matrix_frame(frame)[0, 1],
                qov_matrix_frame(frame, make_function("sld"))[0, 1],
                qov_matrix_frame(frame, make_function("wy"))[0, 0],
            )
        )
    ref = np.array(values[0])
    for other in values[1:]:
        assert np.abs(np.array(other) - ref).max() <= 1e-9


def test_observable_scale():
    assert scale_one([PAULI_X]) == (pytest.approx(2.0), (pytest.approx(math.sqrt(2.0)),))
    assert scale_one([0.1 * PAULI_X])[0] == 1.0
