from __future__ import annotations

import numpy as np
import pytest

from qfidet.inequalities import check_metric_contraction
from qfidet.linalg import EigenDecomposition, frobenius
from qfidet.monotone import make_function
from qfidet.states import (
    _require_positive,
    density,
    density_stack,
    derive_seed,
    eigenframe,
    eigenframe_stack,
    observable,
    random_density,
    random_observable,
    random_partition,
)

from conftest import PAULI_X, PAULI_Y, PAULI_Z
from oracles import dependence_one, frobenius_one, pinching_one

SLD = make_function("sld")


def qubit_state(p=0.75):
    return density(np.diag([p, 1.0 - p]).astype(complex))


def test_density_accepts_valid_state():
    d = qubit_state()
    assert d.dim == 2
    assert np.allclose(d.eigenvalues, [0.25, 0.75], atol=0, rtol=0)
    assert d.matrix[0, 0] == 0.75


def test_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        density(np.eye(2, dtype=complex))


def test_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        density(m)


def test_a_matrix_without_entries_is_refused_in_its_doors_words():
    for door, label in ((density, "state"), (observable, "observable")):
        with pytest.raises(ValueError, match=rf"^{label}: expected a non-empty square matrix, got shape \(0, 0\)$"):
            door(np.zeros((0, 0)))
        # a matrix without entries that is not square keeps the square-shape text
        with pytest.raises(ValueError, match=rf"^{label}: expected a square matrix, got shape \(0, 2\)$"):
            door(np.zeros((0, 2)))


def test_density_rejects_nonpositive():
    eps = 1e-9
    with pytest.raises(ValueError, match="strictly positive"):
        density(np.diag([1.0 + eps, -eps]).astype(complex))


def test_density_rejects_stale_eigendecomposition():
    m = np.diag([0.75, 0.25]).astype(complex)
    wrong = EigenDecomposition(np.array([[0.5, 0.5]]), np.eye(2, dtype=complex)[None])
    with pytest.raises(ValueError, match="eigendecomposition"):
        density_stack(m[None], wrong)


# each test of density_stack is one comparison that NaN fails: a NaN residual, a NaN trace (of entries +inf and -inf,
# whose residual and scale are both inf) and a NaN least eigenvalue, which only NaN input reaches
def test_density_stack_refuses_a_nan_residual():
    nan = EigenDecomposition(np.full((1, 2), np.nan), np.eye(2, dtype=complex)[None])
    with pytest.raises(ValueError) as caught:
        density_stack(np.full((1, 2, 2), np.nan + 0j), nan)
    assert str(caught.value) == "supplied eigendecomposition does not match the state (residual nan)"


def test_density_stack_refuses_a_nan_trace():
    eigen = EigenDecomposition(np.array([[0.25, 0.75]]), np.eye(2, dtype=complex)[None])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as caught:
        density_stack(np.diag([np.inf, -np.inf]).astype(complex)[None], eigen)
    assert str(caught.value) == "state trace is nan, expected 1 within 1e-12"


def test_a_nan_spectrum_is_not_strictly_positive():
    # the one judge of the state spectra, and of the pinched ones in fill_contraction
    with pytest.raises(ValueError) as caught:
        _require_positive(np.array([[0.25, 0.75], [np.nan, 1.0]]))
    assert str(caught.value) == "state is not strictly positive: min eigenvalue nan is below the floor 1e-10"


def test_observable_round_trip():
    a = observable([[0.0, 1.0], [1.0, 0.0]])
    assert a.dtype == complex
    with pytest.raises(ValueError):
        observable([[0.0, 1.0], [0.0, 0.0]])


def _centered(d, a):
    """The frame's centered observable a - Tr(d a) I, rotated back out of the eigenbasis."""
    u = d.eigen.unitary
    return u @ eigenframe(d, [a]).observables[0] @ u.conj().T


def test_centering_examples():
    d = qubit_state()
    assert np.abs(_centered(d, np.eye(2, dtype=complex))).max() <= 1e-15
    shifted = _centered(d, PAULI_Z)
    assert np.abs(shifted - (PAULI_Z - 0.5 * np.eye(2))).max() <= 1e-15
    half = density(np.eye(2, dtype=complex) / 2)
    assert np.abs(_centered(half, PAULI_X) - PAULI_X).max() <= 1e-15


def test_centering_idempotent(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = random_density(n, int(rng.integers(1 << 30)))
        a = random_observable(n, int(rng.integers(1 << 30)))
        once = _centered(d, a)
        twice = _centered(d, once)
        assert np.abs(twice - once).max() <= 1e-12
        assert abs(np.trace(d.matrix @ once).real) <= 1e-13


def test_centering_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        eigenframe(qubit_state(), [np.eye(3, dtype=complex)])


def test_eigenframe_diagonal_state_is_transparent():
    # ascending diagonal, so the eigenbasis is the standard basis exactly
    d = density(np.diag([0.25, 0.75]).astype(complex))
    frame = eigenframe(d, [PAULI_X])
    assert np.abs(frame.observables[0] - PAULI_X).max() <= 1e-15
    assert np.all(frame.lambdas == [0.25, 0.75])


def test_eigenframe_commuting_case_stays_diagonal():
    d = density(np.diag([0.1, 0.3, 0.6]).astype(complex))
    a = np.diag([1.0, -2.0, 1.0]).astype(complex)
    frame = eigenframe(d, [a])
    off = frame.observables[0].copy()
    np.fill_diagonal(off, 0.0)
    assert np.abs(off).max() <= 1e-15


def test_eigenframe_centering_residue(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        d = random_density(n, int(rng.integers(1 << 30)), "generic")
        obs = [random_observable(n, int(rng.integers(1 << 30))) for _ in range(3)]
        frame = eigenframe(d, obs)
        assert frame.size == 3 and frame.dim == n
        for a in frame.observables:
            assert np.abs(a - a.conj().T).max() <= 1e-14
            assert abs(np.sum(frame.lambdas * a.diagonal().real)) <= 1e-12


def test_eigenframe_stack_refuses_a_spectrum_that_does_not_match_its_states():
    # diag(0.3, 0.7) given the spectrum (0.7, 0.3): the centered diag(1, 0) averages to 0.4
    matrices = np.diag([0.3, 0.7]).astype(complex)[None]
    states = (matrices, np.array([[0.7, 0.3]]), np.eye(2, dtype=complex)[None])
    obs = np.array([[PAULI_X, np.diag([1.0, 0.0])]], dtype=complex)
    with pytest.raises(ValueError, match=r"^observable 1: centering residue 4\.000e-01 after rotation$"):
        eigenframe_stack(states, obs, frobenius(obs))


def test_eigenframe_observables_are_one_read_only_array():
    frame = eigenframe(random_density(3, 5), [random_observable(3, 6 + k) for k in range(2)])
    assert frame.observables.shape == (2, 3, 3)
    with pytest.raises(ValueError, match="read-only"):
        frame.observables[0, 0, 1] = 0.0


def test_eigenframe_input_validation():
    d = qubit_state()
    with pytest.raises(ValueError, match="at least one"):
        eigenframe(d, [])
    with pytest.raises(ValueError, match="shape"):
        eigenframe(d, [np.eye(3, dtype=complex)])


@pytest.mark.parametrize("kind", ["generic", "degenerate", "near-singular"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_random_density_is_valid_and_deterministic(n, kind):
    first = random_density(n, 42, kind)
    second = random_density(n, 42, kind)
    assert np.array_equal(first.matrix, second.matrix)
    for seed in range(50):
        d = random_density(n, seed, kind)
        assert abs(np.trace(d.matrix).real - 1.0) <= 1e-12
        assert d.eigenvalues[0] >= 1e-10
        assert np.abs(d.matrix - d.matrix.conj().T).max() == 0.0


def test_random_density_kinds_have_their_shape():
    d = random_density(3, 7, "degenerate")
    gaps = np.diff(d.eigenvalues)
    assert gaps.min() <= 1e-12
    # the floor is set before renormalization, so it lands near 1e-8, not on it
    ns = random_density(4, 7, "near-singular")
    assert 0.5e-8 < ns.eigenvalues[0] < 2e-8


def test_random_density_validation():
    with pytest.raises(ValueError, match="dimension"):
        random_density(1, 0)
    with pytest.raises(ValueError, match="dimension"):
        random_density(17, 0)
    with pytest.raises(ValueError, match="kind"):
        random_density(3, 0, "weird")


def test_random_observable_contract():
    for seed in range(100):
        a = random_observable(3, seed)
        assert np.abs(a - a.conj().T).max() == 0.0
        assert abs(frobenius_one(a) - 1.0) <= 1e-12
    pairs = [(s, s + 1000) for s in range(100)]
    for s, t in pairs:
        assert frobenius_one(random_observable(3, s) - random_observable(3, t)) > 1e-6
    assert np.array_equal(random_observable(4, 5), random_observable(4, 5))
    with pytest.raises(ValueError, match="dimension"):
        random_observable(1, 0)


def test_derive_seed_is_stable():
    assert derive_seed("density", 3, 42, "generic") == derive_seed("density", 3, 42, "generic")
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("a", 12) != derive_seed("a", 1, 2)


def test_offdiagonal_dependence_cases():
    d = density(np.diag([0.25, 0.75]).astype(complex))
    two = eigenframe(d, [PAULI_X, PAULI_X + PAULI_Z])
    rep = dependence_one(two)
    assert rep == (True, 1)

    indep = dependence_one(eigenframe(d, [PAULI_X, PAULI_Y]))
    assert indep == (False, 2)

    single_diag = dependence_one(eigenframe(d, [PAULI_Z]))
    assert single_diag[0] and single_diag[1] == 0

    single = dependence_one(eigenframe(d, [PAULI_X]))
    assert not single[0] and single[1] == 1


def test_offdiagonal_dependence_survives_basis_rounding():
    # Diagonal in a computed eigenbasis: rotating back into that basis leaves
    # rounding noise in the off-diagonal entries, which must still read as
    # zero directions rather than as full rank.
    d = random_density(3, 515)
    u = d.eigen.unitary
    a = u @ np.diag([0.3, -1.1, 0.8]) @ u.conj().T
    frame = eigenframe(d, [0.5 * (a + a.conj().T)])
    offupper = frame.observables[0][np.triu_indices(3, k=1)]
    assert 0.0 < np.abs(offupper).max() < 1e-12
    got = dependence_one(frame)
    assert got[0] and got[1] == 0


def test_pinching_identity_and_full():
    x = (np.arange(16.0) + 1j * np.arange(16.0)[::-1]).reshape(4, 4)
    assert np.array_equal(pinching_one(x, [range(4)]), x)
    diag = pinching_one(x, [[0], [1], [2], [3]])
    assert np.array_equal(diag, np.diag(np.diag(x)))


def test_pinching_preserves_density(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        d = random_density(n, int(rng.integers(1 << 30)))
        part = random_partition(n, int(rng.integers(1 << 30)))
        out = pinching_one(d.matrix, part)
        assert abs(np.trace(out).real - np.trace(d.matrix).real) <= 1e-15
        pinched = density(out)  # validates trace, Hermiticity, positivity
        assert pinched.eigenvalues[0] > 0.0


def test_pinching_rejects_bad_partition():
    # pinching takes partitions as given; a partition from outside is judged by check_metric_contraction,
    # the one function that takes one, before it reaches pinching
    d, x = density(np.eye(3, dtype=complex) / 3.0), np.eye(3, dtype=complex)
    for partition in ([[0, 1]], [[0, 1], [1, 2]]):
        with pytest.raises(ValueError, match=r"^partition .* does not partition range\(3\)$"):
            check_metric_contraction(d, x, SLD, partition)


def test_random_partition_covers_range():
    for seed in range(50):
        part = random_partition(5, seed)
        flat = sorted(i for block in part for i in block)
        assert flat == list(range(5))
        assert 1 <= len(part) <= 5
    assert random_partition(5, 9) == random_partition(5, 9)

