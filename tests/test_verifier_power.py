"""Verifier power: a bound that is false must be caught.

A planted function outside the operator monotone class gives a quantum
covariance matrix that can exceed the covariance matrix.  Both matrices are
formed here through the definition routes of ``oracles`` (trace formula and
metric inner product of the commutators), never through the transformed
function that the program's fast route sums, so the tests show that ``main``
with its window tol * scale reports what the definitions say, and that the
Loewner form Cov >= Qov_f, which ``main`` follows from, fails wherever it does.

Metamorphic relations: a unitary conjugation of the state and the family, a
shift of each observable by a multiple of the identity (up to 1e8 times it,
for the frame and the structure the equality checks read), a permutation of the
family and an integer map of the family with determinant +-1 leave every bound
unchanged, so they must leave every outcome of the campaign's checks unchanged
too, and the planted violations with them.  An invertible map C of the family
takes Cov and every Qov_f to C K C^T, so it scales every determinant by det(C)^2.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from oracles import cov_matrix, det_one, instance_views, planted_function, qov_matrix, scale_one
from qfidet.campaign import CampaignConfig, _campaign_plan
from qfidet.inequalities import DEFAULT_TOL, PreparedInstance, prepare_random
from qfidet.linalg import frobenius
from qfidet.states import STATE_KINDS, density, derive_seed, eigenframe_stack

# the cells of the sweep, each with 16 near-singular instances (smallest eigenvalue 1e-8)
PLANTED_CELLS = ((2, 1), (3, 2), (4, 3))
# the Loewner form fails where the least eigenvalue of Cov - Qov_f is below -LOEWNER_TOL * scale
LOEWNER_TOL = 1e-12


# the cells of the relations, each with RELATION_DRAWS instances of each kind
RELATION_CELLS = ((2, 1), (3, 2), (4, 3))
RELATION_DRAWS = 3
# every outcome of an instance in a default campaign: (check, f, g, t, function, arguments)
LAYOUT = _campaign_plan(CampaignConfig())[2]


def _conjugate(rng, state: np.ndarray, obs) -> tuple:
    """(U D U*, [U A_k U*]) for a Haar-random unitary U."""
    n = len(state)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (np.diag(r) / abs(np.diag(r)))
    return u @ state @ u.conj().T, [u @ a @ u.conj().T for a in obs]


def _shift(rng, state: np.ndarray, obs) -> tuple:
    """(D, [A_k + c_k I]) with each |c_k| <= 1."""
    return state, [a + c * np.eye(len(a)) for a, c in zip(obs, rng.uniform(-1.0, 1.0, len(obs)))]


def _permute(rng, state: np.ndarray, obs) -> tuple:
    """(D, the family in a random order)."""
    return state, [obs[k] for k in rng.permutation(len(obs))]


def _unimodular(rng, size: int) -> np.ndarray:
    """An integer matrix of determinant +-1: a unit lower times a unit upper triangular matrix, each with its
    entries below or above the diagonal in {-1, 0, 1}, with its rows signed and permuted."""
    lower = np.eye(size, dtype=int) + np.tril(rng.integers(-1, 2, (size, size)), -1)
    upper = np.eye(size, dtype=int) + np.triu(rng.integers(-1, 2, (size, size)), 1)
    return (rng.choice((-1, 1), (size, 1)) * (lower @ upper))[rng.permutation(size)]


def _mix(rng, state: np.ndarray, obs) -> tuple:
    """(D, [sum_l C_kl A_l]) for a drawn integer C of determinant +-1."""
    return state, [sum(c * a for c, a in zip(row, obs)) for row in _unimodular(rng, len(obs))]


# relation -> (its map, whether the contraction outcomes are compared, whether the determinants above their
# windows are): contraction pinches in the computational basis and reads the first observable, so only the
# shift leaves it unchanged; a conjugated state has its own eigensolve, whose rounding moved determinants of
# near-singular instances by up to 4.1e-9 relative, while the other maps leave the state as it is
RELATIONS = {
    "conjugation": (_conjugate, False, False),
    "shift": (_shift, True, True),
    "permutation": (_permute, False, True),
    "invertible-map": (_mix, False, True),
}


def _outcomes(state: np.ndarray, obs) -> dict:
    """(check, f, g, t) -> the outcome on the instance (state, obs), of every layout entry."""
    inst = PreparedInstance(density(state), list(obs))
    return {(name, f and f.label, g and g.label, t): check(inst, *arguments) for name, f, g, t, check, arguments in LAYOUT}


@lru_cache(maxsize=None)
def _drawn() -> tuple:
    """(seed, kind, state, observables, every outcome on them) of each instance the relations are tried on."""
    drawn = []
    for n, n_obs in RELATION_CELLS:
        for kind in STATE_KINDS:
            for k in range(RELATION_DRAWS):
                seed = derive_seed("relations", n, n_obs, kind, k)
                views = instance_views(prepare_random(n, n_obs, seed, kind))
                state, obs = views.state.matrix, list(views.observables)
                drawn.append((seed, kind, state, obs, _outcomes(state, obs)))
    return tuple(drawn)


def _determinants_off(was, now, factor: float, n_obs: int) -> list:
    """The key of each determinant of ``was`` above both outcomes' windows that ``now`` does not give as
    ``factor`` times it to within 1e-9 relative plus the determinant's rounding floor N eps scale^N.

    Each N x N matrix of the bounds has a norm of at most scale = max(1, sum of squared norms of the
    observables), and its entries carry roundings of about eps times that, which move its determinant by
    up to N eps scale^N.  So a determinant a few windows above 0, such as det(Cov - Qov_sld) of a
    near-singular qubit, can move by more than 1e-9 of itself with the same matrix."""
    scale = max(was.scale, now.scale)
    window = max(was.tol * was.scale, now.tol * now.scale)
    floor = n_obs * np.finfo(float).eps * scale**n_obs
    after = now.components
    return [key for key, det in was.components.items() if key.startswith("det_") and det is not None and abs(det) > window
            and not abs(after[key] - factor * det) <= 1e-9 * abs(factor * det) + floor]


def _relation_breaks(relation: str) -> list:
    """(seed, kind, outcome key, what differs) of each outcome that ``relation`` changes on the drawn instances."""
    transform, contraction, determinants = RELATIONS[relation]
    breaks = []
    for seed, kind, state, obs, before in _drawn():
        after = _outcomes(*transform(np.random.default_rng(derive_seed(relation, seed)), state, obs))
        for key, was in before.items():
            if key[0] == "contraction" and not contraction:
                continue
            now = after[key]
            window = min(was.tol * was.scale, now.tol * now.scale)
            if (was.passed, was.hypothesis_ok) != (now.passed, now.hypothesis_ok):
                breaks.append((seed, kind, key, "verdict"))
            elif key[0] == "equality" and was.components["verdict"] != now.components["verdict"]:
                breaks.append((seed, kind, key, "equality verdict"))
            elif not abs(was.margin - now.margin) <= window:
                breaks.append((seed, kind, key, f"margin moved {now.margin - was.margin:.3e}, window {window:.1e}"))
            elif determinants and (moved := _determinants_off(was, now, 1.0, len(obs))):
                breaks.append((seed, kind, key, f"determinants moved: {', '.join(moved)}"))
    return breaks


@pytest.mark.parametrize("relation", list(RELATIONS))
def test_each_relation_leaves_every_outcome_of_every_check_unchanged(relation):
    assert _relation_breaks(relation) == []


# the cells and shifts c of the large-shift relation, one drawn family per kind in each cell
SHIFT_CELLS = ((3, 2), (4, 3))
LARGE_SHIFTS = (1e4, 1e6, 1e8)


@pytest.mark.parametrize("c", LARGE_SHIFTS)
def test_a_large_shift_builds_the_frame_and_structure_of_the_unshifted_family(c):
    # Cov and Qov_f see A_k only through its centered part, so A_k + c I must build as A_k does: the frame's
    # rounding floors scale with the observables as given, whose norms grow with c, as their rounding does
    off = []
    for n, n_obs in SHIFT_CELLS:
        for kind in STATE_KINDS:
            views = instance_views(prepare_random(n, n_obs, derive_seed("large-shift", n, n_obs, kind), kind))
            d, obs = density(views.state.matrix), list(views.observables)
            was, now = PreparedInstance(d, obs), PreparedInstance(d, [a + c * np.eye(n) for a in obs])
            moved = np.abs(instance_views(now).frame.observables - instance_views(was).frame.observables).max()
            if not moved <= 64 * n * np.finfo(float).eps * max(1.0, c):
                off.append((n, n_obs, kind, f"frame moved {moved:.3e}"))
            if now._block.structure[None] != was._block.structure[None]:
                off.append((n, n_obs, kind, "structure"))
    assert off == []
    # a spectrum that does not match its states is refused with a shifted family as without one
    states = (np.diag([0.3, 0.7]).astype(complex)[None], np.array([[0.7, 0.3]]), np.eye(2, dtype=complex)[None])
    obs = np.array([[np.eye(2), np.diag([1.0, 0.0])]], dtype=complex) + c * np.eye(2)
    with pytest.raises(ValueError, match=r"^observable 1: centering residue 4\.000e-01 after rotation$"):
        eigenframe_stack(states, obs, frobenius(obs))


def test_doubling_the_first_observable_scales_every_determinant_by_four():
    # C = diag(2, 1, ...), with det(C)^2 = 4; the windows grow with the family, so verdicts are not compared
    off = []
    for seed, kind, state, obs, before in _drawn():
        after = _outcomes(state, [2.0 * obs[0], *obs[1:]])
        off += [(seed, kind, key, moved) for key, was in before.items() if key[0] != "contraction"
                for moved in _determinants_off(was, after[key], 4.0, len(obs))]
    assert off == []


def test_the_planted_main_failures_survive_a_unitary_conjugation():
    # the definition route of the sweep on each instance conjugated by its own random unitary
    f = planted_function(0.25)
    caught = []
    for n, n_obs in PLANTED_CELLS:
        for k in range(16):
            seed = derive_seed("planted", n, n_obs, k)
            views = instance_views(prepare_random(n, n_obs, seed, "near-singular"))
            state, obs = _conjugate(np.random.default_rng(derive_seed("conjugation", seed)), views.state.matrix, views.observables)
            d = density(state)
            if det_one(cov_matrix(d, obs)) - det_one(qov_matrix(d, f, obs)) < -DEFAULT_TOL * scale_one(obs)[0]:
                caught.append((n, n_obs, k))
    assert caught and caught == _main_failures(0.25)  # the same 16 of 48


@lru_cache(maxsize=None)
def _failures(c: float) -> tuple:
    """(n, N, k) of each instance of the sweep on which det Cov >= det Qov_{f_c} fails by more than tol * scale,
    and of each on which the Loewner form fails, both as tuples."""
    f = planted_function(c)
    main, loewner = [], []
    for n, n_obs in PLANTED_CELLS:
        for k in range(16):
            inst = prepare_random(n, n_obs, derive_seed("planted", n, n_obs, k), "near-singular")
            views = instance_views(inst)
            cov, qov = cov_matrix(views.state, views.observables), qov_matrix(views.state, f, views.observables)
            if det_one(cov) - det_one(qov) < -DEFAULT_TOL * inst.scale:
                main.append((n, n_obs, k))
            if np.linalg.eigvalsh(cov - qov)[0] < -LOEWNER_TOL * inst.scale:
                loewner.append((n, n_obs, k))
    return tuple(main), tuple(loewner)


def _main_failures(c: float) -> list:
    return list(_failures(c)[0])


def test_main_catches_the_planted_function_and_passes_its_operator_monotone_end():
    assert _main_failures(0.25)  # 16 of the 48 instances, all at (n, N) = (2, 1)
    assert _main_failures(0.0) == []  # f_0 is sld's (1 + x)/2


def test_the_loewner_form_fails_wherever_main_does_and_holds_at_the_operator_monotone_end():
    main, loewner = _failures(0.25)
    assert loewner  # 16 of the 48 instances, the ones on which main fails
    assert set(main) <= set(loewner)
    assert _failures(0.0)[1] == ()
