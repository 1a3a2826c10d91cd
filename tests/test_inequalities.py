from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from qfidet.campaign import BLOCK_INSTANCES, DEFAULT_T_GRID, CampaignConfig, CheckPlan, run_campaign
from qfidet.covariance import metric_inner
from qfidet.inequalities import (
    InequalityReport,
    InstanceBlock,
    PreparedInstance,
    _equality,
    _report,
    check_conj1,
    check_conj2,
    check_firey,
    check_main,
    check_metric_contraction,
    check_robertson,
    classify_equality,
    contraction_report,
    fill_contraction,
    minkowski_firey_selftest,
    prepare_random,
)
from qfidet.monotone import make_function
from qfidet.states import (
    POSITIVITY_FLOOR,
    STATE_KINDS,
    density,
    derive_seed,
    observable,
    random_density,
    random_observable,
    random_partition,
)

from conftest import PAULI_X, PAULI_Y, PAULI_Z
from oracles import components_reference, det_one, instance_views, pinching_one, remainder, remainder_t, scale_one
from oracles import draw_per_matrix, prepared_per_matrix, robertson_matrix

SLD = make_function("sld")
WY = make_function("wy")
WYD = make_function("wyd", 0.3)
KM = make_function("kubo-mori")


@pytest.fixture
def tight():
    d = density(np.diag([0.75, 0.25]).astype(complex))
    return PreparedInstance(d, [PAULI_X, PAULI_Y], digest="qubit-tight")


def test_remainder_examples():
    assert remainder(1.0 / 16.0, 9.0 / 16.0, 2) == pytest.approx(3.0 / 8.0, abs=1e-15)
    assert remainder(0.3, 0.7, 1) == 0.0
    assert remainder(0.0, 0.7, 5) == 0.0
    assert remainder(0.7, 0.0, 5) == 0.0
    assert remainder(-1e-13, 0.5, 3) == 0.0  # roundoff clamp
    with pytest.raises(ValueError, match="negative"):
        remainder(-1e-9, 0.5, 2)
    with pytest.raises(ValueError, match="count"):
        remainder(0.5, 0.5, 0)


def test_remainder_closes_the_binomial(rng):
    for _ in range(200):
        q = float(rng.uniform(0.0, 2.0))
        c = float(rng.uniform(0.0, 2.0))
        n = int(rng.integers(1, 6))
        full = (q ** (1.0 / n) + c ** (1.0 / n)) ** n
        assert remainder(q, c, n) == pytest.approx(full - q - c, rel=1e-12, abs=1e-13)


def test_remainder_t_examples():
    assert remainder_t(1.0 / 16.0, 9.0 / 16.0, 2, 0.5) == pytest.approx(3.0 / 32.0, abs=1e-15)
    assert remainder_t(0.3, 0.7, 4, 0.0) == 0.0
    assert remainder_t(0.3, 0.7, 4, 1.0) == 0.0
    with pytest.raises(ValueError, match="t must"):
        remainder_t(0.3, 0.7, 4, 1.5)


def test_remainder_t_halving(rng):
    for _ in range(200):
        q = float(rng.uniform(0.0, 3.0))
        c = float(rng.uniform(0.0, 3.0))
        n = int(rng.integers(1, 6))
        assert remainder_t(q, c, n, 0.5) == pytest.approx(
            remainder(q, c, n) / 2**n, rel=1e-12, abs=1e-15
        )


def test_tight_witness_components(tight):
    assert tight.det("cov") == pytest.approx(1.0, abs=1e-12)
    assert tight.det(SLD) == pytest.approx(1.0 / 16.0, abs=1e-12)
    rep = check_conj1(tight, SLD)
    assert rep.components["det_diff"] == pytest.approx(9.0 / 16.0, abs=1e-12)
    assert rep.components["remainder"] == pytest.approx(3.0 / 8.0, abs=1e-12)
    assert abs(rep.margin) <= 1e-12
    assert rep.passed and rep.clamps == 0
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


def test_tight_witness_firey_half(tight):
    rep = check_firey(tight, SLD, 0.5)
    assert rep.lhs == pytest.approx(0.25, abs=1e-12)
    assert rep.components["det_small"] * 0.25 == pytest.approx(1.0 / 64.0, abs=1e-12)
    assert rep.components["det_diff"] * 0.25 == pytest.approx(9.0 / 64.0, abs=1e-12)
    assert rep.components["remainder_t"] == pytest.approx(6.0 / 64.0, abs=1e-12)
    assert abs(rep.margin) <= 1e-12


def test_main_examples(tight):
    d = density(np.diag([0.75, 0.25]).astype(complex))
    single = PreparedInstance(d, [PAULI_X])
    rep = check_main(single, SLD)
    assert rep.lhs == pytest.approx(1.0, abs=1e-13)
    assert rep.rhs == pytest.approx(0.25, abs=1e-13)
    assert rep.passed and rep.margin == pytest.approx(0.75, abs=1e-12)

    mixed = PreparedInstance(density(np.eye(2, dtype=complex) / 2), [PAULI_X, PAULI_Y])
    rep2 = check_main(mixed, SLD)
    assert abs(rep2.rhs) <= 1e-13 and rep2.passed

    both = check_main(tight, SLD)
    assert both.lhs == pytest.approx(1.0, abs=1e-12)
    assert both.rhs == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_conj1_single_observable_is_an_identity():
    for seed in range(10):
        inst = prepare_random(3, 1, seed)
        for f in (SLD, WY, WYD):
            rep = check_conj1(inst, f)
            assert abs(rep.margin) <= 1e-14
            assert rep.rhs >= rep.components["det_qov"]


def test_conj1_beats_main(rng):
    for seed in range(30):
        inst = prepare_random(int(rng.integers(2, 5)), int(rng.integers(1, 4)), 100 + seed)
        for f in (SLD, WY):
            conj1 = check_conj1(inst, f)
            main = check_main(inst, f)
            assert conj1.rhs >= main.rhs - 1e-13 * inst.scale
            assert conj1.passed and main.passed


def test_conj2_hand_values():
    d = density(np.diag([0.75, 0.25]).astype(complex))
    q_wy = (2.0 - math.sqrt(3.0)) / 2.0

    single = PreparedInstance(d, [PAULI_X])
    rep = check_conj2(single, SLD, WY)
    assert rep.hypothesis_ok
    assert rep.lhs == pytest.approx(0.25, abs=1e-13)
    assert rep.components["det_qov_g"] == pytest.approx(q_wy, abs=1e-13)
    assert abs(rep.margin) <= 1e-13

    pair = PreparedInstance(d, [PAULI_X, PAULI_Y])
    rep2 = check_conj2(pair, SLD, WY)
    assert rep2.lhs == pytest.approx(1.0 / 16.0, abs=1e-13)
    assert rep2.components["det_qov_g"] == pytest.approx(q_wy**2, abs=1e-13)
    assert rep2.components["det_diff_fg"] == pytest.approx((0.25 - q_wy) ** 2, abs=1e-13)
    assert rep2.components["remainder"] == pytest.approx(2.0 * q_wy * (0.25 - q_wy), abs=1e-13)
    assert abs(rep2.margin) <= 1e-13  # proportional matrices are tight


def test_conj2_hypothesis_flag():
    inst = prepare_random(3, 2, 7)
    backwards = check_conj2(inst, WY, SLD)
    assert not backwards.hypothesis_ok
    assert not backwards.violated  # hypothesis failures are not counterexamples

    degenerate = check_conj2(inst, SLD, KM)
    assert degenerate.hypothesis_ok  # positive ratio strictly dominates the zero one
    assert degenerate.components["det_qov_g"] == 0.0
    assert degenerate.passed and abs(degenerate.margin) <= 1e-13 * inst.scale

    nonregular_f = check_conj2(inst, KM, SLD)
    assert not nonregular_f.hypothesis_ok


def test_firey_endpoints_and_range(rng):
    inst = prepare_random(3, 2, 11)
    for f in (SLD, WY):
        assert abs(check_firey(inst, f, 0.0).margin) <= 1e-12 * inst.scale
        assert abs(check_firey(inst, f, 1.0).margin) <= 1e-12 * inst.scale
    with pytest.raises(ValueError, match="t must"):
        check_firey(inst, SLD, -0.1)


def test_firey_half_recovers_conj1(rng):
    for seed in range(20):
        inst = prepare_random(int(rng.integers(2, 5)), int(rng.integers(1, 4)), 500 + seed)
        n = instance_views(inst).frame.size
        for f in (SLD, WYD):
            half = check_firey(inst, f, 0.5)
            full = check_conj1(inst, f)
            assert half.lhs == pytest.approx(full.lhs / 2**n, rel=1e-11, abs=1e-13)
            assert half.components["remainder_t"] == pytest.approx(
                full.components["remainder"] / 2**n, rel=1e-11, abs=1e-13
            )
            assert half.margin == pytest.approx(full.margin / 2**n, rel=1e-9, abs=1e-12)


def test_firey_pair_form(rng):
    inst = prepare_random(3, 2, 21)
    rep = check_firey(inst, SLD, 0.3, g=WY)
    assert rep.hypothesis_ok and rep.passed
    rep_bad = check_firey(inst, WY, 0.3, g=SLD)
    assert not rep_bad.hypothesis_ok


def test_firey_grid_passes(rng):
    grid = np.linspace(0.0, 1.0, 11)
    for seed in range(12):
        inst = prepare_random(int(rng.integers(2, 5)), int(rng.integers(1, 4)), 900 + seed)
        for t in grid:
            assert check_firey(inst, SLD, float(t)).passed
            assert check_firey(inst, SLD, float(t), g=WY).passed


def test_robertson_hand_values(tight):
    rep = check_robertson(tight)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.25, abs=1e-12)
    assert rep.passed

    mixed = PreparedInstance(density(np.eye(2, dtype=complex) / 2), [PAULI_X, PAULI_Y])
    assert abs(check_robertson(mixed).rhs) <= 1e-14


def test_robertson_odd_count_is_zero():
    inst = prepare_random(3, 3, 33)
    rep = check_robertson(inst)
    assert rep.rhs == 0.0
    assert rep.passed


def test_robertson_frame_route_matches_trace_route(rng):
    for seed in range(15):
        inst = prepare_random(int(rng.integers(2, 5)), int(rng.integers(2, 4)), 40 + seed)
        views = instance_views(inst)
        direct = robertson_matrix(views.state, list(views.observables))
        assert np.abs(direct - inst.matrix("robertson")).max() <= 1e-12


# the cells of the Gram test below, each drawn 3 times of each kind
GRAM_CELLS = ((2, 1), (2, 2), (3, 2), (3, 4), (4, 3), (4, 4), (4, 6))


def test_cov_plus_i_robertson_is_a_psd_gram_matrix():
    """S = Cov + iR is the Gram matrix Tr(D A_k A_l) of the centered family, so it is PSD.  Whitened by
    Cov = L L^T, iR has eigenvalues nu in [-1, 1] in +- pairs, so L^-1 S L^-T = I + L^-1 (iR) L^-T >= 0;
    det R / det Cov = prod |nu| at even N, and one nu is 0 at odd N.  Each bound is 64 N eps cond(Cov):
    the Cholesky factor, the triangular solves and both determinants are backward stable, so each is
    off by a few N eps cond(Cov), relative to 1 or to the product."""
    eps = np.finfo(float).eps
    for n, n_obs in GRAM_CELLS:
        drawn = [
            prepare_random(n, n_obs, derive_seed("robertson-gram", n, n_obs, kind, k), kind)
            for kind in STATE_KINDS
            for k in range(3)
        ]
        InstanceBlock(drawn)
        for inst in drawn:
            cov, r = inst.matrix("cov"), inst.matrix("robertson")
            chol = np.linalg.cholesky(cov)
            w = np.linalg.solve(chol, np.linalg.solve(chol, 1j * r).T).T  # L^-1 (iR) L^-T
            nu = np.linalg.eigvalsh(0.5 * (w + w.conj().T))
            bound = 64 * n_obs * eps * np.linalg.cond(cov)
            assert np.abs(nu).max() <= 1.0 + bound, inst.digest
            assert np.abs(nu + nu[::-1]).max() <= bound, inst.digest
            if n_obs % 2:
                assert np.abs(nu).min() <= bound, inst.digest
            else:
                ratio = inst.det("robertson") / inst.det("cov")
                assert abs(np.prod(np.abs(nu)) - ratio) <= bound * abs(ratio), inst.digest


def test_robertson_passes_randomly(rng):
    for seed in range(40):
        inst = prepare_random(int(rng.integers(2, 5)), int(rng.integers(1, 5)), 70 + seed)
        assert check_robertson(inst).passed


def test_classify_collapsed_pair():
    d = density(np.diag([0.75, 0.25]).astype(complex))
    inst = PreparedInstance(d, [PAULI_X, PAULI_X + np.eye(2)])
    got = classify_equality(inst, SLD, WY).components
    assert got["condition_a"] and got["condition_b"] and got["condition_c"]
    assert got["linearly_dependent"] and got["offdiag_dependent"]
    assert got["verdict"] == "a,b,c" and got["consistent"]
    assert got["det_cov"] <= 1e-10 and got["det_qov_f"] <= 1e-10


def test_classify_identity_multiple_is_dependent():
    # Centering wipes out an observable proportional to the identity, so the
    # leftover rounding noise must not be counted as an independent direction.
    inst = PreparedInstance(random_density(2, 77), [PAULI_X, 2.5 * np.eye(2, dtype=complex)])
    got = classify_equality(inst, SLD, WY).components
    assert got["linearly_dependent"] and got["rank"] == 1
    assert got["condition_a"] and got["condition_c"] and got["consistent"]


def test_classify_independent_pair(tight):
    got = classify_equality(tight, SLD, WY).components
    assert got["verdict"] == "none"
    assert not got["linearly_dependent"] and not got["offdiag_dependent"]
    assert got["consistent"]
    assert got["rank"] == 2


def test_classify_single_diagonal_observable():
    # offdiagonal dependence without linear dependence: b holds, a and c fail
    d = density(np.diag([0.75, 0.25]).astype(complex))
    inst = PreparedInstance(d, [PAULI_Z])
    got = classify_equality(inst, SLD, WY).components
    assert got["condition_b"] and not got["condition_a"] and not got["condition_c"]
    assert got["offdiag_dependent"] and not got["linearly_dependent"]
    assert got["verdict"] == "b" and got["consistent"] and got["resolved"]
    assert got["det_cov"] > 0.5  # variance of sigma_z at p = 3/4


def test_classify_without_second_function(tight):
    got = classify_equality(tight, SLD).components
    assert got["condition_b"] is None and got["det_qov_g"] is None
    assert got["verdict"] == "none" and got["consistent"]


def test_classify_no_false_equalities(rng):
    # generic states: a and c never fire, and b tracks offdiagonal dependence
    # exactly (for n = 2 a third observable is offdiagonally dependent by
    # dimension count, and its Qov determinant genuinely vanishes)
    for seed in range(60):
        inst = prepare_random(int(rng.integers(2, 5)), int(rng.integers(1, 4)), 1500 + seed)
        got = classify_equality(inst, SLD, WY).components
        assert not got["condition_a"] and not got["condition_c"]
        assert got["condition_b"] == got["offdiag_dependent"]
        assert got["resolved"] and got["consistent"]


def test_classify_near_pure_state_is_flagged_not_failed():
    # n = 2 near-singular states are nearly pure, where Cov -> Qov_sld and the
    # condition-a determinant gap shrinks to the order of the smallest
    # eigenvalue; where it lands inside the window the instance is unresolved
    drawn = [prepare_random(2, 2, derive_seed(2026, 2, 2, "near-singular", k), "near-singular") for k in range(20)]
    fired = [got for got in (classify_equality(inst, SLD, WY).components for inst in drawn) if got["condition_a"]]
    assert fired
    for got in fired:
        assert not got["linearly_dependent"]
        assert not got["resolved"]
        assert got["consistent"]


def test_classify_degenerate_spectrum_is_flagged_not_failed():
    # at the maximally mixed state every commutator vanishes, so both Qov
    # determinants are exactly zero for independent observables: condition b
    # fires but cannot count against the equivalence
    inst = PreparedInstance(density(np.eye(2, dtype=complex) / 2), [PAULI_X, PAULI_Y])
    got = classify_equality(inst, SLD, WY).components
    assert got["det_qov_f"] == 0.0 and got["det_qov_g"] == 0.0
    assert got["condition_b"] and not got["offdiag_dependent"]
    assert not got["condition_a"] and not got["condition_c"]
    assert not got["resolved"]
    assert got["consistent"]


@pytest.mark.parametrize(
    "dependent, offdiag, condition_a, condition_b, outcome",
    [
        # (passed, hypothesis_ok, margin, violated)
        (False, False, False, False, (True, True, 0.0, False)),
        (True, True, True, True, (True, True, 0.0, False)),
        (True, True, False, True, (False, True, -1.0, True)),  # dependent, no det equality
        (False, True, False, False, (False, True, -1.0, True)),  # offdiag dependent, no b
        (False, False, True, False, (True, False, 0.0, False)),  # a without dependence
        (False, False, False, True, (True, False, 0.0, False)),  # b without dependence
        (False, False, False, None, (True, True, 0.0, False)),  # no second function
    ],
)
def test_classification_reads_as_an_outcome(dependent, offdiag, condition_a, condition_b, outcome):
    det_qov_g = None if condition_b is None else 0.25
    facts = (1.0, 0.5, det_qov_g, condition_a, condition_b, dependent, dependent, offdiag, 1 if dependent else 2)
    got = _equality(facts, 1.0, 1e-9, "facts")
    assert (got.passed, got.hypothesis_ok, got.margin, got.violated) == outcome
    assert got.passed == got.components["consistent"] and got.clamps == 0
    assert type(got.margin) is float
    assert (got.name, got.lhs, got.rhs) == ("equality", 1.0, 0.5)
    assert list(got.components.values())[:9] == list(facts)


def test_minkowski_selftest_hand_value():
    rep = minkowski_firey_selftest(np.eye(2), np.diag([1.0, 4.0]), 0.5)
    assert rep.lhs == pytest.approx(math.sqrt(2.5), abs=1e-13)
    assert rep.rhs == pytest.approx(1.5, abs=1e-13)
    assert rep.margin == pytest.approx(math.sqrt(2.5) - 1.5, abs=1e-12)
    assert rep.passed


def test_minkowski_selftest_equalities():
    k = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert abs(minkowski_firey_selftest(k, k, 0.5).margin) <= 1e-12
    l = np.diag([3.0, 0.1])
    assert abs(minkowski_firey_selftest(k, l, 0.0).margin) <= 1e-12
    assert abs(minkowski_firey_selftest(k, l, 1.0).margin) <= 1e-12


def test_minkowski_selftest_validation():
    k = np.eye(2)
    with pytest.raises(ValueError, match="t must"):
        minkowski_firey_selftest(k, k, 2.0)
    with pytest.raises(ValueError, match="symmetric"):
        minkowski_firey_selftest(np.array([[1.0, 1.0], [0.0, 1.0]]), k, 0.5)
    with pytest.raises(ValueError, match="positive semidefinite"):
        minkowski_firey_selftest(np.diag([1.0, -1.0]), k, 0.5)
    with pytest.raises(ValueError, match="square"):
        minkowski_firey_selftest(np.eye(2), np.eye(3), 0.5)


def test_minkowski_selftest_checks_k_and_l_as_its_determinants_do():
    # K and L are judged at the selftest's door, before the eigensolver and the determinants take them:
    # an asymmetry past SYMMETRY_TOL is named after its matrix; one inside it passes
    for off, name in ((5e-12, "L"), (5e-13, None)):
        l = np.eye(2)
        l[0, 1] += off
        if name is None:
            assert minkowski_firey_selftest(np.eye(2), l, 0.5).passed
        else:
            with pytest.raises(ValueError, match=r"^L: not symmetric, entry \(0,1\) = 5e-12 vs \(1,0\) = 0.0$"):
                minkowski_firey_selftest(np.eye(2), l, 0.5)
    with pytest.raises(ValueError, match=r"^K: non-finite entry \(0, 1\) = nan$"):
        minkowski_firey_selftest(np.array([[1.0, math.nan], [math.nan, 1.0]]), np.eye(2), 0.5)
    with pytest.raises(ValueError, match=r"^L: non-finite entry \(1, 1\) = inf$"):
        minkowski_firey_selftest(np.eye(2), np.diag([1.0, math.inf]), 0.5)


def test_contraction_identity_partition_is_equality():
    d = random_density(3, 5)
    x = random_observable(3, 6)
    rep = check_metric_contraction(d, x, WY, [range(3)])
    assert abs(rep.margin) <= 1e-10 * rep.scale
    assert rep.passed
    assert rep.components["blocks"] == 1


def test_contraction_kills_offdiagonal_tangent():
    d = density(np.diag([0.25, 0.75]).astype(complex))
    rep = check_metric_contraction(d, PAULI_X, SLD, [[0], [1]])
    assert rep.rhs == pytest.approx(0.0, abs=1e-13)
    assert rep.lhs > 0.0 and rep.passed
    assert rep.components["blocks"] == 2


@pytest.mark.parametrize("spec", ["sld", "wy", "kubo-mori", "harmonic", "wyd:0.3"])
def test_contraction_random_draws(spec, rng):
    from qfidet.monotone import parse_function_spec

    f = parse_function_spec(spec)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        d = random_density(n, 3000 + trial)
        x = random_observable(n, 4000 + trial)
        part = random_partition(n, 5000 + trial)
        rep = check_metric_contraction(d, x, f, part)
        assert rep.passed, (spec, trial, rep.margin)


def test_battery_over_random_instances(rng):
    # one pass of everything on a spread of kinds and sizes
    kinds = ("generic", "degenerate", "near-singular")
    for trial in range(36):
        n = (2, 3, 4)[trial % 3]
        n_obs = (1, 2, 3)[(trial // 3) % 3]
        inst = prepare_random(n, n_obs, 7000 + trial, kinds[trial % len(kinds)])
        for f in (SLD, WY, WYD, KM):
            assert not check_main(inst, f).violated
            assert not check_conj1(inst, f).violated
        for t in (0.0, 0.3, 0.7, 1.0):
            assert not check_firey(inst, SLD, t).violated
            assert not check_firey(inst, SLD, t, g=WYD).violated
        assert not check_conj2(inst, SLD, WY).violated
        assert not check_robertson(inst).violated
        assert classify_equality(inst, SLD, WY).components["consistent"]


def test_prepared_instance_caches(tight):
    first = tight.matrix(SLD)
    assert np.shares_memory(tight.matrix(SLD), first)  # a view of the memo, not a recomputation
    assert tight.det(SLD) == tight.det(SLD)
    inst = prepare_random(3, 2, 123, "degenerate")
    assert inst.digest == "n=3,N=2,kind=degenerate,seed=123"


def test_a_built_instance_refuses_what_no_block_makes_without_building_again():
    inst = prepare_random(3, 2, 123)
    assert inst.scale > 0.0  # built, as a block of one
    block = inst._block
    with pytest.raises(AttributeError, match="^'PreparedInstance' object has no attribute 'nope'$"):
        inst.nope
    assert inst._block is block
    # a determinant key that is not a side
    with pytest.raises(KeyError, match=r"^\('robertson', 'cov'\)$"):
        inst.det(("robertson", "cov"))


def test_a_contraction_key_that_is_not_a_function_raises_key_error():
    # as the det and pencil memos do; the fill used to call the key as a function, a bare TypeError
    inst = prepare_random(3, 2, 5)
    for key in ("nope", None, ("sld", None)):
        with pytest.raises(KeyError) as info:
            inst.contraction(key)
        assert info.value.args == (key,)
        with pytest.raises(KeyError):
            inst._block.contraction[key]
        assert key not in inst._block.contraction
    assert inst.contraction(SLD) == inst._block.contraction[SLD][inst._index]


def test_report_shape(tight):
    rep = check_conj1(tight, SLD)
    assert rep.name == "conj1"
    assert rep.digest == "qubit-tight"
    assert rep.margin == rep.lhs - rep.rhs
    assert rep.components["f"] == "sld"


def test_contraction_with_a_warm_memo_matches_a_fresh_state():
    part = [[0, 2], [1]]
    x = random_observable(3, 5)
    warm = random_density(3, 8)
    for f in (SLD, WY):
        check_metric_contraction(warm, x, f, part)
    for f in (SLD, WY):
        assert check_metric_contraction(warm, x, f, part) == check_metric_contraction(random_density(3, 8), x, f, part)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_firey_left_side_is_the_array_determinant_of_the_mix():
    pairs = ((SLD, WY), (SLD, WYD), (WY, WYD), (SLD, KM))
    for trial in range(24):
        n_obs = 1 + trial % 4
        inst = prepare_random(2 + trial % 3, n_obs, 9100 + trial, ("generic", "degenerate", "near-singular")[trial % 3])
        for t in DEFAULT_T_GRID:
            w = 1.0 - 2.0 * t
            for f in (SLD, WY, WYD, KM):
                ref = det_one(t * inst.matrix("cov") + w * inst.matrix(f))
                assert _bits(check_firey(inst, f, t).components["det_mix"]) == _bits(ref), (trial, t, f.label)
            for f, g in pairs:
                ref = det_one(t * inst.matrix(f) + w * inst.matrix(g))
                got = check_firey(inst, f, t, g=g).components["det_mix"]
                assert _bits(got) == _bits(ref), (trial, t, f.label, g.label)


MEMO_PAIRS = ((SLD, WY), (SLD, WYD), (WY, WYD), (SLD, KM))
KINDS = ("generic", "degenerate", "near-singular")


def _outcomes(plan, inst, names) -> dict:
    """(check, f label, g label, t) -> the outcome on ``inst`` at each layout entry of ``names``."""
    bound = plan.layout(names)
    return {(name, f.label, g and g.label, t): check(inst, *args) for name, f, g, t, check, args in bound}


@pytest.mark.parametrize("kind", KINDS)
def test_firey_rows_do_not_depend_on_the_memo_order(kind, rng):
    plan = CheckPlan(functions=(SLD, WY, WYD, KM), pairs=MEMO_PAIRS, tol=1e-9, t_grid=DEFAULT_T_GRID)
    pencils = [(f, None) for f in plan.functions] + list(MEMO_PAIRS)
    off_grid = 0.37
    for n in (2, 3, 4):
        for n_obs in (1, 2, 3, 4):
            seed = int(rng.integers(2**32))
            # the whole grid in one evaluation, then single rows off the grid
            filled = prepare_random(n, n_obs, seed, kind)
            plan.evaluate([filled], {"firey"})
            got = {key[1:]: rep for key, rep in _outcomes(plan, filled, {"firey"}).items()}
            got.update({(f.label, g and g.label, off_grid): check_firey(filled, f, off_grid, g=g) for f, g in pencils})
            # single rows first, on and off the grid, then the grid row by row over them
            refilled = prepare_random(n, n_obs, seed, kind)
            early = {(f.label, g and g.label, t): check_firey(refilled, f, t, g=g) for f, g in pencils for t in (off_grid, 0.3)}
            late = {key[1:]: rep for key, rep in _outcomes(plan, refilled, {"firey"}).items()}
            fresh = prepare_random(n, n_obs, seed, kind)
            # one t at a time, in a shuffled order of t and of the pencils
            for t in [off_grid, *rng.permutation(DEFAULT_T_GRID).tolist()]:
                for k in rng.permutation(len(pencils)):
                    f, g = pencils[k]
                    key = f.label, g and g.label, t
                    want = check_firey(fresh, f, t, g=g)
                    for rep in (got[key], late.get(key), early.get(key)):
                        if rep is None:
                            continue
                        assert rep == want, (n, n_obs, t, f.label)
                        for c in ("det_mix", "remainder_t"):
                            assert _bits(rep.components[c]) == _bits(want.components[c]), (n, n_obs, t, c)
                        assert _bits(rep.margin) == _bits(want.margin), (n, n_obs, t, f.label)


def test_a_clamp_from_a_wide_window_is_not_reused_in_a_narrow_one():
    # at n = 2, N = 3 det Qov_f is structurally zero and lands a rounding away from 0
    seed = next(s for s in range(100) if check_firey(prepare_random(2, 3, s), SLD, 0.5).clamps)
    inst = prepare_random(2, 3, seed)
    plan = CheckPlan(functions=(SLD,), pairs=((SLD, WY),), tol=1e-9, t_grid=DEFAULT_T_GRID)
    assert any(rep.clamps for rep in _outcomes(plan, inst, {"firey"}).values())
    for check in (
        lambda i: check_firey(i, SLD, 0.5, tol=1e-30),
        lambda i: check_firey(i, SLD, 0.37, tol=1e-30),
        lambda i: check_conj1(i, SLD, 1e-30),
    ):
        with pytest.raises(ArithmeticError) as fresh:
            check(prepare_random(2, 3, seed))
        with pytest.raises(ArithmeticError) as filled:
            check(inst)
        assert str(filled.value) == str(fresh.value)


def _conj1_error(seed: int) -> str | None:
    """The error text of conj1 at tol 1e-30 on the n = 2, N = 3 instance ``seed`` alone."""
    try:
        check_conj1(prepare_random(2, 3, seed), SLD, 1e-30)
    except ArithmeticError as exc:
        return str(exc)
    return None


def test_a_clamp_failure_inside_a_block_raises_its_instances_error():
    # n = 2, N = 3: det Qov_f is structurally zero and lands a rounding away from 0
    plan = CheckPlan(functions=(SLD,), pairs=(), tol=1e-30, t_grid=())
    clean = next(s for s in range(100) if _conj1_error(s) is None)
    first, second = [s for s in range(100) if _conj1_error(s) is not None][:2]
    block = [prepare_random(2, 3, s) for s in (clean, first, second)]
    # the block's rows hold no window: evaluating them raises nothing, each outcome tests its own
    plan.evaluate(block, {"conj1"})
    ((*_, check, args),) = plan.layout({"conj1"})
    assert check(block[0], *args).passed
    for inst, seed in zip(block[1:], (first, second)):
        with pytest.raises(ArithmeticError) as inside:
            check(inst, *args)
        assert str(inside.value) == _conj1_error(seed)
    # a campaign that reaches such an instance stops with its text; which instance fails first depends
    # on rounding signs, so on the BLAS kernel: the campaign seed is the first, from the default on, whose
    # first failing instance lies inside a block, after a clean instance
    for seed in range(CampaignConfig.seed, CampaignConfig.seed + 100):
        texts = (_conj1_error(derive_seed(seed, 2, 3, "generic", k)) for k in range(BLOCK_INSTANCES - 1))
        index, text = next(((k, text) for k, text in enumerate(texts) if text is not None), (None, None))
        if index:
            break
    assert 0 < index < BLOCK_INSTANCES - 1
    config = CampaignConfig(
        dims=(2,), num_obs=(3,), instances_per_cell=BLOCK_INSTANCES + 4, functions=("sld",), function_pairs=(),
        kinds=("generic",), tol=1e-30, checks=("main", "conj1"), seed=seed,
    )
    with pytest.raises(ArithmeticError) as campaign:
        run_campaign(config)
    assert str(campaign.value) == text


def test_a_det_qov_g_below_its_window_raises_though_the_hypothesis_failed():
    # wyd:0.7 does not dominate sld, so det(Qov_f - Qov_g) may be negative and is not tested;
    # det Qov_sld is structurally zero at n = 2, N = 3 and must still lie in its window
    wyd07 = make_function("wyd", 0.7)
    seed = next(s for s in range(100) if prepare_random(2, 3, s).det(SLD) < 0.0)
    checks = (
        lambda inst: check_conj2(inst, wyd07, SLD, 1e-30),
        lambda inst: check_firey(inst, wyd07, 0.5, g=SLD, tol=1e-30),
    )
    for check in checks:
        with pytest.raises(ArithmeticError, match=r"^det Qov_g = -\S+ is below the clamp window -"):
            check(prepare_random(2, 3, seed))
    # in the default window the same outcomes are skipped, not raised
    for check in (lambda inst: check_conj2(inst, wyd07, SLD), lambda inst: check_firey(inst, wyd07, 0.5, g=SLD)):
        rep = check(prepare_random(2, 3, seed))
        assert not rep.hypothesis_ok and not rep.violated


def test_firey_right_side_is_the_scalar_formula_bit_for_bit(rng):
    # the grid's powers must round as Python's float power does, not as numpy's
    plan = CheckPlan(functions=(SLD, WY, WYD, KM), pairs=MEMO_PAIRS, tol=1e-9, t_grid=DEFAULT_T_GRID)
    for trial in range(30):
        n_obs = 2 + trial % 3
        inst = prepare_random(2 + trial % 3, n_obs, int(rng.integers(2**32)), KINDS[trial % 3])
        for (_, fl, gl, t), rep in _outcomes(plan, inst, {"firey"}).items():
            c = rep.components
            rem = remainder_t(c["det_small"], c["det_diff"], n_obs, t)
            rhs = (1.0 - t) ** n_obs * c["det_small"] + t**n_obs * c["det_diff"] + rem
            assert _bits(c["remainder_t"]) == _bits(rem), (trial, fl, gl, t)
            assert _bits(rep.rhs) == _bits(rhs), (trial, fl, gl, t)
        # conj1 and conj2 read the unit-weight rows, from the same kernel with the weights (1, 1)
        outcomes = [(check_conj1(inst, f), "cov") for f in plan.functions]
        outcomes += [(check_conj2(inst, f, g), f) for f, g in MEMO_PAIRS]
        for rep, big in outcomes:
            lhs, q, dd, rem = list(rep.components.values())[:4]
            assert _bits(lhs) == _bits(rep.lhs) == _bits(det_one(inst.matrix(big))), (trial, rep.name)
            assert _bits(rem) == _bits(remainder(q, dd, n_obs)), (trial, rep.name)
            assert _bits(rep.rhs) == _bits(q + dd + rem), (trial, rep.name)


def test_a_nan_margin_raises_instead_of_reading_as_a_violation():
    with pytest.raises(ArithmeticError, match="robertson: margin is NaN"):
        _report("robertson", math.inf, math.inf, 1.0, 1e-9, {}, "custom")
    assert _report("main", math.inf, 1.0, 1.0, 1e-9, {}, "custom").passed
    assert _report("main", 1.0, math.inf, 1.0, 1e-9, {}, "custom").violated


@pytest.mark.parametrize("name, t", [("conj1", None), ("firey", 0.5)])
def test_a_nan_margin_raises_in_pencil_outcomes(tight, name, t):
    # a row (lhs, cross terms, rhs, q, dd, clamps, raw q, raw dd, f, g, t) whose lhs and rhs are both inf
    tight._block.pencil[SLD, None, t] = [(math.inf, 0.0, math.inf, 0.0, 0.0, 0, 0.0, 0.0, SLD, None, t)]
    check = (lambda: check_conj1(tight, SLD)) if t is None else (lambda: check_firey(tight, SLD, t))
    with pytest.raises(ArithmeticError, match=f"{name}: margin is NaN"):
        check()
    for outside in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="t must"):
            check_firey(tight, SLD, outside)


def test_overflowing_observables_raise_instead_of_failing(tight):
    # Cov entries near 1e160 give a determinant past the float range
    views = instance_views(tight)
    scaled = PreparedInstance(views.state, [1e80 * a for a in views.observables])
    with pytest.raises(OverflowError):
        check_main(scaled, SLD)
    # squared norms past the float range are rejected before anything warns
    with pytest.raises(ValueError, match=r"observables: .*observables\[1\] = inf"):
        PreparedInstance(views.state, [PAULI_X, 1e160 * PAULI_Y])


@pytest.mark.parametrize("kind", KINDS)
def test_equality_classification_does_not_depend_on_the_pair_order(kind, rng):
    queries = [*MEMO_PAIRS, (SLD, None), (WYD, None)]
    for n in (2, 3, 4):
        for n_obs in (1, 2, 3, 4):
            seed = int(rng.integers(2**32))
            results = []
            for order in (queries, queries[::-1], queries[1::2] + queries[::2]):
                inst = prepare_random(n, n_obs, seed, kind)
                results.append({(f.label, g and g.label): classify_equality(inst, f, g) for f, g in order})
            assert results[0] == results[1] == results[2], (n, n_obs)


def _fresh_contraction_sides(seed: int, n: int, x, f, part) -> tuple[float, float]:
    """Both sides of the contraction check through metric_inner on a fresh state."""
    d = random_density(n, seed)
    x0 = observable(x)
    x0 = x0 - (np.trace(x0).real / n) * np.eye(n)
    px0 = pinching_one(x0, part)
    return metric_inner(d, f, x0, x0), metric_inner(density(pinching_one(d.matrix, part)), f, px0, px0)


def test_contraction_shares_its_tangent_across_functions_in_any_order():
    functions = (SLD, WY, WYD, KM, make_function("harmonic"))
    for trial in range(12):
        n = 2 + trial % 4
        x = random_observable(n, 600 + trial)
        part = random_partition(n, 700 + trial)
        reports = {}
        for order in (functions, functions[::-1], functions[1::2] + functions[::2]):
            d = random_density(n, 500 + trial)
            for f in order:
                rep = check_metric_contraction(d, x, f, part)
                before, after = _fresh_contraction_sides(500 + trial, n, x, f, part)
                assert _bits(rep.components["before"]) == _bits(before), (trial, f.label)
                assert _bits(rep.components["after"]) == _bits(after), (trial, f.label)
                assert reports.setdefault(f.label, rep) == rep
        # another tangent and another partition on a warm state are not mixed up
        other = random_observable(n, 800 + trial)
        rep = check_metric_contraction(d, other, SLD, part)
        assert _bits(rep.components["before"]) == _bits(_fresh_contraction_sides(500 + trial, n, other, SLD, part)[0])
        whole = [range(n)]
        rep = check_metric_contraction(d, x, SLD, whole)
        assert _bits(rep.components["after"]) == _bits(_fresh_contraction_sides(500 + trial, n, x, SLD, whole)[1])


def _partition_of(n: int, chunks: int, seed: int) -> list:
    """A shuffle of range(n) cut into ``chunks`` contiguous runs, each sorted."""
    rng = np.random.default_rng(seed)
    perm, cuts = rng.permutation(n).tolist(), sorted(rng.choice(np.arange(1, n), size=chunks - 1, replace=False).tolist())
    return [sorted(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_contraction_sums_equal_the_single_case_bit_for_bit(n):
    # every kind, with a partition of every size 1..n, in one block of 3n
    block = [prepare_random(n, 2, derive_seed("contraction-block", n, k), KINDS[k % 3]) for k in range(3 * n)]
    for k, inst in enumerate(block):
        inst.partition = _partition_of(n, 1 + k % n, derive_seed("contraction-partition", n, k))
    functions = (SLD, WY, WYD, KM)
    CheckPlan(functions=functions, pairs=(), tol=1e-9).evaluate(block, {"contraction"})
    for inst in block:
        for f in functions:
            sums = inst.contraction(f)
            views = instance_views(inst)
            alone = check_metric_contraction(views.state, views.observables[0], f, inst.partition)
            assert (_bits(sums[0]), _bits(sums[1])) == (_bits(alone.lhs), _bits(alone.rhs)), (inst.digest, f.label)
            assert contraction_report(sums, f, n, 1e-9) == alone
            assert sums[3] == len(inst.partition)


def test_a_given_instance_fills_its_contraction_sums_itself():
    # with no evaluate call, the first read fills the sums at the instance's partition for its block
    d, obs = random_density(3, 21), [random_observable(3, 22), random_observable(3, 23)]
    inst = PreparedInstance(d, obs)
    for f in (SLD, WY, WYD, KM):
        sums = inst.contraction(f)
        alone = check_metric_contraction(d, obs[0], f, inst.partition)
        assert (_bits(sums[0]), _bits(sums[1])) == (_bits(alone.lhs), _bits(alone.rhs)), f.label
        assert contraction_report(sums, f, 3, 1e-9) == alone
        assert inst._block.contraction[f][0] is sums


def test_a_malformed_partition_in_a_block_raises_its_own_message():
    # drawn partitions are valid by construction, so only check_metric_contraction, the one caller that
    # takes a partition from outside, judges one: an overlap and two that miss an index, at a drawn state
    views = instance_views(_drawn_block(3, 2, "bad-partition")[5])
    for partition, blocks in (([[0, 1], [2, 1]], "[[0, 1], [1, 2]]"), ([[0, 1]], "[[0, 1]]"), ([[0], [1]], "[[0], [1]]")):
        with pytest.raises(ValueError, match=f"^{re.escape(f'partition {blocks} does not partition range(3)')}$"):
            check_metric_contraction(views.state, views.observables[0], SLD, partition)


def test_a_malformed_partition_set_on_an_instance_raises_the_same_message():
    # the setter judges by the one partition rule, for a drawn instance and a given one; a refused set keeps the old
    drawn = prepare_random(3, 2, derive_seed("bad-partition", "set"))
    given = PreparedInstance(random_density(3, 31), [random_observable(3, 32)])
    for inst in (drawn, given):
        held = inst.partition
        for partition, blocks in (([[0], [1]], "[[0], [1]]"), ([[0, 1], [2, 1]], "[[0, 1], [1, 2]]")):
            with pytest.raises(ValueError, match=f"^{re.escape(f'partition {blocks} does not partition range(3)')}$"):
                inst.partition = partition
            assert inst.partition == held
        inst.partition = [[2], [1, 0]]
        assert inst.partition == [[2], [0, 1]]


# a tangent or observable with one fault each, and the text each check of outside data raises for it
FAULTY = {
    "NaN": (np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex), "observable: non-finite entry (0, 1) = (nan+0j)"),
    "non-Hermitian": (
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        "observable: not Hermitian, entry (0,1) = (1+0j) vs conjugate of (1,0) = -0j",
    ),
    "wrong shape": (np.eye(3, dtype=complex), "tangent x shape (3, 3) does not match the state"),
}


@pytest.mark.parametrize("fault", list(FAULTY))
def test_a_faulty_tangent_raises_where_it_enters(fault):
    # the block path hands fill_contraction its own checked stacks; an outside tangent is checked on entry
    x, text = FAULTY[fault]
    with pytest.raises(ValueError) as caught:
        check_metric_contraction(density(np.diag([0.75, 0.25]).astype(complex)), x, SLD, [[0], [1]])
    assert str(caught.value) == text


# a state with one fault each, and the text density raises for it
FAULTY_STATES = {
    "NaN": (np.array([[0.5, np.nan], [np.nan, 0.5]]), "state: non-finite entry (0, 1) = (nan+0j)"),
    "non-Hermitian": (
        np.array([[0.5, 0.5], [0.0, 0.5]]),
        "state: not Hermitian, entry (0,1) = (0.5+0j) vs conjugate of (1,0) = -0j",
    ),
    "wrong trace": (np.eye(2), "state trace is 2.0, expected 1 within 1e-12"),
}


@pytest.mark.parametrize("fault", list(FAULTY_STATES))
def test_a_faulty_state_raises_where_it_enters(fault):
    m, text = FAULTY_STATES[fault]
    with pytest.raises(ValueError) as caught:
        density(m)
    assert str(caught.value) == text


@pytest.mark.parametrize("fault", ["NaN", "non-Hermitian"])
def test_a_faulty_family_raises_where_it_enters(fault):
    x, text = FAULTY[fault]
    with pytest.raises(ValueError) as caught:
        PreparedInstance(density(np.diag([0.75, 0.25]).astype(complex)), [PAULI_X, x])
    assert str(caught.value) == text


def test_a_pinched_state_below_the_floor_raises_the_positivity_message():
    # a state stack that fill_contraction takes as checked; pinched at [[0], [1]] it is its own
    # diagonal, whose least entry is below the floor
    m = np.array([[1.0 - 1e-12, 1e-13], [1e-13, 1e-12]], dtype=complex)
    assert m[1, 1].real < POSITIVITY_FLOOR
    values, vectors = np.linalg.eigh(m)
    with pytest.raises(ValueError) as caught:
        fill_contraction((m[None], values[None], vectors[None]), PAULI_X[None], [[[0], [1]]], (SLD,))
    with pytest.raises(ValueError) as reference:
        density(np.diag(np.diag(m)))
    assert str(caught.value) == str(reference.value)
    assert str(caught.value).startswith("state is not strictly positive")


def _views(inst) -> dict:
    """Every view of an instance onto its block's stacks, as arrays."""
    state, observables, frame, norms = instance_views(inst)
    views = {"matrix": state.matrix, "eigenvalues": state.eigenvalues, "unitary": state.eigen.unitary}
    views.update(lambdas=frame.lambdas, frame_observables=frame.observables)
    views.update(observables=np.array(observables), norms=np.array(norms))
    assert type(observables) is type(norms) is tuple
    assert all(type(v) is float for v in norms)
    return views


def _same_views(got, want, where) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype and np.array_equal(got[key], want[key]), (where, key)


def test_instances_view_their_block_with_the_bits_of_a_block_of_one():
    # a drawn block of three kinds, each instance against the block of one it builds alone
    block, alone = _drawn_block(3, 2, "views"), _drawn_block(3, 2, "views")
    InstanceBlock(block)
    kinds = {inst.digest.split("kind=")[1].split(",")[0] for inst in block}
    assert kinds == set(KINDS)
    for inst, single in zip(block, alone):
        assert "_block" not in vars(single)
        want = _views(single)  # the first attribute read builds it alone
        assert single._block.size == 1 and inst._block.size == 16
        _same_views(_views(inst), want, inst.digest)
    # a given state and family, which builds as a block of one
    views = instance_views(block[7])
    given = PreparedInstance(views.state, list(views.observables))
    _same_views(_views(given), _views(alone[7]), "given")


def test_a_block_builds_only_instances_that_no_block_has_built():
    block, fresh = _drawn_block(3, 2, "rebuild"), prepare_random(3, 2, 5)
    InstanceBlock(block)
    views = instance_views(block[0])
    given = PreparedInstance(views.state, list(views.observables))
    for instances in (block, [given], [fresh, block[3]], [fresh, given]):
        with pytest.raises(ValueError, match=r"^instance \S+ is already built, in a block of its own$"):
            InstanceBlock(instances)
    assert "_block" not in vars(fresh)  # a refused block builds none of its instances
    kept = block[3]._block
    assert block[0]._block is kept and block[3]._index == 3 and given._block.size == 1
    # evaluate builds a new block, so built instances, a whole block among them, raise the block's error;
    # their memos fill themselves instead, and keep what they hold
    plan = CheckPlan(functions=(SLD,), pairs=(), tol=1e-9)
    for part in (block[:3], block[::-1], block, [given]):
        with pytest.raises(ValueError, match=r"^instance \S+ is already built, in a block of its own$"):
            plan.evaluate(part, {"main", "contraction"})
    det_wy = kept.det[WY]
    for inst in (block[15], given):
        for *_, check, args in plan.layout({"main", "contraction"}):
            check(inst, *args)
    assert block[15]._block is kept and kept.det[WY] is det_wy
    assert check_main(block[15], SLD) == check_main(_drawn_block(3, 2, "rebuild")[15], SLD)


def _members(n: int, n_obs: int, tag: str) -> list:
    """(seed, kind) of 16 instances of (n, N), in runs of the three kinds as a campaign block holds
    them: 6 generic, then 5 degenerate, then 5 near-singular."""
    return [(derive_seed(tag, n, n_obs, k), KINDS[3 * k // 16]) for k in range(16)]


def _drawn_block(n: int, n_obs: int, tag: str) -> list:
    """The 16 instances of ``_members``, drawn but not built."""
    return [prepare_random(n, n_obs, seed, kind) for seed, kind in _members(n, n_obs, tag)]


def _built(inst) -> dict:
    """What building an instance gives, keyed as ``prepared_per_matrix`` keys it."""
    state, _, frame, norms = instance_views(inst)
    return {
        "matrix": state.matrix,
        "eigenvalues": state.eigenvalues,
        "unitary": state.eigen.unitary,
        "observables": frame.observables,
        "scale": inst.scale,
        "norms": np.array(norms),
    }


@pytest.mark.parametrize("n, n_obs", [(2, 1), (3, 3), (4, 2), (8, 6)])
def test_a_block_builds_each_instance_with_the_bits_it_has_alone(n, n_obs):
    block, alone = _drawn_block(n, n_obs, "bits"), _drawn_block(n, n_obs, "bits")
    assert not any("_block" in vars(inst) for inst in block + alone)  # drawn only
    InstanceBlock(block)
    for inst, single, (seed, kind) in zip(block, alone, _members(n, n_obs, "bits")):
        want = prepared_per_matrix(*draw_per_matrix(n, n_obs, seed, kind))
        assert inst.partition == single.partition == want.pop("partition"), inst.digest
        got, by_itself = _built(inst), _built(single)  # the second builds ``single`` as a block of one
        assert inst._block.size == 16 and single._block.size == 1
        for key in want:
            # np.linalg.norm takes BLAS dots; a stacked sum of squares would round apart here
            assert np.array_equal(got[key], by_itself[key]), (inst.digest, key)
            assert np.array_equal(got[key], want[key]), (inst.digest, key)


@pytest.mark.parametrize("kind", ["floor"])
def test_a_block_raises_the_error_of_its_failing_instance_alone(kind):
    # the one fault a draw can carry: a state Gaussian whose G G^dagger / Tr, here diag(1e-12, 1, 1)
    # / (2 + 1e-12) exactly, has its least eigenvalue below the floor
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        block, single = _drawn_block(3, 2, "faults"), _drawn_block(3, 2, "faults")[4]
        x, state_kind, pair = block[4]._source
        assert state_kind == "generic"
        g, x = np.diag([1e-6, 1.0, 1.0]).astype(complex), x.copy()
        x[0] = g.real, g.imag  # the state's Gaussian
        block[4]._source = single._source = x, state_kind, pair
        formed = g @ g.conj().T
        with pytest.raises(ValueError) as inside:
            InstanceBlock(block)
        with pytest.raises(ValueError) as alone:
            instance_views(single)
        with pytest.raises(ValueError) as reference:
            density(formed / np.trace(formed).real)
        assert type(inside.value) is type(alone.value) is type(reference.value)
        assert str(inside.value) == str(alone.value) == str(reference.value)


@pytest.mark.parametrize("kind", ["non-Hermitian observable", "overflowing norms"])
def test_a_given_family_raises_the_error_of_its_check(kind):
    # no draw carries these faults (a block forms Hermitian observables of unit norm), so a given
    # family, which builds alone, must raise what the check of one observable or family raises
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        inst = _drawn_block(3, 2, "faults")[4]
        state, observables, _, _ = instance_views(inst)
        obs = list(observables)
        if kind == "non-Hermitian observable":
            obs[1] = obs[1].copy()
            obs[1][0, 1] += 1e-6
            check, argument = observable, obs[1]
        else:
            obs[1] = 1e160 * obs[1]
            check, argument = scale_one, obs
        with pytest.raises(ValueError) as given:
            PreparedInstance(state, obs)
        with pytest.raises(ValueError) as reference:
            check(argument)
        assert type(given.value) is type(reference.value)
        assert str(given.value) == str(reference.value)


def test_drawing_an_instance_without_observables_fails_at_once():
    with pytest.raises(ValueError, match="^eigenframe needs at least one observable$"):
        prepare_random(3, 0, 1)


def test_components_are_built_from_the_row_as_one_dict_per_outcome_would_be():
    config = CampaignConfig()
    pairs = ((SLD, WY), (SLD, WYD), (WY, WYD))
    plan = CheckPlan(functions=(SLD, WY, WYD, KM), pairs=pairs, tol=config.tol, t_grid=config.t_grid)
    assert [f.label for f in plan.functions] == list(config.functions)
    assert [(f.label, g.label) for f, g in plan.pairs] == [tuple(pair) for pair in config.function_pairs]
    names = set(config.checks)
    bound = plan.layout(names)
    members = [(kind, index) for kind in config.kinds for index in range(config.instances_per_cell)][:BLOCK_INSTANCES]
    compared = 0
    for n in config.dims:
        for n_obs in config.num_obs:
            block = [prepare_random(n, n_obs, derive_seed(config.seed, n, n_obs, kind, k), kind) for kind, k in members]
            plan.evaluate(block, names)
            for inst in block:
                for name, f, g, t, check, args in bound:
                    rep = check(inst, *args)
                    want = components_reference(name, inst, f, g, t, config.tol)
                    got = rep.components
                    assert list(got) == list(want), (n, n_obs, name)
                    assert [_bits(v) if isinstance(v, float) else v for v in got.values()] == [
                        _bits(v) if isinstance(v, float) else v for v in want.values()
                    ], (n, n_obs, name, f.label, g and g.label, t)
                    compared += 1
    assert compared == 9 * BLOCK_INSTANCES * 96


@pytest.mark.parametrize("name", ["conj1", "conj2", "firey"])
def test_each_read_of_components_is_a_new_dict_that_leaves_the_memo_alone(name):
    inst = prepare_random(3, 2, 77, "generic")
    g = WY if name == "conj2" else None
    t = 0.3 if name == "firey" else None
    rep = check_firey(inst, SLD, t) if name == "firey" else check_conj2(inst, SLD, WY) if g else check_conj1(inst, SLD)
    row = inst._block.pencil[SLD, g, t][inst._index]
    kept = [_bits(v) for v in row[:8]]
    first, second = rep.components, rep.components
    assert first == second and first is not second
    for key in list(first):
        first[key] = -1.0
    first["extra"] = 0.0
    assert rep.components == second
    assert inst._block.pencil[SLD, g, t][inst._index] is row
    assert [_bits(v) for v in row[:8]] == kept


def test_a_report_built_from_keywords_or_replaced_keeps_its_fields():
    inst = prepare_random(3, 3, 5, "degenerate")
    for rep in (check_firey(inst, SLD, 0.4, g=WY), check_main(inst, SLD), check_conj1(inst, WY), classify_equality(inst, SLD, WY)):
        fields = rep._asdict()  # each field as the report holds it: the components as the values they are built from
        built = InequalityReport(**fields)
        assert type(built) is InequalityReport
        assert built == rep and built.components == rep.components
        assert [getattr(built, k) for k in rep._fields] == [getattr(rep, k) for k in rep._fields]
        failed = rep._replace(passed=False, margin=-1.0)
        assert type(failed) is InequalityReport and failed.violated
        assert failed.components == rep.components and failed.lhs == rep.lhs and failed.digest == rep.digest
        assert InequalityReport._make(rep) == rep and InequalityReport._make(rep).components == rep.components
