"""Exact rational instances: the margins of ``main`` and ``robertson`` against their exact values.

``oracles.exact_instance`` draws a state and family whose frame, Cov, Qov_sld, Qov_wy, commutator
matrix and determinants are exact Fractions, with one purposely dependent family per (n, N, kind).
Rounded to doubles, each instance goes through ``PreparedInstance(density(state), observables)``:
every exact margin is nonnegative, each float margin lies within the window tol * scale of its exact
value, and wherever det Cov equals det Qov_sld exactly, the equality outcome's condition a fires.

``oracles.exact_replay`` adjudicates instances a campaign actually draws: their stored doubles are dyadic
rationals, so Cov, Qov_sld and the commutator matrix of each are exact Fractions too.  The same three
assertions hold on one drawn instance per (n, N, kind).
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import exact_instance, exact_replay, instance_views
from qfidet.inequalities import PreparedInstance, check_main, check_robertson, classify_equality, prepare_random
from qfidet.monotone import make_function
from qfidet.states import STATE_KINDS, density, derive_seed

CELLS = [(n, n_obs) for n in (2, 3) for n_obs in (1, 2, 3)]
# independent families per (n, N, kind), drawn beside the one dependent family
DRAWS = 3
FUNCTIONS = {"sld": make_function("sld"), "wy": make_function("wy")}


def exact_sweep(n: int, n_obs: int):
    """(where, dependent, exact instance) for every family of the cell (n, N), in kind order."""
    for kind in STATE_KINDS:
        for draw in range(DRAWS + 1):
            dependent = draw == DRAWS
            exact = exact_instance(n, n_obs, kind, dependent, derive_seed("exact", n, n_obs, kind, draw))
            yield f"n={n},N={n_obs},kind={kind},draw={draw}", dependent, exact


@pytest.mark.parametrize("n, n_obs", CELLS)
def test_float_margins_and_condition_a_against_exact_values(n, n_obs):
    equal = 0
    for where, dependent, exact in exact_sweep(n, n_obs):
        inst = PreparedInstance(density(exact.state), exact.observables)
        outcomes = [(check_main(inst, f), exact.det["cov"] - exact.det[side]) for side, f in FUNCTIONS.items()]
        for rep, exact_margin in [*outcomes, (check_robertson(inst), exact.det["cov"] - exact.det["robertson"])]:
            assert exact_margin >= 0, (where, rep.name)
            assert abs(Fraction(rep.margin) - exact_margin) <= Fraction(rep.tol) * Fraction(rep.scale), (where, rep.name)
        if dependent:  # the centered family spans fewer than N dimensions, so both Gram forms are singular
            assert exact.det["cov"] == exact.det["sld"] == 0, where
        if exact.det["cov"] == exact.det["sld"]:
            assert classify_equality(inst, FUNCTIONS["sld"]).components["condition_a"], where
            equal += 1
    assert equal >= len(STATE_KINDS)  # the dependent families at least


def test_drawn_instances_against_their_exact_replay():
    # one drawn instance per (n, N, kind); its stored state and family are exact rationals
    sld = FUNCTIONS["sld"]
    for n in (2, 3, 4):
        for n_obs in (1, 2, 3):
            for kind in STATE_KINDS:
                where = f"n={n},N={n_obs},kind={kind}"
                inst = prepare_random(n, n_obs, derive_seed("exact-replay", n, n_obs, kind), kind)
                views = instance_views(inst)
                exact = exact_replay(views.state.matrix, views.observables)
                main, gap = check_main(inst, sld), exact.det["cov"] - exact.det["sld"]
                window = Fraction(main.tol) * Fraction(main.scale)
                for rep, exact_margin in ((main, gap), (check_robertson(inst), exact.det["cov"] - exact.det["robertson"])):
                    assert exact_margin >= 0, (where, rep.name)
                    assert abs(Fraction(rep.margin) - exact_margin) <= window, (where, rep.name)
                if abs(gap) > window:
                    assert not classify_equality(inst, sld).components["condition_a"], where
