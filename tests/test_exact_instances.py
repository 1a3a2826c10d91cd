"""Exact rational instances: the margins of ``main`` and ``robertson`` against their exact values.

``oracles.exact_instance`` draws a state and family whose frame, Cov, Qov_sld, Qov_wy, commutator
matrix and determinants are exact Fractions, with one purposely dependent family per (n, N, kind).
Rounded to doubles, each instance goes through ``PreparedInstance(density(state), observables)``:
every exact margin is nonnegative, each float margin lies within the window tol * scale of its exact
value, and wherever det Cov equals det Qov_sld exactly, the equality outcome's condition a fires.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import exact_instance
from qfidet.inequalities import PreparedInstance, check_main, check_robertson, classify_equality
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
