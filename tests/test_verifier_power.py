"""Verifier power: a bound that is false must be caught.

A planted function outside the operator monotone class gives a quantum
covariance matrix that can exceed the covariance matrix.  Both matrices are
formed here through the definition routes of ``oracles`` (trace formula and
metric inner product of the commutators), never through the transformed
function that the program's fast route sums, so the test shows that ``main``
with its window tol * scale reports what the definitions say.
"""
from __future__ import annotations

from oracles import cov_matrix, det_one, instance_views, planted_function, qov_matrix
from qfidet.inequalities import DEFAULT_TOL, prepare_random
from qfidet.states import derive_seed

# the cells of the sweep, each with 16 near-singular instances (smallest eigenvalue 1e-8)
PLANTED_CELLS = ((2, 1), (3, 2), (4, 3))


def _main_failures(c: float) -> list:
    """(n, N, k) of each instance of the sweep on which det Cov >= det Qov_{f_c} fails by more than tol * scale."""
    f = planted_function(c)
    failed = []
    for n, n_obs in PLANTED_CELLS:
        for k in range(16):
            inst = prepare_random(n, n_obs, derive_seed("planted", n, n_obs, k), "near-singular")
            views = instance_views(inst)
            margin = det_one(cov_matrix(views.state, views.observables)) - det_one(qov_matrix(views.state, f, views.observables))
            if margin < -DEFAULT_TOL * inst.scale:
                failed.append((n, n_obs, k))
    return failed


def test_main_catches_the_planted_function_and_passes_its_operator_monotone_end():
    assert _main_failures(0.25)  # 16 of the 48 instances, all at (n, N) = (2, 1)
    assert _main_failures(0.0) == []  # f_0 is sld's (1 + x)/2
