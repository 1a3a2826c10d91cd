"""Verifier power: a bound that is false must be caught.

A planted function outside the operator monotone class gives a quantum
covariance matrix that can exceed the covariance matrix.  Both matrices are
formed here through the definition routes of ``oracles`` (trace formula and
metric inner product of the commutators), never through the transformed
function that the program's fast route sums, so the tests show that ``main``
with its window tol * scale reports what the definitions say, and that the
Loewner form Cov >= Qov_f, which ``main`` follows from, fails wherever it does.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from oracles import cov_matrix, det_one, instance_views, planted_function, qov_matrix
from qfidet.inequalities import DEFAULT_TOL, prepare_random
from qfidet.states import derive_seed

# the cells of the sweep, each with 16 near-singular instances (smallest eigenvalue 1e-8)
PLANTED_CELLS = ((2, 1), (3, 2), (4, 3))
# the Loewner form fails where the least eigenvalue of Cov - Qov_f is below -LOEWNER_TOL * scale
LOEWNER_TOL = 1e-12


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
