"""External controls: a published bound that is false, which the verifier must refute, and one that is proven,
which it must confirm, on the program's own matrices.

The Wigner-Yanase skew information I(A) = Tr(D A^2) - Tr(sqrt(D) A sqrt(D) A) is the diagonal of Qov_wy, and
1/4 |Tr D[A, B]|^2 is det R of the commutator matrix at N = 2.  The Heisenberg-type product
I(A) I(B) >= 1/4 |Tr D[A, B]|^2 fails for mixed states: on the qubit family D = (I + r sigma_z)/2 with A = sigma_x
and B = sigma_y, I(A) = I(B) = 1 - s with s = sqrt(1 - r^2), while the right side is r^2 = (1 - s)(1 + s), so the
product falls short by (1 - s)(1 + s) - (1 - s)^2 = 2 s (1 - s) at every r in (0, 1).  Luo replaced it by
U(A) U(B) >= 1/4 |Tr D[A, B]|^2 with U(A)^2 = I(A) (2 V(A) - I(A)) and V the variance, and proved that form
(S. Luo, Phys. Rev. A 72, 042110 (2005)); on the qubit family it holds with equality.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import PAULI_X, PAULI_Y, PAULI_Z
from oracles import apply_scalar_function, instance_views, luo_u, skew_product
from qfidet.inequalities import DEFAULT_TOL, InstanceBlock, PreparedInstance, prepare_random
from qfidet.monotone import make_function
from qfidet.states import STATE_KINDS, density, derive_seed

WY = make_function("wy")
DRAWS = 300
# the least share of each (n, kind) cell's draws on which the refuted product must fail: at n = 2 the degenerate
# kind is the maximally mixed state, where both sides are zero
REFUTED_AT_LEAST = {
    (2, "generic"): 0.6, (2, "degenerate"): 0.0, (2, "near-singular"): 0.01,
    (3, "generic"): 0.25, (3, "degenerate"): 0.5, (3, "near-singular"): 0.05,
    (4, "generic"): 0.1, (4, "degenerate"): 0.2, (4, "near-singular"): 0.03,
}
FAMILY_R = [k / 20 for k in range(1, 20)]


def _cell(n: int, kind: str) -> list:
    """The cell's DRAWS instances of N = 2, built as a campaign builds them, in blocks of 16."""
    instances = [prepare_random(n, 2, derive_seed("external-controls", n, kind, k), kind) for k in range(DRAWS)]
    for k in range(0, DRAWS, 16):
        InstanceBlock(instances[k : k + 16])
    return instances


def _fails(sides, inst) -> bool:
    lhs, rhs = sides
    return lhs - rhs < -DEFAULT_TOL * inst.scale


def test_the_skew_information_is_the_wigner_yanase_formula_on_an_independent_square_root():
    # not on near-singular states: there the square root of eigh's spectrum is off by about eps / sqrt(lambda_min)
    for n in (2, 3, 4):
        for kind, draw in [(kind, draw) for kind in ("generic", "degenerate") for draw in range(3)]:
            inst = prepare_random(n, 2, derive_seed("external-controls-eigh", n, kind, draw), kind)
            views = instance_views(inst)
            root = apply_scalar_function(views.state.matrix, np.sqrt)
            for k, a in enumerate(views.observables):
                skew = np.trace(views.state.matrix @ a @ a).real - np.trace(root @ a @ root @ a).real
                assert abs(inst.matrix(WY)[k, k] - skew) <= 16 * np.finfo(float).eps * inst.scale, (n, kind, k)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_the_refuted_product_fails_and_luos_bound_holds_on_drawn_instances(n):
    for kind in STATE_KINDS:
        instances = _cell(n, kind)
        refuted = sum(_fails(skew_product(inst, WY), inst) for inst in instances)
        assert refuted >= REFUTED_AT_LEAST[n, kind] * DRAWS, (n, kind, refuted)
        assert not any(_fails(luo_u(inst, WY), inst) for inst in instances), (n, kind)


def test_the_qubit_family_refutes_the_product_at_every_r_and_meets_luos_bound():
    eps = np.finfo(float).eps
    for r in FAMILY_R:
        inst = PreparedInstance(density(0.5 * (np.eye(2) + r * PAULI_Z)), [PAULI_X, PAULI_Y])
        s = math.sqrt(1.0 - r * r)
        product, bound = skew_product(inst, WY)
        assert _fails((product, bound), inst), r
        assert abs((bound - product) - ((1.0 - s) * (1.0 + s) - (1.0 - s) ** 2)) <= 16 * eps, r
        u_product, bound = luo_u(inst, WY)
        assert abs(u_product - bound) <= 16 * eps, r
