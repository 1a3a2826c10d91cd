"""Hand-checked fixtures runnable from the command line.

Every value here was derived by hand for a two-level state diag(3/4, 1/4)
and the Pauli observables, plus a few scalar identities of the function
catalogue.  The battery is cheap and pins the arithmetic conventions; the
full random sweeps live in the test suite and the verify command.
"""

from __future__ import annotations

import math

import numpy as np

from .covariance import metric_inner
from .inequalities import (
    PreparedInstance,
    check_conj1,
    check_firey,
    check_metric_contraction,
    check_robertson,
    classify_equality,
    minkowski_firey_selftest,
)
from .monotone import dominates, make_function, mean, tilde
from .states import density

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def tight_witness_instance() -> PreparedInstance:
    """The qubit instance that attains the determinant bound exactly."""
    d = density(np.diag([0.75, 0.25]).astype(complex))
    return PreparedInstance(d, [PAULI_X, PAULI_Y], digest="qubit-tight")


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


def _cases(tol: float):
    sld = make_function("sld")
    wy = make_function("wy")
    d = density(np.diag([0.75, 0.25]).astype(complex))
    witness = tight_witness_instance()

    # the cross terms of the witness's conj1 and firey(1/2) rows: det Qov = 1/16, det(Cov - Qov) = 9/16, N = 2
    def case_remainder():
        got = check_conj1(witness, sld, tol).components["remainder"]
        return _within(got, 0.375, 1e-14), f"remainder(1/16, 9/16, 2) = {got:.12g}"

    def case_remainder_half():
        got = check_firey(witness, sld, 0.5, tol=tol).components["remainder_t"]
        return _within(got, 3.0 / 32.0, 1e-14), f"remainder_t(..., 1/2) = {got:.12g}"

    def case_mean():
        got = mean(sld, 3.0, 1.0)
        ok = _within(got, 2.0, 1e-14)
        got2 = mean(wy, 0.75, 0.25)
        ok2 = _within(got2, (2.0 + math.sqrt(3.0)) / 8.0, 1e-14)
        return ok and ok2, f"m_sld(3,1) = {got:.12g}, m_wy(3/4,1/4) = {got2:.12g}"

    def case_tilde():
        ft = tilde(wy)
        points = np.array([0.25, 1.0, 4.0])
        err = float(np.abs(ft(points) - np.sqrt(points)).max())
        return err <= 1e-12, f"tilde(wy) vs sqrt: max err {err:.2e}"

    def case_dominance():
        rep = dominates(sld, wy)
        return rep.strict, f"sld vs wy: {rep.classification}"

    def case_cov():
        got = float(PreparedInstance(d, [PAULI_Z]).matrix("cov")[0, 0])
        return _within(got, 0.75, 1e-13), f"cov(sigma_z) = {got:.12g}"

    def case_qov():
        got = float(PreparedInstance(d, [PAULI_X]).matrix(wy)[0, 0])
        target = (2.0 - math.sqrt(3.0)) / 2.0
        return _within(got, target, 1e-13), f"qov_wy(sigma_x) = {got:.12g}"

    def case_metric():
        mixed = density(np.eye(2, dtype=complex) / 2.0)
        got = metric_inner(mixed, sld, PAULI_X, PAULI_X)
        return _within(got, 4.0, 1e-12), f"K_sld(sigma_x) at identity/2 = {got:.12g}"

    def case_conj1():
        rep = check_conj1(witness, sld, tol)
        ok = abs(rep.margin) <= 1e-12 and rep.passed
        return ok, f"margin {rep.margin:.2e} (lhs {rep.lhs:.12g}, rhs {rep.rhs:.12g})"

    def case_firey():
        rep = check_firey(witness, sld, 0.5, tol=tol)
        ok = abs(rep.margin) <= 1e-12 and _within(rep.lhs, 0.25, 1e-13)
        return ok, f"t=1/2 margin {rep.margin:.2e} (lhs {rep.lhs:.12g})"

    def case_robertson():
        rep = check_robertson(witness, tol)
        ok = _within(rep.lhs, 1.0, 1e-12) and _within(rep.rhs, 0.25, 1e-12) and rep.passed
        return ok, f"lhs {rep.lhs:.12g} >= rhs {rep.rhs:.12g}"

    def case_minkowski():
        rep = minkowski_firey_selftest(np.eye(2), np.diag([1.0, 4.0]), 0.5, tol)
        target = math.sqrt(2.5) - 1.5
        return _within(rep.margin, target, 1e-12), f"margin {rep.margin:.12g} (expected {target:.12g})"

    def case_contraction():
        rep = check_metric_contraction(d, PAULI_X, sld, [[0], [1]], tol)
        ok = rep.passed and abs(rep.rhs) <= 1e-13 and rep.lhs > 0.0
        return ok, f"full pinching kills sigma_x: before {rep.lhs:.12g}, after {rep.rhs:.2e}"

    def case_equality():
        single = PreparedInstance(d, [PAULI_Z], digest="single-diagonal")
        got = classify_equality(single, sld, wy, tol).components
        ok = got["verdict"] == "b" and got["consistent"] and got["offdiag_dependent"] and not got["linearly_dependent"]
        return ok, f"single diagonal observable: verdict {got['verdict']}"

    return [
        ("remainder-hand-value", case_remainder),
        ("remainder-t-half", case_remainder_half),
        ("mean-hand-values", case_mean),
        ("tilde-wy-is-sqrt", case_tilde),
        ("dominance-sld-wy", case_dominance),
        ("cov-hand-value", case_cov),
        ("qov-hand-value", case_qov),
        ("metric-at-identity", case_metric),
        ("tight-witness-conj1", case_conj1),
        ("tight-witness-firey-half", case_firey),
        ("robertson-qubit", case_robertson),
        ("minkowski-diag-1-4", case_minkowski),
        ("contraction-full-pinching", case_contraction),
        ("equality-single-diagonal", case_equality),
    ]


def run_selftest(tol: float = 1e-9) -> bool:
    all_ok = True
    for name, case in _cases(tol):
        try:
            ok, detail = case()
        except Exception as exc:  # a fixture raising is itself a failure
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
