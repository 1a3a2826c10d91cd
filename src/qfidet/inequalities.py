"""Determinant inequality verifiers.

The bounds all compare determinants of N x N matrices built from one state
and N observables: the covariance matrix, the quantum covariance matrices of
one or two monotone functions, their differences, and binomial cross terms
(the Minkowski/Firey machinery).  A PreparedInstance carries the shared
eigenframe and memoizes every matrix and determinant, so that a campaign can
run the whole battery of checks on an instance for the price of computing
each ingredient once.  It also memoizes the rows of the Firey check, which
it evaluates as arrays over every (pencil, t) of the instance at once.

Pass/fail is always margin >= -tol * scale with scale = max(1, sum of squared
Frobenius norms of the observables).  Hypothesis failures (a function pair
without strict dominance) are flagged on the report instead of being folded
into the inequality verdict, so a vacuous pass can never masquerade as a
verified theorem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import (
    cov_matrix_frame,
    metric_sum,
    observable_scale,
    pair_means,
    qov_matrix_frame,
    rotated_products,
)
from .linalg import (
    RANK_TOL,
    det_antisymmetric,
    det_real_symmetric,
    det_real_symmetric_stack,
    min_eigenvalue,
    numeric_rank,
)
from .monotone import MonotoneFunction, dominates
from .states import (
    DensityMatrix,
    density,
    derive_seed,
    eigenframe,
    observable,
    offdiagonal_dependence,
    pinching,
    random_density,
    random_observable,
)

__all__ = [
    "DEFAULT_TOL",
    "InequalityReport",
    "EqualityClassification",
    "PreparedInstance",
    "prepare_random",
    "remainder",
    "remainder_t",
    "check_main",
    "check_conj1",
    "check_conj2",
    "check_firey",
    "check_robertson",
    "classify_equality",
    "minkowski_firey_selftest",
    "check_metric_contraction",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check on one instance."""

    name: str
    lhs: float
    rhs: float
    margin: float
    scale: float
    tol: float
    passed: bool
    hypothesis_ok: bool
    clamps: int
    components: dict
    digest: str

    @property
    def violated(self) -> bool:
        """True only for a real counterexample: hypothesis held, margin failed."""
        return self.hypothesis_ok and not self.passed


def _clamp(value: float, window: float, what: str) -> tuple[float, int]:
    """Zero out roundoff-negative determinants; refuse genuinely negative ones."""
    if value >= 0.0:
        return value, 0
    if value >= -window:
        return 0.0, 1
    raise ArithmeticError(
        f"{what} = {value:.6e} is below the clamp window -{window:.1e}; "
        "a positivity invariant has failed beyond tolerance"
    )


def _require_unit(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")


def _pow(x, k: int):
    """x ** k for a float, or elementwise for an array, always by the C library's pow.

    numpy's vectorized power rounds differently from it on some hosts, which
    would move margins by an ulp against the scalar formula.
    """
    if k == 1:
        return x
    if isinstance(x, float):
        return x**k
    return np.array([v**k for v in x.tolist()])


def _root(det: float, n_obs: int) -> float:
    """det^{1/N}, with a roundoff-negative det (down to -1e-12) read as 0."""
    if n_obs < 1:
        raise ValueError(f"observable count must be >= 1, got {n_obs}")
    if det < -1e-12:
        raise ValueError(f"determinant {det!r} is negative beyond roundoff")
    return det ** (1.0 / n_obs) if det > 0.0 else 0.0


def _cross_terms(q, c, n_obs: int):
    """Binomial cross terms C(N,k) q^k c^{N-k}, k = 1..N-1, of two weighted
    roots q = a det_q^{1/N} >= 0 and c = b det_diff^{1/N}: floats, or arrays
    of them (elementwise).  Zero for N = 1 and wherever q or c vanishes."""
    total = 0.0 * q
    for k in range(1, n_obs):
        total = total + math.comb(n_obs, k) * _pow(q, k) * _pow(c, n_obs - k)
    return total


def _weaker(name: str, label: str) -> AssertionError:
    return AssertionError(f"{name}: cross terms made the bound weaker than its {label} term")


def remainder(det_q: float, det_diff: float, n_obs: int) -> float:
    """Binomial cross-term sum between the N-th roots of two determinants.

    Equals ((det_q)^{1/N} + (det_diff)^{1/N})^N minus the two pure terms;
    zero for N = 1 and whenever either determinant vanishes.
    """
    return _cross_terms(_root(det_q, n_obs), _root(det_diff, n_obs), n_obs)


def remainder_t(det_q: float, det_diff: float, n_obs: int, t: float) -> float:
    """Weighted cross terms ((1-t) q^{1/N})^k (t c^{1/N})^{N-k}, k = 1..N-1.

    At t = 1/2 this is exactly 2^{-N} times ``remainder``.
    """
    _require_unit(t)
    return _cross_terms(_root(det_q, n_obs) * (1.0 - t), _root(det_diff, n_obs) * t, n_obs)


def _sides(f: MonotoneFunction, g: MonotoneFunction | None) -> tuple:
    """(K_big, K_small) of a pencil: (Cov, Qov_f) with g None, else (Qov_f, Qov_g)."""
    return ("cov", f) if g is None else (f, g)


def _firey_rows(inst, todo: dict) -> list:
    """Firey rows (det_mix, remainder_t, rhs) for ``todo``, pencil (f, g) ->
    its t values, in that order, evaluated as arrays over every (pencil, t).

    The mixes t K_big + (1 - 2t) K_small form one (M, N, N) stack with one
    determinant call.  The right side (1-t)^N q + t^N dd + cross terms
    takes q = det K_small and dd = det(K_big - K_small) of each pencil at
    zero where they are roundoff-negative (the check clamps them the same
    way, or raises).  Every operation is elementwise, so a row is
    bit-identical whichever other rows shared the evaluation.
    """
    n = inst.size
    counts = [len(ts) for ts in todo.values()]
    sides = [_sides(f, g) for f, g in todo]
    q = [max(inst.det(small), 0.0) for _, small in sides]
    dd = [max(inst.det(big, small), 0.0) for big, small in sides]

    def per_row(values) -> np.ndarray:
        return np.repeat(np.array(values), counts, axis=0)

    t = np.array([t for ts in todo.values() for t in ts], dtype=float)
    a = 1.0 - t
    big = per_row([inst.matrix(big) for big, _ in sides])
    small = per_row([inst.matrix(small) for _, small in sides])
    lhs = det_real_symmetric_stack(t[:, None, None] * big + (1.0 - 2.0 * t)[:, None, None] * small)
    rem = _cross_terms(per_row([_root(v, n) for v in q]) * a, per_row([_root(v, n) for v in dd]) * t, n)
    first = _pow(a, n) * per_row(q)
    rhs = first + _pow(t, n) * per_row(dd) + rem
    weaker = rhs < first
    if weaker.any():
        g = [g for (_, g), ts in todo.items() for _ in ts][int(np.argmax(weaker))]
        raise _weaker("firey", "det Qov" if g is None else "det Qov_g")
    return list(zip(lhs.tolist(), rem.tolist(), rhs.tolist()))


class PreparedInstance:
    """One (state, observables) pair with every derived matrix memoized.

    Quantum covariance matrices are produced here for nonregular functions
    too, which the covariance assemblers reject: they are exactly zero there
    (the f(0) factor), which is the degenerate reading that keeps the
    determinant bounds meaningful for the whole catalogue.
    """

    def __init__(self, d: DensityMatrix, obs: Sequence[np.ndarray], digest: str = "custom"):
        checked = tuple(observable(a) for a in obs)
        self.state = d
        self.observables = checked
        self.frame = eigenframe(d, checked)
        self.scale = observable_scale(checked)
        self.digest = digest
        self._matrix: dict = {}
        self._det: dict = {}
        self._firey: dict = {}
        self._structure = None

    @property
    def size(self) -> int:
        return self.frame.size

    def matrix(self, side) -> np.ndarray:
        """Memoized N x N matrix: Cov for "cov", Qov_f for a function f, and for
        "robertson" the commutator bound matrix Im(S), S_kl = sum_h lambda_h A^k_hj A^l_jh."""
        got = self._matrix.get(side)
        if got is None:
            if side == "cov":
                got = cov_matrix_frame(self.frame)
            elif side == "robertson":
                x = self.frame.observables
                r = np.einsum("h,khj,ljh->kl", self.frame.lambdas, x, x).imag
                got = 0.5 * (r - r.T)
            elif not side.regular:
                got = np.zeros((self.size, self.size))
            else:
                got = qov_matrix_frame(self.frame, side)
            self._matrix[side] = got
        return got

    def det(self, big, small=None) -> float:
        """Memoized determinant of ``matrix(big)``, or of ``matrix(big) - matrix(small)``."""
        key = (big, small)
        got = self._det.get(key)
        if got is None:
            m = self.matrix(big) if small is None else self.matrix(big) - self.matrix(small)
            got = self._det[key] = det_antisymmetric(m) if big == "robertson" else det_real_symmetric(m)
        return got

    def fill_firey(self, pencils, ts) -> None:
        """Compute the Firey rows (det_mix, remainder_t, rhs) of every pencil,
        (f, None) for (Cov, Qov_f) and (f, g) for (Qov_f, Qov_g), at every t
        of ``ts`` not yet known, all in one array evaluation."""
        for t in ts:
            _require_unit(t)
        todo = {}
        for pencil in pencils:
            known = self._firey.setdefault(pencil, {})
            missing = [t for t in ts if t not in known]
            if missing:
                todo[pencil] = missing
        if todo:
            rows = iter(_firey_rows(self, todo))
            for pencil, missing in todo.items():
                self._firey[pencil].update(zip(missing, rows))

    def firey_row(self, f, g, t) -> tuple[float, float, float]:
        """Memoized Firey row at one t; one not filled before is evaluated
        as a grid of one."""
        got = self._firey.get((f, g), {}).get(t)
        if got is None:
            self.fill_firey(((f, g),), (t,))
            got = self._firey[f, g][t]
        return got

    def structure(self) -> tuple[int, bool]:
        """Memoized rank of the frame observables as real vectors, and whether
        some real combination of them is diagonal in the state's eigenbasis.
        Neither depends on a function, so every equality check shares them."""
        if self._structure is None:
            flat = self.frame.observables.reshape(self.size, -1)
            vectors = np.concatenate((flat.real, flat.imag), axis=1)
            # Centering an observable proportional to the identity leaves only
            # rounding noise behind; a floor at the raw observables' scale keeps
            # such a row from counting as an independent direction.
            obs_scale = max([1.0] + [float(np.linalg.norm(a)) for a in self.observables])
            rank = numeric_rank(vectors, floor=RANK_TOL * obs_scale)
            self._structure = (rank, offdiagonal_dependence(self.frame).dependent)
        return self._structure


def prepare_random(n: int, n_obs: int, seed: int, kind: str = "generic") -> PreparedInstance:
    """Instance from derived seeds; reproducible from the digest alone."""
    d = random_density(n, seed, kind)
    obs = [random_observable(n, derive_seed("obs", seed, k)) for k in range(n_obs)]
    return PreparedInstance(d, obs, digest=f"n={n},N={n_obs},kind={kind},seed={seed}")


def _report(name, lhs, rhs, scale, tol, components, digest, clamps=0, hypothesis_ok=True, window=None):
    """Pass when margin >= -window, by default -tol * scale."""
    margin = lhs - rhs
    return InequalityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        scale=scale,
        tol=tol,
        passed=bool(margin >= -(tol * scale if window is None else window)),
        hypothesis_ok=hypothesis_ok,
        clamps=clamps,
        components=components,
        digest=digest,
    )


def check_main(inst: PreparedInstance, f: MonotoneFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det Cov >= det Qov_f."""
    lhs = inst.det("cov")
    rhs = inst.det(f)
    components = {"det_cov": lhs, "det_qov": rhs, "f": f.label}
    return _report("main", lhs, rhs, inst.scale, tol, components, inst.digest)


def _pair_hypothesis(f: MonotoneFunction, g: MonotoneFunction) -> bool:
    """Strict dominance f(0)/f > g(0)/g, extended to nonregular g (ratio 0)."""
    if f.regular and g.regular:
        return dominates(f, g).strict
    return f.regular and not g.regular


def _pencil(name, keys, inst, f, g, tol, t=None):
    """lhs >= a^N det K_small + b^N det(K_big - K_small) + weighted cross terms.

    (K_big, K_small) is (Cov, Qov_f) with g omitted and (Qov_f, Qov_g) for
    the pair, which needs strict dominance.  Without t, (a, b) = (1, 1) and
    lhs = det K_big; with t, (a, b) = (1 - t, t),
    lhs = det(t K_big + (1 - 2t) K_small), and lhs, the cross terms and
    the right side are the instance's memoized Firey row.  ``keys`` names the components
    lhs, det K_small, det(K_big - K_small) and the cross terms.  Unit weights
    multiply exactly, so conj1 is not 2^N firey(1/2), which can round apart.
    """
    big, small = _sides(f, g)
    if g is None:
        labels = ("det Qov", "det(Cov - Qov)")
        hypothesis_ok = True
        names = {"f": f.label}
    else:
        labels = ("det Qov_g", "det(Qov_f - Qov_g)")
        hypothesis_ok = _pair_hypothesis(f, g)
        names = {"f": f.label, "g": g.label}
    window = tol * inst.scale
    q, c1 = _clamp(inst.det(small), window, labels[0])
    dd, c2 = _clamp(inst.det(big, small), window, labels[1])
    if t is None:
        lhs = inst.det(big)
        n = inst.size
        rem = _cross_terms(_root(q, n), _root(dd, n), n)
        rhs = q + dd + rem
        if rhs < q:
            raise _weaker(name, labels[0])
    else:
        lhs, rem, rhs = inst.firey_row(f, g, t)
        names = {"t": t, **names}
    components = {**dict(zip(keys, (lhs, q, dd, rem))), **names}
    return _report(name, lhs, rhs, inst.scale, tol, components, inst.digest, c1 + c2, hypothesis_ok)


def check_conj1(inst: PreparedInstance, f: MonotoneFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det Cov >= det Qov + det(Cov - Qov) + cross terms."""
    return _pencil("conj1", ("det_cov", "det_qov", "det_diff", "remainder"), inst, f, None, tol)


def check_conj2(
    inst: PreparedInstance,
    f: MonotoneFunction,
    g: MonotoneFunction,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """det Qov_f >= det Qov_g + det(Qov_f - Qov_g) + cross terms."""
    return _pencil("conj2", ("det_qov_f", "det_qov_g", "det_diff_fg", "remainder"), inst, f, g, tol)


def check_firey(
    inst: PreparedInstance,
    f: MonotoneFunction,
    t: float,
    g: MonotoneFunction | None = None,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """det(t K_big + (1-2t) K_small) >= (1-t)^N det K_small + t^N det(K_big - K_small) + cross terms.

    With g omitted the pair is (Cov, Qov_f); with g it is (Qov_f, Qov_g).
    Note t K_big + (1-2t) K_small = (1-t) K_small + t (K_big - K_small), so
    this is the Firey combination of the two summands on the right.
    """
    _require_unit(t)
    return _pencil("firey", ("det_mix", "det_small", "det_diff", "remainder_t"), inst, f, g, tol, t)


def check_robertson(inst: PreparedInstance, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det Cov >= det of the commutator bound matrix (exactly 0 for odd N)."""
    lhs = inst.det("cov")
    rhs = inst.det("robertson")
    components = {"det_cov": lhs, "det_commutator": rhs}
    return _report("robertson", lhs, rhs, inst.scale, tol, components, inst.digest)


@dataclass(frozen=True)
class EqualityClassification:
    """Which equality conditions hold, plus the structural facts behind them.

    condition_a: det Cov = det Qov_f.  condition_c: the centered observables
    are linearly dependent over the reals.  These two are equivalent.
    condition_b: det Qov_f = det Qov_g; this one is equivalent to offdiagonal
    dependence, which is strictly weaker than condition_c (a single
    observable diagonal in the state's eigenbasis has b without a or c).

    Only one direction of each equivalence is numerically decidable:
    dependence forces the determinant equality exactly, while independence
    guarantees a gap that can still sit below the tolerance window near the
    boundary of the state space.  Nearly degenerate spectra collapse the
    Qov gap of condition b (at the maximally mixed state the commutator
    metric vanishes for every observable), and nearly singular states
    collapse the Cov - Qov gap of condition a (at a pure state the two
    matrices coincide).  An equality that fired without its structural
    counterpart is reported as unresolved, not as a contradiction.
    """

    det_cov: float
    det_qov_f: float
    det_qov_g: float | None
    condition_a: bool
    condition_b: bool | None
    condition_c: bool
    linearly_dependent: bool
    offdiag_dependent: bool
    rank: int

    @property
    def verdict(self) -> str:
        held = [name for name, ok in (("a", self.condition_a), ("b", self.condition_b), ("c", self.condition_c)) if ok]
        return ",".join(held) if held else "none"

    @property
    def resolved(self) -> bool:
        """False when a determinant equality fired without the dependence
        that would explain it; such an instance cannot corroborate the
        equivalence either way."""
        if self.condition_a and not self.linearly_dependent:
            return False
        if self.condition_b is not None and self.condition_b and not self.offdiag_dependent:
            return False
        return True

    @property
    def consistent(self) -> bool:
        """No decidable direction was contradicted: a dependent family must
        show its determinant equality."""
        if self.linearly_dependent and not (self.condition_a and self.condition_c):
            return False
        if self.condition_b is not None and self.offdiag_dependent and not self.condition_b:
            return False
        return True

    # The campaign and ``compute`` read a classification as an outcome, with
    # the names of InequalityReport: a contradicted equivalence fails at
    # margin -1, and an equality that fired without the dependence behind it
    # is a skipped hypothesis.
    clamps = 0

    @property
    def passed(self) -> bool:
        return self.consistent

    @property
    def hypothesis_ok(self) -> bool:
        return not self.consistent or self.resolved

    @property
    def margin(self) -> float:
        return 0.0 if self.consistent else -1.0

    @property
    def violated(self) -> bool:
        return self.hypothesis_ok and not self.passed


def classify_equality(
    inst: PreparedInstance,
    f: MonotoneFunction,
    g: MonotoneFunction | None = None,
    tol: float = DEFAULT_TOL,
) -> EqualityClassification:
    window = tol * inst.scale
    det_cov = inst.det("cov")
    det_qf = inst.det(f)
    det_qg = None if g is None else inst.det(g)
    rank, offdiag = inst.structure()
    dependent = rank < inst.size

    return EqualityClassification(
        det_cov=det_cov,
        det_qov_f=det_qf,
        det_qov_g=det_qg,
        condition_a=bool(abs(det_cov - det_qf) <= window),
        condition_b=None if det_qg is None else bool(abs(det_qf - det_qg) <= window),
        condition_c=dependent,
        linearly_dependent=dependent,
        offdiag_dependent=offdiag,
        rank=rank,
    )


def minkowski_firey_selftest(
    k: np.ndarray,
    l: np.ndarray,
    t: float,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """det((1-t)K + tL)^{1/N} >= (1-t) det(K)^{1/N} + t det(L)^{1/N} for PSD K, L.

    Standalone check of the classical inequality the main bounds reduce to;
    takes plain matrices, no quantum structure.
    """
    _require_unit(t)
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    if k.shape != l.shape or k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"need two equal square matrices, got {k.shape} and {l.shape}")
    n = k.shape[0]
    scale = max(1.0, float(np.abs(k).max()), float(np.abs(l).max()))
    for name, m in (("K", k), ("L", l)):
        if np.abs(m - m.T).max() > 1e-11 * scale:
            raise ValueError(f"{name} is not symmetric")
        if min_eigenvalue(m.astype(complex)) < -1e-10 * scale:
            raise ValueError(f"{name} is not positive semidefinite")
    window = tol * scale**n
    det_k, c1 = _clamp(det_real_symmetric(k), window, "det K")
    det_l, c2 = _clamp(det_real_symmetric(l), window, "det L")
    det_mix, c3 = _clamp(det_real_symmetric((1.0 - t) * k + t * l), window, "det mix")
    lhs = det_mix ** (1.0 / n)
    rhs = (1.0 - t) * det_k ** (1.0 / n) + t * det_l ** (1.0 / n)
    components = {"det_k": det_k, "det_l": det_l, "det_mix": det_mix, "t": t}
    return _report("minkowski-firey", lhs, rhs, scale, tol, components, f"selftest[{n}x{n}]", c1 + c2 + c3)


def _contraction_parts(d: DensityMatrix, x, blocks: tuple) -> tuple:
    """Products of the traceless tangent X0 in D's eigenbasis, products of
    the pinched X0 in the pinched state's eigenbasis, and the two spectra
    stacked (D's first) for one ``pair_means`` call per function."""
    x = observable(x)
    n = d.dim
    x0 = x - (np.trace(x).real / n) * np.eye(n)
    pinched_state = density(pinching(d.matrix, blocks))
    pinched_x0 = pinching(x0, blocks)
    spectra = np.stack((d.eigenvalues, pinched_state.eigenvalues))
    return rotated_products(d, x0, x0), rotated_products(pinched_state, pinched_x0, pinched_x0), spectra


def check_metric_contraction(
    d: DensityMatrix,
    x: np.ndarray,
    f: MonotoneFunction,
    partition: Sequence,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """Metric monotonicity under pinching: K_T(D)(T(X), T(X)) <= K_D(X, X).

    X is projected onto the traceless part first (tangent vectors of the
    state space); pinching commutes with that projection.  Everything but the
    pair means of f is computed once per (state, tangent, partition) and
    memoized on the state, so the functions of a campaign share it.
    """
    xa = np.asarray(x)
    blocks = tuple(tuple(int(i) for i in block) for block in partition)
    key = ("contraction", xa.dtype.str, xa.shape, xa.tobytes(), blocks)
    products, pinched_products, spectra = d.memo(key, lambda: _contraction_parts(d, xa, blocks))
    means = pair_means(spectra, f)
    before = metric_sum(products, means[0], f)
    after = metric_sum(pinched_products, means[1], f)
    n = d.dim
    scale = max(1.0, before)
    # Metric weights near a tiny eigenvalue lam are 1/lam-sized, and storing
    # the pinched matrix in doubles already limits lam to roughly
    # eps*||D||/lam relative accuracy, so the achievable precision of the
    # two sides degrades by that factor.  Widen the window accordingly;
    # for healthy spectra the extra term is far below tol*scale.
    lam_floor = float(min(spectra[0, 0], spectra[1, 0]))
    window = tol * scale + 4.0 * n * np.finfo(float).eps / lam_floor * before
    components = {
        "before": before,
        "after": after,
        "window": window,
        "blocks": len(blocks),
        "f": f.label,
    }
    return _report("contraction", before, after, scale, tol, components, f"contraction[n={n}]", window=window)
