"""Determinant inequality verifiers.

The bounds all compare determinants of N x N matrices built from one state
and N observables: the covariance matrix, the quantum covariance matrices of
one or two monotone functions, their differences, and binomial cross terms
(the Minkowski/Firey machinery).  Instances of one (n, N) are built and
evaluated as a block: their drawn states and observables are formed, checked
and rotated, then each matrix, determinant, pencil row and contraction sum is
computed for all of them at once from the block's stacks and memoized per
block (the contraction with one masked pinching of the block at each instance's
partition), so that the checks of an instance only read memos; an instance on
its own is a block of one.
conj1, conj2 and firey are one inequality on a pencil (K_big, K_small) of PSD
matrices, with one check body.  Its unit-weight and Firey rows come from one
elementwise kernel and hold no clamp window: each outcome reads the hypothesis
first, then tests its clamped determinants in its own window.

Pass/fail is always margin >= -tol * scale with scale = max(1, sum of squared
Frobenius norms of the observables).  Hypothesis failures (a function pair
without strict dominance) are flagged on the report instead of being folded
into the inequality verdict, so a vacuous pass can never masquerade as a
verified theorem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .covariance import (
    cov_matrix_frame,
    metric_sum,
    observable_scale,
    pair_means,
    qov_matrix_frame,
)
from .linalg import (
    RANK_TOL,
    EigenDecomposition,
    _real_stack,
    det_antisymmetric,
    det_real_symmetric,
    numeric_rank,
)
from .monotone import MonotoneFunction, dominates
from .states import (
    DensityMatrix,
    EigenFrame,
    _draw_gaussians,
    _draw_partition,
    _require_positive,
    _unit_observables,
    derive_seed,
    eigenframe_stack,
    observable,
    observable_stack,
    offdiagonal_dependence,
    pinching,
    random_density_stack,
    random_partition,
)

__all__ = [
    "DEFAULT_TOL",
    "InequalityReport",
    "EqualityClassification",
    "PreparedInstance",
    "InstanceBlock",
    "prepare_random",
    "fill_contraction",
    "contraction_report",
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
_EPS = float(np.finfo(float).eps)
# builds a report from its fields without the NamedTuple's generated keyword __new__
_new_report = tuple.__new__


class _ReportFields(NamedTuple):
    name: str
    lhs: float
    rhs: float
    margin: float
    scale: float
    tol: float
    passed: bool
    hypothesis_ok: bool
    clamps: int
    components: dict  # or the values of ``_HELD_KEYS``, or for a pencil outcome the pencil row it was judged from
    digest: str


# check -> the components' names of the tuple its outcome holds in their place
_HELD_KEYS = {"main": ("det_cov", "det_qov", "f"), "robertson": ("det_cov", "det_commutator"),
              "contraction": ("before", "after", "window", "blocks", "f")}
# pencil check -> the components' names of lhs, det K_small, det(K_big - K_small) and the cross terms
_PENCIL_KEYS = {
    "conj1": ("det_cov", "det_qov", "det_diff", "remainder"),
    "conj2": ("det_qov_f", "det_qov_g", "det_diff_fg", "remainder"),
    "firey": ("det_mix", "det_small", "det_diff", "remainder_t"),
}


class InequalityReport(_ReportFields):
    """Outcome of one inequality check on one instance (an immutable record).

    A pencil outcome keeps the memo row it was judged from in place of its components
    (``InstanceBlock.fill_pencils``'s row, which carries its own f, g and t), a ``main``,
    ``robertson`` or ``contraction`` outcome the tuple of their values, and each builds the dict
    on each read; any other report holds the dict it was given.
    """

    __slots__ = ()

    @property
    def components(self) -> dict:
        held = self[9]
        if type(held) is not tuple:
            return held
        if self.name in _HELD_KEYS:
            return dict(zip(_HELD_KEYS[self.name], held))
        lhs, rem, _, q, dd, _, _, _, f, g, t = held
        keys = _PENCIL_KEYS[self.name]
        out = {keys[0]: lhs, keys[1]: q, keys[2]: dd, keys[3]: rem}
        if t is not None:
            out["t"] = t
        out["f"] = f.label
        if g is not None:
            out["g"] = g.label
        return out

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


def _root(det: float, n_obs: int) -> float:
    """det^{1/N}, with a roundoff-negative det (down to -1e-12) read as 0."""
    if n_obs < 1:
        raise ValueError(f"observable count must be >= 1, got {n_obs}")
    if det < -1e-12:
        raise ValueError(f"determinant {det!r} is negative beyond roundoff")
    return det ** (1.0 / n_obs) if det > 0.0 else 0.0


def _cross_terms(q, c, n_obs: int) -> np.ndarray:
    """Binomial cross terms C(N,k) q^k c^{N-k}, k = 1..N-1, elementwise over two arrays of
    weighted roots q = a det_q^{1/N} >= 0 and c = b det_diff^{1/N}.  Zero for N = 1 and wherever
    q or c vanishes.  Each side's powers come from one list pass through Python's float power,
    the C library's pow, since numpy's vectorized power rounds differently on some hosts."""
    q, c = np.asarray(q, dtype=float), np.asarray(c, dtype=float)
    # x^1 is x itself, and x^2..x^{N-1} come from one list pass
    powers_q, powers_c = (
        [x, *np.reshape([v**k for k in range(2, n_obs) for v in x.tolist()], (max(n_obs - 2, 0), x.size))] for x in (q, c)
    )
    total = 0.0 * q
    for k in range(1, n_obs):
        total = total + math.comb(n_obs, k) * powers_q[k - 1] * powers_c[n_obs - k - 1]
    return total


def remainder(det_q: float, det_diff: float, n_obs: int) -> float:
    """Binomial cross-term sum between the N-th roots of two determinants.

    Equals ((det_q)^{1/N} + (det_diff)^{1/N})^N minus the two pure terms;
    zero for N = 1 and whenever either determinant vanishes.
    """
    return float(_cross_terms([_root(det_q, n_obs)], [_root(det_diff, n_obs)], n_obs)[0])


def remainder_t(det_q: float, det_diff: float, n_obs: int, t: float) -> float:
    """Weighted cross terms ((1-t) q^{1/N})^k (t c^{1/N})^{N-k}, k = 1..N-1.

    At t = 1/2 this is exactly 2^{-N} times ``remainder``.
    """
    _require_unit(t)
    return float(_cross_terms([_root(det_q, n_obs) * (1.0 - t)], [_root(det_diff, n_obs) * t], n_obs)[0])


class PreparedInstance:
    """One (state, observables) pair whose derived quantities its block memoizes.

    ``PreparedInstance(d, obs)`` is built at once, as a block of one.  A drawn instance
    (``prepare_random``'s) is built by the first block it joins, or alone when it is first used:
    its state and frame come from the same stacked path either way, so they have the same bits.
    Building sets its ``scale``; ``state``, ``observables``, ``frame`` and ``norms`` view its block.

    Quantum covariance matrices are produced here for nonregular functions
    too, which the covariance assemblers reject: they are exactly zero there
    (the f(0) factor), which is the degenerate reading that keeps the
    determinant bounds meaningful for the whole catalogue.
    """

    def __init__(self, d: DensityMatrix, obs: Sequence[np.ndarray], digest: str = "custom"):
        self._source = d, observable_stack(d.matrix.shape, [observable(a) for a in obs])
        self.partition, self.digest = random_partition(d.dim, derive_seed("partition", None)), digest
        InstanceBlock((self,))

    def __getattr__(self, name):
        # reached for an attribute the instance lacks: one that no block has built yet, or none
        if name.startswith("__") or "_block" in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        InstanceBlock((self,))
        return getattr(self, name)

    @property
    def state(self) -> DensityMatrix:
        (matrices, values, vectors), k = self._block.states, self._index
        return DensityMatrix(matrices[k], EigenDecomposition(values[k], vectors[k]))

    @property
    def observables(self) -> tuple:
        return tuple(self._block.observables[self._index])

    @property
    def frame(self) -> EigenFrame:
        frame, k = self._block.frame, self._index
        return EigenFrame(frame.lambdas[k], frame.observables[k], frame.norms[k])

    @property
    def norms(self) -> tuple:
        return tuple(self._block.norms[self._index].tolist())

    # Each memo read is one dict.get; the block fills a missing key for all its instances.

    def matrix(self, side) -> np.ndarray:
        """Memoized N x N matrix: Cov for "cov", Qov_f for a function f, and for
        "robertson" the commutator bound matrix Im(S), S_kl = sum_h lambda_h A^k_hj A^l_jh."""
        block = self._block
        got = block.matrix.get(side)
        if got is None:
            block.assemble((side,))
            got = block.matrix[side]
        return got[self._index]

    def det(self, big, small=None) -> float:
        """Memoized determinant of ``matrix(big)``, or of ``matrix(big) - matrix(small)``."""
        block = self._block
        got = block.det.get((big, small))
        if got is None:
            block.determinants(((big, small),))
            got = block.det[big, small]
        return got[self._index]

    def pencil(self, f, g, t) -> tuple:
        """Memoized row t of the pencil (Cov, Qov_f) for g None, else (Qov_f, Qov_g): the
        unit-weight row for t None, else the Firey row at t, filled for the block by
        ``InstanceBlock.fill_pencils`` when it is missing (a t off the grid is a grid of one)."""
        block = self._block
        got = block.pencil.get((f, g, t))
        if got is None:
            block.fill_pencils(((f, g),), (t,), ())
            got = block.pencil[f, g, t]
        return got[self._index]

    def structure(self) -> tuple[int, bool]:
        """Memoized rank of the frame observables as real vectors, and whether some real
        combination of them is diagonal in the state's eigenbasis; every equality check shares them."""
        block = self._block
        got = block.structure.get(None)
        if got is None:
            block.find_structure()
            got = block.structure[None]
        return got[self._index]

    def contraction(self, f) -> tuple:
        """The contraction sums for f (``fill_contraction``'s) at the instance's ``partition``, which
        ``CheckPlan.evaluate`` stores in the block."""
        return self._block.contraction[f][self._index]


def _build(instances) -> tuple:
    """Build instances of one (n, N) that no block has built, all at once: set their ``scale`` and return
    their stacked states, observables, frame and observable norms.  Drawn Gaussians form the states
    (``random_density_stack``) and observables (``_unit_observables``, exactly Hermitian by construction)
    as stacks; a given state and family, checked when given, are taken as they are.  The norms give the
    scales (overflow raises before anything on them can warn), and ``eigenframe_stack`` rotates them all.
    A failing check raises the error of its first failing instance, the one it raises alone."""
    if isinstance(instances[0]._source[0], DensityMatrix):  # only a PreparedInstance(d, obs), which builds alone
        d, obs = instances[0]._source
        matrices, values, vectors, obs = d.matrix[None], d.eigenvalues[None], d.eigen.unitary[None], obs[None]
    else:
        x, kinds, pairs = zip(*(inst._source for inst in instances))
        x = np.array(x)
        matrices, values, vectors = random_density_stack(x[:, 0], kinds, pairs)
        obs = _unit_observables(x[:, 1:])
    scales, norms = observable_scale(obs)
    frame = eigenframe_stack((matrices, values, vectors), obs)
    for inst, scale in zip(instances, scales):
        inst.scale = scale
    return (matrices, values, vectors), obs, frame, norms


class InstanceBlock:
    """Instances of one (n, N), evaluated together: each memo maps a key to its value for
    every instance, computed on first use by one stacked evaluation.  The block first builds
    the instances that no block has built (``_build``), so a campaign's block of drawn
    instances forms, checks, eigensolves and rotates them all at once, and keeps the stacks of states
    and observables that its instances view.  A campaign fills the memos its checks read with
    ``fill_pencils`` and ``find_structure``, and stores ``fill_contraction``'s sums from those stacks.
    Every stacked operation acts on each instance's slice alone (elementwise, or LAPACK and BLAS
    per matrix), so a value is bit-identical whichever block computed it."""

    def __init__(self, instances):
        todo = [inst for inst in instances if "_block" not in vars(inst)]
        # what the block reads of its instances, not the instances: they refer to it
        if todo and len(todo) == len(instances):  # all built now, in this order: their stacks as _build makes them
            self.states, self.observables, self.frame, self.norms = _build(todo)
        else:
            if todo:  # built first as a block of their own, whose stacks are read below
                InstanceBlock(todo)
            at = [(inst._block, inst._index) for inst in instances]  # each member's block and place in it
            self.states = tuple(np.array([b.states[j][k] for b, k in at]) for j in range(3))
            self.observables, self.norms = (np.array([getattr(b, a)[k] for b, k in at]) for a in ("observables", "norms"))
            self.frame = EigenFrame(*(np.array([getattr(b.frame, a)[k] for b, k in at]) for a in ("lambdas", "observables", "norms")))
        for k, inst in enumerate(instances):
            inst._block, inst._index = self, k
        self.size = len(instances)
        self.matrix: dict = {}  # side -> (B, N, N) stack
        self.det: dict = {}  # (big, small) -> B determinants
        self.pencil: dict = {}  # (f, g, t) -> B pencil rows
        self.structure: dict = {}  # None -> B (rank, off-diagonal dependence) pairs
        self.contraction: dict = {}  # f -> B contraction sums, filled only by CheckPlan.evaluate

    def assemble(self, sides) -> None:
        """Each missing side by one einsum over the stacked frames (zeros for a nonregular f)."""
        for side in dict.fromkeys(sides):
            if side in self.matrix:
                continue
            frame = self.frame
            if side == "cov":
                got = cov_matrix_frame(frame)
            elif side == "robertson":
                x = frame.observables
                r = np.einsum("...h,...khj,...ljh->...kl", frame.lambdas, x, x).imag
                got = 0.5 * (r - np.swapaxes(r, -1, -2))
            elif not side.regular:
                got = np.zeros((self.size, frame.size, frame.size))
            else:
                got = qov_matrix_frame(frame, side)
            self.matrix[side] = got

    def determinants(self, keys) -> None:
        """det(big), or det(big - small), of each missing key (big, small): the symmetric ones by
        one ``det_real_symmetric`` call on the instance-major (N, N, B·K) stack, the
        commutator matrices' by one ``det_antisymmetric`` call on their (N, N, B) stack."""
        todo = [key for key in dict.fromkeys(keys) if key not in self.det]
        self.assemble([side for key in todo for side in key if side is not None])
        m = self.matrix
        symmetric = [key for key in todo if key[0] != "robertson"]
        if symmetric:
            stack = np.stack([m[big] if small is None else m[big] - m[small] for big, small in symmetric], axis=1)
            values = det_real_symmetric(stack.reshape(-1, *stack.shape[2:]).transpose(1, 2, 0)).reshape(stack.shape[:2])
            self.det.update(zip(symmetric, values.T.tolist()))
        if ("robertson", None) in todo:
            self.det["robertson", None] = det_antisymmetric(m["robertson"].transpose(1, 2, 0)).tolist()

    def fill_pencils(self, pencils, ts, sides) -> None:
        """Rows t of the pencils (f, g) for every instance, their determinants taken in one call
        with those of ``sides``.  Row None has the weights (a, b) = (1, 1) and lhs det K_big; row
        t has (1 - t, t) and lhs det(t K_big + (1 - 2t) K_small), the mixes of every t in one
        broadcast B·P·T stack.  One elementwise formula gives every right side,
        a^N q + b^N dd + cross terms of a q^{1/N} and b dd^{1/N}, where q = det K_small and
        dd = det(K_big - K_small) are clamped at 0.  A row is (lhs, cross terms, rhs, q, dd,
        clamp count, raw det K_small, raw det(K_big - K_small), f, g, t): no window enters it,
        each outcome tests its own and keeps the row as its components.  Unit weights multiply
        exactly, so row None is not 2^N times row 1/2: the two can round apart."""
        firey = [k for k, t in enumerate(ts) if t is not None]
        for k in firey:
            _require_unit(ts[k])
        pairs = [("cov", f) if g is None else (f, g) for f, g in pencils]
        keys = [key for big, small in pairs for key in ((small, None), (big, small), (big, None))]
        self.determinants([(side, None) for side in sides] + keys)
        if not pencils:
            return
        n = self.frame.size
        # det K_small, det(K_big - K_small) and det K_big, each (B, P, 1) to broadcast over the rows
        raw = np.array([self.det[key] for key in keys]).reshape(len(pairs), 3, -1, 1).transpose(1, 2, 0, 3)
        ok = raw[:2] >= 0.0
        clamped = np.where(ok, raw[:2], 0.0)  # keeps -0.0, as _clamp does
        q, dd = clamped
        root_q, root_dd = np.array([_root(v, n) for v in clamped.ravel().tolist()]).reshape(clamped.shape)
        a = np.array([1.0 if t is None else 1.0 - t for t in ts])
        b = np.array([1.0 if t is None else t for t in ts])
        lhs = np.repeat(raw[2], len(ts), axis=2)
        if firey:
            grid = b[firey]
            big, small = (np.stack([self.matrix[pair[k]] for pair in pairs], axis=1)[:, :, None] for k in (0, 1))
            mixes = (grid[:, None, None] * big + (1.0 - 2.0 * grid)[:, None, None] * small).reshape(-1, n, n)
            lhs[:, :, firey] = det_real_symmetric(mixes.transpose(1, 2, 0)).reshape(*lhs.shape[:2], -1)
        rem = _cross_terms((root_q * a).ravel(), (root_dd * b).ravel(), n)
        rhs = (np.array([v**n for v in a.tolist()]) * q + np.array([v**n for v in b.tolist()]) * dd).ravel() + rem
        # per pencil: (T, B) lists of lhs, rem and rhs, then (B,) lists of the row's other entries
        columns = [v.reshape(lhs.shape).transpose(1, 2, 0).tolist() for v in (lhs, rem, rhs)]
        columns += [v[:, :, 0].T.tolist() for v in (q, dd, 2 - ok.sum(axis=0), raw[0], raw[1])]
        for (f, g), lhs_t, rem_t, rhs_t, *rest in zip(pencils, *columns):
            for t, lhs_b, rem_b, rhs_b in zip(ts, lhs_t, rem_t, rhs_t):
                self.pencil[f, g, t] = list(zip(lhs_b, rem_b, rhs_b, *rest, repeat(f), repeat(g), repeat(t)))

    def find_structure(self) -> None:
        """Every ``structure()``, by one batched SVD for the ranks and one for the dependence."""
        frame = self.frame
        flat = frame.observables.reshape(self.size, frame.size, -1)
        # Centering an observable proportional to the identity leaves only
        # rounding noise behind; a floor at the raw observables' scale keeps
        # such a row from counting as an independent direction.
        floors = RANK_TOL * np.maximum(1.0, self.norms.max(axis=-1))
        ranks = numeric_rank(np.concatenate((flat.real, flat.imag), axis=-1), floor=floors).tolist()
        self.structure[None] = list(zip(ranks, offdiagonal_dependence(frame).dependent.tolist()))


def prepare_random(n: int, n_obs: int, seed: int, kind: str = "generic") -> PreparedInstance:
    """Draw an instance from one generator seeded with ``seed``, reproducible from the digest alone:
    the Gaussians of the state and its N observables and a degenerate pair (``_draw_gaussians``), then
    the partition (``_draw_partition``), whatever checks run.  The block it joins forms and builds it."""
    if n_obs < 1:
        raise ValueError("eigenframe needs at least one observable")
    rng, inst = np.random.default_rng(seed), PreparedInstance.__new__(PreparedInstance)
    x, pair = _draw_gaussians(rng, n, 1 + n_obs, kind)
    inst._source, inst.partition = (x, kind, pair), _draw_partition(rng, n)
    inst.digest = f"n={n},N={n_obs},kind={kind},seed={seed}"
    return inst


def _report(name, lhs, rhs, scale, tol, components, digest, clamps=0, window=None):
    """Pass when margin >= -window, by default -tol * scale.  A NaN margin
    raises ArithmeticError instead of reading as a violation."""
    margin = lhs - rhs
    passed = bool(margin >= -(tol * scale if window is None else window))
    if not passed and margin != margin:
        raise ArithmeticError(f"{name}: margin is NaN (lhs {lhs!r}, rhs {rhs!r})")
    fields = (name, lhs, rhs, margin, scale, tol, passed, True, clamps, components, digest)
    return _new_report(InequalityReport, fields)


def check_main(inst: PreparedInstance, f: MonotoneFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det Cov >= det Qov_f."""
    lhs = inst.det("cov")
    rhs = inst.det(f)
    return _report("main", lhs, rhs, inst.scale, tol, (lhs, rhs, f.label), inst.digest)


def _pencil(name, inst, f, g, t, tol):
    """det K_big >= det K_small + det(K_big - K_small) + cross terms, with unit
    weights for t None and the Firey weights (1 - t, t) otherwise.

    (K_big, K_small) is (Cov, Qov_f) with g None and (Qov_f, Qov_g) for the
    pair, which needs strict dominance f(0)/f > g(0)/g, extended to a
    nonregular g (ratio 0).  Both sides are row t of the pencil, where both
    determinants enter clamped at 0.  A clamped determinant must lie in the
    window tol * scale, or ``_clamp`` raises: K_small (Qov_f or Qov_g) is PSD,
    so det K_small is tested in every outcome, and K_big - K_small is PSD only
    under the hypothesis (Cov >= Qov_f always, Qov_f >= Qov_g when f dominates
    g), so det(K_big - K_small) is tested only where it holds.  The report
    keeps the row as its components.  This is the body of every pencil outcome,
    so the memo read and ``_report``'s verdict and NaN guard are inline.
    """
    if g is None:
        hypothesis_ok = True
    elif f.regular and g.regular:
        hypothesis_ok = dominates(f, g).strict
    else:  # not both regular: it holds when g alone is not
        hypothesis_ok = f.regular
    got = inst._block.pencil.get((f, g, t))
    # a missing row (a t off the grid) is filled for the whole block
    row = inst.pencil(f, g, t) if got is None else got[inst._index]
    lhs, _, rhs, _, _, clamps, raw_q, raw_dd, _, _, _ = row
    scale = inst.scale
    if clamps:
        window = tol * scale
        _clamp(raw_q, window, "det Qov" if g is None else "det Qov_g")
        if hypothesis_ok:
            _clamp(raw_dd, window, "det(Cov - Qov)" if g is None else "det(Qov_f - Qov_g)")
    margin = lhs - rhs
    passed = margin >= -(tol * scale)  # the row holds Python floats, so this is a bool
    if not passed and margin != margin:
        raise ArithmeticError(f"{name}: margin is NaN (lhs {lhs!r}, rhs {rhs!r})")
    fields = (name, lhs, rhs, margin, scale, tol, passed, hypothesis_ok, clamps, row, inst.digest)
    return _new_report(InequalityReport, fields)


def check_conj1(inst: PreparedInstance, f: MonotoneFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det Cov >= det Qov + det(Cov - Qov) + cross terms."""
    return _pencil("conj1", inst, f, None, None, tol)


def check_conj2(
    inst: PreparedInstance,
    f: MonotoneFunction,
    g: MonotoneFunction,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """det Qov_f >= det Qov_g + det(Qov_f - Qov_g) + cross terms."""
    return _pencil("conj2", inst, f, g, None, tol)


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
    if not 0.0 <= t <= 1.0:  # the range test, inline; its error only where it fails
        _require_unit(t)
    return _pencil("firey", inst, f, g, t, tol)


def check_robertson(inst: PreparedInstance, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det Cov >= det of the commutator bound matrix (exactly 0 for odd N)."""
    lhs = inst.det("cov")
    rhs = inst.det("robertson")
    return _report("robertson", lhs, rhs, inst.scale, tol, (lhs, rhs), inst.digest)


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
    block, k, get, window = inst._block, inst._index, inst._block.det.get, tol * inst.scale
    cov, qf, qg, structure = get(("cov", None)), get((f, None)), get((g, None)), block.structure.get(None)
    # one dict.get per memo; one that no block call has filled yet is filled by its method, for the block
    det_cov = inst.det("cov") if cov is None else cov[k]
    det_qf = inst.det(f) if qf is None else qf[k]
    det_qg = None if g is None else inst.det(g) if qg is None else qg[k]
    rank, offdiag = inst.structure() if structure is None else structure[k]
    dependent = rank < block.frame.size

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
    named = (("K", k), ("L", l))
    # each checked as its determinant call checks it, then max(1, the largest entry of either)
    scale = max(1.0, *(float(np.abs(_real_stack(m, 1.0, name)).max()) for name, m in named))
    for name, m in named:
        if np.linalg.eigvalsh(m)[0] < -1e-10 * scale:
            raise ValueError(f"{name} is not positive semidefinite")
    window = tol * scale**n
    dets = det_real_symmetric(np.stack((k, l, (1.0 - t) * k + t * l), axis=-1)).tolist()
    det_k, c1 = _clamp(dets[0], window, "det K")
    det_l, c2 = _clamp(dets[1], window, "det L")
    det_mix, c3 = _clamp(dets[2], window, "det mix")
    lhs = det_mix ** (1.0 / n)
    rhs = (1.0 - t) * det_k ** (1.0 / n) + t * det_l ** (1.0 / n)
    components = {"det_k": det_k, "det_l": det_l, "det_mix": det_mix, "t": t}
    return _report("minkowski-firey", lhs, rhs, scale, tol, components, f"selftest[{n}x{n}]", c1 + c2 + c3)


def fill_contraction(states, x, partitions, functions) -> dict:
    """Both sides of the contraction check for each f and each of B instances: their ``states`` as
    ``density_stack`` returns them, a (B, n, n) stack ``x`` of checked, exactly Hermitian tangents and one
    partition each.  f -> one (before, after, least eigenvalue of the state and of the pinched state, number
    of blocks) per instance.  One ``pinching`` call pinches the states and the traceless X0, and one ``eigh``
    takes the pinched states, tested only against ``POSITIVITY_FLOOR`` (pinching keeps a state finite,
    Hermitian and its diagonal bit for bit).  Each X0 and its pinching are rotated by one stacked matmul
    (Hermitian by construction, so unchecked), then per function one ``pair_means`` call over the
    (B, 2, n) spectra and one weighted sum over the (B, 2, n, n) products."""
    matrices, values, vectors = states
    n = x.shape[-1]
    x0 = x - (np.trace(x, axis1=-2, axis2=-1).real / n)[:, None, None] * np.eye(n)
    pinched = pinching(np.stack((matrices, x0), axis=1), partitions)
    pinched_values, pinched_vectors = np.linalg.eigh(pinched[:, 0])
    _require_positive(pinched_values)
    u = np.stack((vectors, pinched_vectors), axis=1)
    r = np.swapaxes(u.conj(), -1, -2) @ np.stack((x0, pinched[:, 1]), axis=1) @ u
    products = r.conj() * r
    spectra = np.stack((values, pinched_values), axis=1)
    floors = spectra[:, :, 0].min(axis=1).tolist()
    blocks = [len(partition) for partition in partitions]
    got = {}
    for f in functions:
        sums = metric_sum(products, pair_means(spectra, f), f).tolist()
        got[f] = [(before, after, floor, k) for (before, after), floor, k in zip(sums, floors, blocks)]
    return got


def contraction_report(sums, f: MonotoneFunction, n: int, tol: float) -> InequalityReport:
    """The contraction outcome of an n-level state from its ``fill_contraction`` sums for f."""
    before, after, lam_floor, blocks = sums
    scale = max(1.0, before)
    # Metric weights near a tiny eigenvalue lam are 1/lam-sized, and storing
    # the pinched matrix in doubles already limits lam to roughly
    # eps*||D||/lam relative accuracy, so the achievable precision of the
    # two sides degrades by that factor.  Widen the window accordingly;
    # for healthy spectra the extra term is far below tol*scale.
    window = tol * scale + 4.0 * n * _EPS / lam_floor * before
    held = (before, after, window, blocks, f.label)
    return _report("contraction", before, after, scale, tol, held, f"contraction[n={n}]", window=window)


def check_metric_contraction(
    d: DensityMatrix,
    x: np.ndarray,
    f: MonotoneFunction,
    partition: Sequence,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """Metric monotonicity under pinching: K_T(D)(T(X), T(X)) <= K_D(X, X).

    X, checked as an observable of the state's shape, is projected onto the
    traceless part first (tangent vectors of the state space); pinching
    commutes with that projection.  Both sides are ``fill_contraction``'s on a stack of one.
    """
    if np.shape(x) != d.matrix.shape:
        raise ValueError(f"tangent x shape {np.shape(x)} does not match the state")
    (sums,) = fill_contraction((d.matrix[None], d.eigenvalues[None], d.eigen.unitary[None]), observable(x)[None], [partition], (f,))[f]
    return contraction_report(sums, f, d.dim, tol)
