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
import weakref
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
    det_antisymmetric,
    det_real_symmetric,
    hermitian_eigen,
    numeric_rank,
    require_hermitian,
)
from .monotone import MonotoneFunction, dominates
from .states import (
    DensityMatrix,
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
    require_partition,
)

__all__ = [
    "DEFAULT_TOL",
    "InequalityReport",
    "PreparedInstance",
    "InstanceBlock",
    "prepare_random",
    "fill_contraction",
    "contraction_report",
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
    components: tuple  # the values the outcome was judged from, which ``_COMPONENTS`` names
    digest: str


# where a pencil outcome's components are in the memo row it holds: (lhs, cross terms, rhs, q, dd, clamp
# count, raw q, raw dd, f, g, t) gives lhs, det K_small, det(K_big - K_small), the cross terms, t, f and g
_PENCIL_AT = (0, 3, 4, 1, 10, 8, 9)
# check name -> its components' keys, in order, and the index of each one's value in what the outcome holds
_COMPONENTS = {
    "main": (("det_cov", "det_qov", "f"), range(3)),
    "conj1": (("det_cov", "det_qov", "det_diff", "remainder", "t", "f", "g"), _PENCIL_AT),
    "conj2": (("det_qov_f", "det_qov_g", "det_diff_fg", "remainder", "t", "f", "g"), _PENCIL_AT),
    "firey": (("det_mix", "det_small", "det_diff", "remainder_t", "t", "f", "g"), _PENCIL_AT),
    "robertson": (("det_cov", "det_commutator"), range(2)),
    "equality": (("det_cov", "det_qov_f", "det_qov_g", "condition_a", "condition_b", "condition_c", "linearly_dependent",
                  "offdiag_dependent", "rank", "verdict", "resolved", "consistent"), range(12)),
    "contraction": (("before", "after", "window", "blocks", "f"), range(5)),
    "minkowski-firey": (("det_k", "det_l", "det_mix", "t"), range(4)),
}


class InequalityReport(_ReportFields):
    """Outcome of one inequality check on one instance (an immutable record).

    It holds the values it was judged from as a tuple (a pencil outcome holds the memo row of
    ``InstanceBlock.fill_pencils``, which carries its own f, g and t) and builds the dict of its
    components from them on each read.
    """

    __slots__ = ()

    @property
    def components(self) -> dict:
        held, out = self[9], {}
        for key, k in zip(*_COMPONENTS[self.name]):
            value = held[k]
            if value is None and key in ("t", "g"):  # a unit pencil has no g, and its row None no t
                continue
            out[key] = value.label if key in ("f", "g") else value
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
    """det^{1/N} of a determinant already clamped at 0 (0 for -0.0 too)."""
    return det ** (1.0 / n_obs) if det > 0.0 else 0.0


def _cross_terms(q, c, n_obs: int) -> np.ndarray:
    """Binomial cross terms C(N,k) q^k c^{N-k}, k = 1..N-1, elementwise over two arrays of
    weighted roots q = a det_q^{1/N} >= 0 and c = b det_diff^{1/N}.  Zero for N = 1 and wherever
    q or c vanishes.  Each side's powers come from one list pass through Python's float power,
    the C library's pow, since numpy's vectorized power rounds differently on some hosts."""
    q, c = np.asarray(q, dtype=float), np.asarray(c, dtype=float)
    # x^1 is x itself, and x^2..x^{N-1} come from one list pass
    powers_q, powers_c = (
        [x, *np.array([v**k for k in range(2, n_obs) for v in x.tolist()]).reshape(max(n_obs - 2, 0), x.size)] for x in (q, c)
    )
    total = 0.0 * q
    for k in range(1, n_obs):
        total = total + math.comb(n_obs, k) * powers_q[k - 1] * powers_c[n_obs - k - 1]
    return total


class PreparedInstance:
    """One (state, observables) pair whose derived quantities its block memoizes.

    ``PreparedInstance(d, obs)`` is built at once, as a block of one.  A drawn instance
    (``prepare_random``'s) is built by the one block it joins, or alone when it is first used:
    its state and frame come from the same stacked path either way, so they have the same bits.
    Building sets its ``scale``; the stacks of states, observables and frames stay in its block.

    Quantum covariance matrices are produced here for nonregular functions
    too, which the covariance assemblers reject: they are exactly zero there
    (the f(0) factor), which is the degenerate reading that keeps the
    determinant bounds meaningful for the whole catalogue.
    """

    def __init__(self, d: DensityMatrix, obs: Sequence[np.ndarray], digest: str = "custom"):
        self._source = d, observable_stack(d.matrix.shape, [observable(a) for a in obs])
        self._partition, self.digest = random_partition(d.dim, derive_seed("partition", None)), digest
        InstanceBlock((self,))

    # the partition of range(n) its block pinches at: the drawn one as drawn, one set before a block builds it judged
    partition = property(lambda self: self._partition, lambda self, blocks: setattr(
        self, "_partition", require_partition(blocks, sum(map(len, self._partition)))))  # the held one covers range(n)

    def __getattr__(self, name):
        # reached for an attribute the instance lacks: one that no block has built yet, or none
        if name.startswith("__") or "_block" in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        InstanceBlock((self,))
        return getattr(self, name)

    # Each memo read is one subscript; the block fills a missing key for all its instances.

    def matrix(self, side) -> np.ndarray:
        """Memoized N x N matrix: Cov for "cov", Qov_f for a function f, and for
        "robertson" the commutator bound matrix Im(S), S_kl = sum_h lambda_h A^k_hj A^l_jh."""
        return self._block.matrix[side][self._index]

    def det(self, side) -> float:
        """Memoized determinant of ``matrix(side)``."""
        return self._block.det[side][self._index]

    def contraction(self, f) -> tuple:
        """Memoized contraction sums for f (``fill_contraction``'s) at the ``partition`` the instance had
        when its block built it."""
        return self._block.contraction[f][self._index]


def _build(instances) -> tuple:
    """Build instances of one (n, N) that no block has built, all at once: set their ``scale`` and return
    their stacked states, observables and frame.  Drawn Gaussians form the states
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
    frame = eigenframe_stack((matrices, values, vectors), obs, norms)
    for inst, scale in zip(instances, scales):
        inst.scale = scale
    return (matrices, values, vectors), obs, frame


class _Memo(dict):
    """A memo of an ``InstanceBlock``, key -> the value of every instance, whose missing key
    ``fill(block, key)`` fills for the whole block; a key that no fill makes, such as a ``det`` key that
    is not a side, raises KeyError.  It refers to its block weakly, so that the two make no reference
    cycle and a block is freed by reference counting when its instances go."""

    __slots__ = ("block", "fill")

    def __init__(self, block, fill):
        self.block, self.fill = weakref.ref(block), fill

    def __missing__(self, key):
        self.fill(self.block(), key)
        if key not in self:
            raise KeyError(key)
        return self[key]


class InstanceBlock:
    """Instances of one (n, N), evaluated together: each memo maps a key to its value for
    every instance, and a missing key is filled for all of them by one stacked evaluation on its
    first read.  The block builds its instances (``_build``), none of which another block has built,
    so a campaign's block of drawn instances forms, checks, eigensolves and rotates them all at once,
    and keeps the stacks of states, observables and frames, and the instances' partitions, that its
    memos are filled from.  A miss fills: ``matrix`` by ``assemble``; ``det`` (keyed by side: "cov",
    "robertson" or a function) and ``pencil`` by ``fill_pencils``, which takes every determinant it
    needs in one call; ``structure`` by ``find_structure``; and ``contraction`` (keyed by function)
    by one ``fill_contraction`` call.  A campaign pre-fills what its checks read with one call of
    each (``CheckPlan.evaluate``).
    Every stacked operation acts on each instance's slice alone (elementwise, or LAPACK and BLAS
    per matrix), so a value is bit-identical whichever block, and whichever fill, computed it."""

    def __init__(self, instances):
        for inst in instances:
            if "_block" in vars(inst):
                raise ValueError(f"instance {inst.digest} is already built, in a block of its own")
        # what the block reads of its instances, not the instances: they refer to it
        self.states, self.observables, self.frame = _build(instances)
        self.partitions = [inst.partition for inst in instances]
        for k, inst in enumerate(instances):
            inst._block, inst._index = self, k
        self.size = len(instances)
        self.matrix = _Memo(self, lambda block, side: block.assemble((side,)))  # side -> (B, N, N) stack
        self.det = _Memo(self, lambda block, side: block.fill_pencils((), (), (side,)))  # side -> B determinants
        # (f, g, t) -> B pencil rows; a t off the grid is a grid of one
        self.pencil = _Memo(self, lambda block, key: block.fill_pencils((key[:2],), key[2:], ()))
        self.structure = _Memo(self, lambda block, key: block.find_structure())  # None -> B (rank, dependence) pairs
        # f -> B contraction sums; a key that is not a function fills nothing
        self.contraction = _Memo(self, lambda block, f: isinstance(f, MonotoneFunction) and block.contraction.update(
            fill_contraction(block.states, block.observables[:, 0], block.partitions, (f,))))

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
                got = 0.5 * (r - r.swapaxes(-1, -2))
            elif not isinstance(side, MonotoneFunction):  # not a side: no matrix
                continue
            elif not side.regular:
                got = np.zeros((self.size, frame.size, frame.size))
            else:
                got = qov_matrix_frame(frame, side)
            self.matrix[side] = got

    def fill_pencils(self, pencils, ts, sides) -> None:
        """Rows t of the pencils (f, g) for every instance, and the determinants of the missing ``sides``
        and pencil sides, from one ``det_real_symmetric`` call on an instance-major stack (the commutator
        matrices' from one ``det_antisymmetric`` call).  Each other pencil determinant is det(b K_big +
        c K_small): dd = det(K_big - K_small) at (1, -1) and the mix at (t, 1 - 2t) for 0 < t < 1.  Row
        None has the weights (a, b) = (1, 1) and lhs det K_big; row t has (1 - t, t) and lhs the mix,
        q = det K_small at t = 0 and dd at t = 1.  Every right side is a^N q + b^N dd + cross terms of
        a q^{1/N} and b dd^{1/N}, with q and dd clamped at 0.  A row is (lhs, cross terms, rhs, q, dd,
        clamp count, raw q, raw dd, f, g, t): no window enters it, each outcome tests its own and keeps
        the row as its components.  Unit weights multiply exactly, so row None is not 2^N times row 1/2."""
        for t in ts:
            if t is not None:
                _require_unit(t)
        pairs = [("cov", f) if g is None else (f, g) for f, g in pencils]
        todo = [side for side in dict.fromkeys([*sides, *(s for pair in pairs for s in pair)]) if side not in self.det]
        self.assemble(todo)
        m, det, n = self.matrix, self.det, self.frame.size
        if "robertson" in todo:
            det["robertson"] = det_antisymmetric(m["robertson"].transpose(1, 2, 0)).tolist()
        symmetric = [side for side in todo if side in m and side != "robertson"]  # a non-side has no matrix
        if not symmetric and not pairs:
            return
        mixed = [t for t in ts if t is not None and 0.0 < t < 1.0]
        on_big, on_small = np.array([(1.0, -1.0), *((t, 1.0 - 2.0 * t) for t in mixed)]).T[:, :, None, None]
        pencil_parts = [on_big * m[big][:, None] + on_small * m[small][:, None] for big, small in pairs]
        stack = np.concatenate([m[side][:, None] for side in symmetric] + pencil_parts, axis=1)
        values = det_real_symmetric(stack.reshape(-1, n, n).transpose(1, 2, 0)).reshape(self.size, -1)
        det.update(zip(symmetric, values[:, : len(symmetric)].T.tolist()))
        if not pairs:
            return
        weighted = values[:, len(symmetric) :].reshape(self.size, len(pairs), -1)  # (B, P, 1 + mixed)
        raw_small, raw_big = (np.array([det[pair[k]] for pair in pairs]).T for k in (1, 0))  # each (B, P)
        lhs_of = {None: raw_big, 0.0: raw_small, 1.0: weighted[:, :, 0]}
        lhs_of.update((t, weighted[:, :, 1 + k]) for k, t in enumerate(mixed))
        lhs = np.concatenate([lhs_of[t][:, :, None] for t in ts], axis=2)
        raw = np.concatenate((raw_small[None], weighted[None, :, :, 0]))[..., None]  # each (B, P, 1), to broadcast over the rows
        ok = raw >= 0.0
        clamped = np.where(ok, raw, 0.0)  # keeps -0.0, as _clamp does
        q, dd = clamped
        root_q, root_dd = np.array([_root(v, n) for v in clamped.ravel().tolist()]).reshape(clamped.shape)
        a = np.array([1.0 if t is None else 1.0 - t for t in ts])
        b = np.array([1.0 if t is None else t for t in ts])
        rem = _cross_terms((root_q * a).ravel(), (root_dd * b).ravel(), n)
        rhs = (np.array([v**n for v in a.tolist()]) * q + np.array([v**n for v in b.tolist()]) * dd).ravel() + rem
        # per pencil: (T, B) lists of lhs, rem and rhs, then (B,) lists of the row's other entries
        columns = [v.reshape(lhs.shape).transpose(1, 2, 0).tolist() for v in (lhs, rem, rhs)]
        columns += [v[:, :, 0].T.tolist() for v in (q, dd, 2 - ok.sum(axis=0), raw[0], raw[1])]
        for (f, g), lhs_t, rem_t, rhs_t, *rest in zip(pencils, *columns):
            for t, lhs_b, rem_b, rhs_b in zip(ts, lhs_t, rem_t, rhs_t):
                self.pencil[f, g, t] = list(zip(lhs_b, rem_b, rhs_b, *rest, repeat(f), repeat(g), repeat(t)))

    def find_structure(self) -> None:
        """Each instance's rank of the frame observables as real vectors, and whether some real
        combination of them is diagonal in the state's eigenbasis, which every equality check shares:
        one batched SVD for the ranks and one for the dependence."""
        frame = self.frame
        flat = frame.observables.reshape(self.size, frame.size, -1)
        # Centering and rotating round at the observables' own scale (frame.norms, as both rank floors
        # read them): an observable proportional to the identity leaves only that noise behind.
        floors = RANK_TOL * np.maximum(1.0, frame.norms.max(axis=-1))
        ranks = numeric_rank(np.concatenate((flat.real, flat.imag), axis=-1), floor=floors).tolist()
        self.structure[None] = list(zip(ranks, offdiagonal_dependence(frame).tolist()))


def prepare_random(n: int, n_obs: int, seed: int, kind: str = "generic") -> PreparedInstance:
    """Draw an instance from one generator seeded with ``seed``, reproducible from the digest alone:
    the Gaussians of the state and its N observables and a degenerate pair (``_draw_gaussians``), then
    the partition (``_draw_partition``), whatever checks run.  The block it joins forms and builds it."""
    if n_obs < 1:
        raise ValueError("eigenframe needs at least one observable")
    rng, inst = np.random.default_rng(seed), PreparedInstance.__new__(PreparedInstance)
    x, pair = _draw_gaussians(rng, n, 1 + n_obs, kind)
    inst._source, inst._partition = (x, kind, pair), _draw_partition(rng, n)
    inst.digest = f"n={n},N={n_obs},kind={kind},seed={seed}"
    return inst


def _report(name, lhs, rhs, scale, tol, values, digest, clamps=0, window=None):
    """Pass when margin >= -window, by default -tol * scale; the report holds ``values`` as its
    components.  A NaN margin raises ArithmeticError instead of reading as a violation."""
    margin = lhs - rhs
    passed = bool(margin >= -(tol * scale if window is None else window))
    if not passed and margin != margin:
        raise ArithmeticError(f"{name}: margin is NaN (lhs {lhs!r}, rhs {rhs!r})")
    fields = (name, lhs, rhs, margin, scale, tol, passed, True, clamps, values, digest)
    return _new_report(InequalityReport, fields)


def check_main(inst: PreparedInstance, f: MonotoneFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det Cov >= det Qov_f."""
    lhs = inst.det("cov")
    rhs = inst.det(f)
    return _report("main", lhs, rhs, inst.scale, tol, (lhs, rhs, f), inst.digest)


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
    row = inst._block.pencil[f, g, t][inst._index]
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
    return _pencil("firey", inst, f, g, t, tol)  # the memo fill refuses a t outside [0, 1]


def check_robertson(inst: PreparedInstance, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det Cov >= det of the commutator bound matrix (exactly 0 for odd N)."""
    lhs = inst.det("cov")
    rhs = inst.det("robertson")
    return _report("robertson", lhs, rhs, inst.scale, tol, (lhs, rhs), inst.digest)


def _equality(facts, scale, tol, digest) -> InequalityReport:
    """The equality outcome from its first nine components (det Cov, det Qov_f, det Qov_g, conditions a,
    b and c, linear and offdiagonal dependence, rank), with the verdict, whether it is resolved and whether
    it is consistent after them.  A contradicted equivalence fails at margin -1, and an equality that fired
    without the dependence behind it is a skipped hypothesis."""
    _, _, _, a, b, c, dependent, offdiag, _ = facts
    verdict = ",".join([name for name, held in (("a", a), ("b", b), ("c", c)) if held]) or "none"
    resolved = not (a and not dependent) and not (b and not offdiag)
    # a dependent family must show its determinant equality
    consistent = not (dependent and not (a and c)) and not (b is not None and offdiag and not b)
    fields = ("equality", facts[0], facts[1], 0.0 if consistent else -1.0, scale, tol, consistent,
              not consistent or resolved, 0, (*facts, verdict, resolved, consistent), digest)
    return _new_report(InequalityReport, fields)


def classify_equality(
    inst: PreparedInstance,
    f: MonotoneFunction,
    g: MonotoneFunction | None = None,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """Which equality conditions hold, plus the structural facts behind them, as components.

    condition_a: det Cov = det Qov_f.  condition_c: the centered observables
    are linearly dependent over the reals.  These two are equivalent.
    condition_b: det Qov_f = det Qov_g (None without g); this one is equivalent
    to offdiagonal dependence, which is strictly weaker than condition_c (a
    single observable diagonal in the state's eigenbasis has b without a or c).

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
    block, k, det, window = inst._block, inst._index, inst._block.det, tol * inst.scale
    # one subscript per memo; a key that no block call has filled yet is filled for the block
    det_cov, det_qf = det["cov"][k], det[f][k]
    det_qg = None if g is None else det[g][k]
    rank, offdiag = block.structure[None][k]
    dependent = rank < block.frame.size
    a = bool(abs(det_cov - det_qf) <= window)
    b = None if det_qg is None else bool(abs(det_qf - det_qg) <= window)
    return _equality((det_cov, det_qf, det_qg, a, b, dependent, dependent, offdiag, rank), inst.scale, tol, inst.digest)


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
    if k.shape != l.shape or k.ndim != 2 or k.shape[0] != k.shape[1] or k.size == 0:
        raise ValueError(f"need two equal square matrices, got {k.shape} and {l.shape}")
    n = k.shape[0]
    require_hermitian(k, "K")
    require_hermitian(l, "L")
    scale = max(1.0, float(np.abs(k).max()), float(np.abs(l).max()))
    for name, least in zip("KL", hermitian_eigen(np.concatenate((k[..., None], l[..., None]), axis=-1)).eigenvalues[:, 0]):
        if least < -1e-10 * scale:
            raise ValueError(f"{name} is not positive semidefinite")
    window = tol * scale**n
    dets = det_real_symmetric(np.concatenate((k[..., None], l[..., None], ((1.0 - t) * k + t * l)[..., None]), axis=-1)).tolist()
    det_k, c1 = _clamp(dets[0], window, "det K")
    det_l, c2 = _clamp(dets[1], window, "det L")
    det_mix, c3 = _clamp(dets[2], window, "det mix")
    lhs = det_mix ** (1.0 / n)
    rhs = (1.0 - t) * det_k ** (1.0 / n) + t * det_l ** (1.0 / n)
    return _report("minkowski-firey", lhs, rhs, scale, tol, (det_k, det_l, det_mix, t), f"selftest[{n}x{n}]", c1 + c2 + c3)


def fill_contraction(states, x, partitions, functions) -> dict:
    """Both sides of the contraction check for each f and each of B instances: their ``states`` as
    ``density_stack`` returns them, a (B, n, n) stack ``x`` of checked, exactly Hermitian tangents and one
    partition of range(n) each.  f -> one (before, after, least eigenvalue of the state and of the pinched
    state, number of blocks) per instance.  One ``pinching`` call pinches the states and the traceless X0,
    and one ``hermitian_eigen`` call takes the pinched states, tested only against ``POSITIVITY_FLOOR``
    (pinching keeps a state finite, Hermitian and its diagonal bit for bit).  Each X0 and its pinching are
    rotated by one stacked matmul (Hermitian by construction, so unchecked), then per function one
    ``pair_means`` call over the (B, 2, n) spectra and one weighted sum over the (B, 2, n, n) products."""
    matrices, values, vectors = states
    n = x.shape[-1]
    x0 = x - (x.trace(axis1=-2, axis2=-1).real / n)[:, None, None] * np.eye(n)
    pinched = pinching(np.concatenate((matrices[:, None], x0[:, None]), axis=1), partitions)
    pinched_eigen = hermitian_eigen(pinched[:, 0].transpose(1, 2, 0))
    _require_positive(pinched_eigen.eigenvalues)
    u = np.concatenate((vectors[:, None], pinched_eigen.unitary[:, None]), axis=1)
    r = u.conj().swapaxes(-1, -2) @ np.concatenate((x0[:, None], pinched[:, 1:]), axis=1) @ u
    products = r.conj() * r
    spectra = np.concatenate((values[:, None], pinched_eigen.eigenvalues[:, None]), axis=1)
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
    values = (before, after, window, blocks, f)
    return _report("contraction", before, after, scale, tol, values, f"contraction[n={n}]", window=window)


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
    commutes with that projection, at a partition of range(n).  Both sides are ``fill_contraction``'s.
    """
    if np.shape(x) != d.matrix.shape:
        raise ValueError(f"tangent x shape {np.shape(x)} does not match the state")
    blocks = require_partition(partition, d.dim)
    (sums,) = fill_contraction((d.matrix[None], d.eigenvalues[None], d.eigen.unitary[None]), observable(x)[None], [blocks], (f,))[f]
    return contraction_report(sums, f, d.dim, tol)
