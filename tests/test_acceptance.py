"""Release acceptance battery: ten frozen end-to-end checks.

Every layer is exercised against an independent reference or a hand-computed
witness: the scalar covariance routes against the eigenbasis routes and the
dense superoperator inverse, the weighting coefficients against their closed
form, the determinant inequalities on a full (dimension, family size,
spectrum kind) grid, the equality classifier on constructed and on random
observable families, the function catalogue, and the campaign driver's
determinism, exit codes and on-disk instance format.

Seeds and instance counts are frozen, so the battery is deterministic.  Each
test prints one summary line (visible under ``pytest -s``) with the worst
deviation it saw next to the window it had to stay inside.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import FIXTURES, PAULI_X, PAULI_Y

import qfidet.campaign as campaign_module
from oracles import check_operator_monotone, cov, qov, qov_rotated, qov_superop, rotated_tangent
from qfidet.campaign import BLOCK_INSTANCES, REPORT_VERSION, CampaignConfig, CheckPlan, run_campaign
from qfidet.cli import main as cli_main
from qfidet.covariance import (
    alpha_coefficients,
    cov_matrix_frame,
    observable_scale,
    pair_means,
    qov_matrix_frame,
)
from qfidet.inequalities import (
    DEFAULT_TOL,
    PreparedInstance,
    check_conj1,
    check_conj2,
    check_firey,
    check_metric_contraction,
    check_robertson,
    classify_equality,
    prepare_random,
)
from qfidet.io import load_instance
from qfidet.monotone import (
    STANDARD_GRID,
    dominates,
    make_function,
    parse_function_spec,
    tilde,
)
from qfidet.linalg import EigenDecomposition
from qfidet.states import (
    DensityMatrix,
    _draw_gaussians,
    _unit_observables,
    density,
    derive_seed,
    eigenframe_stack,
    offdiagonal_dependence,
    random_density,
    random_density_stack,
    random_observable,
    random_partition,
)

SEED = 341_217
KINDS = ("generic", "degenerate", "near-singular")

REGULAR_SPECS = ("sld", "wy", "wyd:0.3", "wyd:0.85")
GRID_SPECS = ("sld", "wy", "wyd:0.3", "kubo-mori")
PAIR_SPECS = (("sld", "wy"), ("sld", "wyd:0.3"), ("wy", "wyd:0.3"))
CATALOG_SPECS = (
    "sld",
    "wy",
    "wyd:0.3",
    "kubo-mori",
    "harmonic",
    "log-square",
    "sqrt-log",
    "alpha:0.25",
)

ROUTE_DIMS = (2, 3, 4, 8)
ROUTE_PER_CELL = 834  # 4 dims x 3 kinds x 834 = 10008 instances
SUPEROP_INSTANCES = 100
GRID_DIMS = (2, 3, 4)
GRID_SIZES = (1, 2, 3)
GRID_PER_CELL = 1000
T_GRID = tuple(k / 10.0 for k in range(11))
FAMILIES_PER_CELL = 1112  # 9 cells x 1112 = 10008 random families
CONSTRUCTED_FAMILIES = 500
MONOTONE_TRIALS = 32  # x 8 functions x 2 dims = 512 sampled pairs
PINCHING_DRAWS = 1000

SLD = make_function("sld")
WY = make_function("wy")


def _line(tag: str, ok: bool, detail: str) -> str:
    text = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print(text)
    return text


def _evaluated(plan: CheckPlan, names: set, tag: str, n: int, n_obs: int, count: int, kinds: tuple):
    """Instances k = 0..count-1 of (n, N), from derive_seed(SEED, tag, n, N, k) and kind
    kinds[k % len(kinds)], evaluated by ``plan`` in runs of ``BLOCK_INSTANCES`` as a campaign
    evaluates them.  A row does not depend on its block, so each value is the one the
    instance gives alone."""
    for start in range(0, count, BLOCK_INSTANCES):
        members = range(start, min(start + BLOCK_INSTANCES, count))
        seeds = [derive_seed(SEED, tag, n, n_obs, k) for k in members]
        block = [prepare_random(n, n_obs, seed, kind=kinds[k % len(kinds)]) for seed, k in zip(seeds, members)]
        plan.evaluate(block, names)
        yield from block


@dataclass
class RouteSweep:
    instances: int = 0
    worst_cov: float = 0.0
    worst_qov: float = 0.0
    worst_alpha: float = 0.0
    cov_failures: int = 0
    qov_failures: int = 0
    alpha_failures: int = 0
    worst_superop: float = 0.0
    superop_failures: int = 0
    elapsed: float = 0.0


def _route_draws(n: int, seeds: list, kind: str) -> tuple:
    """For each seed, the state ``random_density(n, seed, kind)`` and the observables
    ``random_observable(n, derive_seed(seed, side))`` for side "a" and "b", each from its own
    generator as those functions draw it, formed as one stack of states (as ``density_stack``
    returns them) and one (B, 2, n, n) stack of observables.  A stacked matrix has the bits it
    has alone."""
    states = [_draw_gaussians(np.random.default_rng(derive_seed("density", n, seed, kind)), n, 1, kind) for seed in seeds]
    stacked = random_density_stack(np.concatenate([x for x, _ in states]), (kind,) * len(seeds), [p for _, p in states])
    rngs = [np.random.default_rng(derive_seed("observable", n, derive_seed(seed, side))) for seed in seeds for side in "ab"]
    x = np.concatenate([_draw_gaussians(rng, n, 1, "generic")[0] for rng in rngs])
    return stacked, _unit_observables(x).reshape(len(seeds), 2, n, n)


@pytest.fixture(scope="module")
def route_sweep() -> RouteSweep:
    """Each instance is checked by the scalar routes one at a time.  The draws of one (n, kind),
    each from its own generator, and its frame side run as stacks, which give each instance the
    bits it has alone; the first instance of each is drawn alone as well, to show it."""
    functions = [parse_function_spec(s) for s in REGULAR_SPECS]
    out = RouteSweep()
    t0 = time.perf_counter()
    for n in ROUTE_DIMS:
        for kind in KINDS:
            seeds = [derive_seed(SEED, "route", n, kind, k) for k in range(ROUTE_PER_CELL)]
            states, obs = _route_draws(n, seeds, kind)
            draws = [
                (DensityMatrix(m, EigenDecomposition(lam, u)), a, b)
                for m, lam, u, (a, b) in zip(*states, obs)
            ]
            alone = random_density(n, seeds[0], kind)
            assert np.array_equal(alone.matrix, states[0][0]) and np.array_equal(alone.eigen.unitary, states[2][0])
            assert np.array_equal(random_observable(n, derive_seed(seeds[0], "b")), obs[0, 1])
            scales, norms = observable_scale(obs)
            frame = eigenframe_stack(states, obs, norms)
            cov_frame = cov_matrix_frame(frame)[:, 0, 1].tolist()
            lam = frame.lambdas
            pair_scale = np.maximum(lam[:, :, None], lam[:, None, :])
            q_frames, alpha_devs = [], []
            for f in functions:
                q_frames.append(qov_matrix_frame(frame, f)[:, (0, 0), (1, 0)].tolist())
                direct = f.value_at_zero * (lam[:, :, None] - lam[:, None, :]) ** 2 / (2.0 * pair_means(lam, f))
                alpha_devs.append(np.max(np.abs(alpha_coefficients(lam, f) - direct) / pair_scale, axis=(1, 2)).tolist())
            for k, ((d, a, b), scale) in enumerate(zip(draws, scales)):
                window = 1e-10 * scale
                dev = abs(cov(d, a, b) - cov_frame[k])
                out.worst_cov = max(out.worst_cov, dev / scale)
                out.cov_failures += dev > window
                # the oracle qov of (a, b) and (a, a), its tangents formed once and its means once per f
                ra, rb = rotated_tangent(d, a), rotated_tangent(d, b)
                for f, q_frame, adevs in zip(functions, q_frames, alpha_devs):
                    means = pair_means(d.eigenvalues, f)
                    for x, y, q in ((ra, rb, q_frame[k][0]), (ra, ra, q_frame[k][1])):
                        dev = abs(qov_rotated(f, x, y, means) - q)
                        out.worst_qov = max(out.worst_qov, dev / scale)
                        out.qov_failures += dev > window
                    out.worst_alpha = max(out.worst_alpha, adevs[k])
                    out.alpha_failures += adevs[k] > 1e-11
                out.instances += 1
    for k in range(SUPEROP_INSTANCES):
        seed = derive_seed(SEED, "superop", k)
        d = random_density(3, seed, ("generic", "degenerate")[k % 2])
        a = random_observable(3, derive_seed(seed, "a"))
        b = random_observable(3, derive_seed(seed, "b"))
        for f in functions:
            ref = qov_superop(d.matrix, f, a, b)
            dev = abs(qov(d, f, a, b) - ref) / max(1.0, abs(ref))
            out.worst_superop = max(out.worst_superop, dev)
            out.superop_failures += dev > 1e-9
    out.elapsed = time.perf_counter() - t0
    return out


@dataclass
class GridSweep:
    instances: int = 0
    conj1_checks: int = 0
    conj1_violations: int = 0
    conj1_worst: float = np.inf
    conj2_checks: int = 0
    conj2_violations: int = 0
    conj2_skipped: int = 0
    conj2_worst: float = np.inf
    firey_checks: int = 0
    firey_violations: int = 0
    firey_worst: float = np.inf
    halving_worst: float = 0.0
    robertson_checks: int = 0
    robertson_violations: int = 0
    robertson_worst: float = np.inf
    odd_rhs_worst: float = 0.0
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def grid_sweep() -> GridSweep:
    functions = [parse_function_spec(s) for s in GRID_SPECS]
    pairs = [(parse_function_spec(f), parse_function_spec(g)) for f, g in PAIR_SPECS]
    plan = CheckPlan(functions=tuple(functions), pairs=tuple(pairs), tol=DEFAULT_TOL, t_grid=T_GRID)
    names = {"conj1", "conj2", "firey", "robertson"}
    out = GridSweep()
    t0 = time.perf_counter()
    for n in GRID_DIMS:
        for n_obs in GRID_SIZES:
            for inst in _evaluated(plan, names, "grid", n, n_obs, GRID_PER_CELL, KINDS):
                halver = 2.0**n_obs
                for f in functions:
                    r1 = check_conj1(inst, f)
                    out.conj1_checks += 1
                    out.conj1_violations += not r1.passed
                    out.conj1_worst = min(out.conj1_worst, r1.margin / r1.scale)
                    for t in T_GRID:
                        rt = check_firey(inst, f, t)
                        out.firey_checks += 1
                        out.firey_violations += not rt.passed
                        out.firey_worst = min(out.firey_worst, rt.margin / rt.scale)
                        if t == 0.5:
                            dev = max(
                                abs(halver * rt.lhs - r1.lhs) / max(1.0, abs(r1.lhs)),
                                abs(halver * rt.components["remainder_t"] - r1.components["remainder"])
                                / max(1.0, r1.components["remainder"]),
                            )
                            out.halving_worst = max(out.halving_worst, dev)
                for f, g in pairs:
                    r2 = check_conj2(inst, f, g)
                    out.conj2_checks += 1
                    out.conj2_skipped += not r2.hypothesis_ok
                    out.conj2_violations += r2.violated
                    if r2.hypothesis_ok:
                        out.conj2_worst = min(out.conj2_worst, r2.margin / r2.scale)
                rr = check_robertson(inst)
                out.robertson_checks += 1
                out.robertson_violations += not rr.passed
                out.robertson_worst = min(out.robertson_worst, rr.margin / rr.scale)
                if n_obs % 2 == 1:
                    out.odd_rhs_worst = max(out.odd_rhs_worst, abs(rr.rhs) / rr.scale)
                out.instances += 1
    out.elapsed = time.perf_counter() - t0
    return out


def test_criterion_01_covariance_route_agreement(route_sweep: RouteSweep) -> None:
    s = route_sweep
    ok = (
        s.instances >= 10_000
        and s.cov_failures == 0
        and s.qov_failures == 0
        and s.superop_failures == 0
        and s.elapsed <= 60.0
    )
    text = _line(
        "criterion 01 route agreement",
        ok,
        f"{s.instances} instances, worst cov dev {s.worst_cov:.2e}, worst qov dev "
        f"{s.worst_qov:.2e} (window 1e-10), oracle dev {s.worst_superop:.2e} "
        f"(window 1e-9), {s.elapsed:.1f}s",
    )
    assert ok, text


def test_criterion_02_weight_coefficient_identity(route_sweep: RouteSweep) -> None:
    s = route_sweep
    ok = s.alpha_failures == 0 and s.instances >= 10_000
    text = _line(
        "criterion 02 weight identity",
        ok,
        f"worst relative dev {s.worst_alpha:.2e} over {s.instances} spectra (window 1e-11)",
    )
    assert ok, text


def test_criterion_03_determinant_bounds_grid(grid_sweep: GridSweep) -> None:
    for f_spec, g_spec in PAIR_SPECS:
        report = dominates(parse_function_spec(f_spec), parse_function_spec(g_spec))
        assert report.strict, f"{f_spec} does not strictly dominate {g_spec}"
    s = grid_sweep
    ok = (
        s.conj1_violations == 0
        and s.conj2_violations == 0
        and s.conj2_skipped == 0
        and s.conj1_checks == len(GRID_DIMS) * len(GRID_SIZES) * GRID_PER_CELL * len(GRID_SPECS)
    )
    text = _line(
        "criterion 03 determinant bounds",
        ok,
        f"{s.conj1_checks} first-bound and {s.conj2_checks} pair-bound checks, "
        f"worst margins {s.conj1_worst:.2e} / {s.conj2_worst:.2e} of scale (floor -1e-9)",
    )
    assert ok, text


def test_criterion_04_tight_qubit_witness() -> None:
    d = density(np.diag([0.75, 0.25]).astype(complex))
    inst = PreparedInstance(d, [PAULI_X, PAULI_Y], digest="qubit-tight")
    r1 = check_conj1(inst, SLD)
    c = r1.components
    devs = [
        abs(c["det_cov"] - 1.0),
        abs(c["det_qov"] - 1.0 / 16.0),
        abs(c["det_diff"] - 9.0 / 16.0),
        abs(c["remainder"] - 3.0 / 8.0),
        abs(r1.margin),
    ]
    rh = check_firey(inst, SLD, 0.5)
    ch = rh.components
    devs += [
        abs(rh.lhs - 1.0 / 4.0),
        abs(0.25 * ch["det_small"] - 1.0 / 64.0),
        abs(0.25 * ch["det_diff"] - 9.0 / 64.0),
        abs(ch["remainder_t"] - 6.0 / 64.0),
        abs(rh.margin),
    ]
    worst = max(devs)
    ok = worst <= 1e-12
    text = _line(
        "criterion 04 tight witness",
        ok,
        f"ten hand values, worst dev {worst:.2e} (window 1e-12)",
    )
    assert ok, text


def test_criterion_05_interpolated_bound_grid(grid_sweep: GridSweep) -> None:
    s = grid_sweep
    expected = s.instances * len(GRID_SPECS) * len(T_GRID)
    ok = s.firey_violations == 0 and s.firey_checks == expected and s.halving_worst <= 1e-11
    text = _line(
        "criterion 05 interpolated bound",
        ok,
        f"{s.firey_checks} checks over {len(T_GRID)} mixing points, worst margin "
        f"{s.firey_worst:.2e} of scale, halving dev {s.halving_worst:.2e} (window 1e-11)",
    )
    assert ok, text


def test_criterion_06_equality_classifier() -> None:
    worst_det = 0.0
    for i in range(CONSTRUCTED_FAMILIES):
        n = 2 + (i % 3)
        rng = np.random.default_rng(derive_seed(SEED, "dependent", i))
        d = random_density(n, derive_seed(SEED, "dependent-state", i), KINDS[i % 3])
        anchor = random_observable(n, derive_seed(SEED, "dependent-obs", i, 0))
        shift = float(rng.standard_normal())
        if i % 2:
            obs = [anchor, anchor + shift * np.eye(n)]
        else:
            second = random_observable(n, derive_seed(SEED, "dependent-obs", i, 1))
            c1, c2 = rng.standard_normal(2)
            obs = [anchor, second, c1 * anchor + c2 * second + shift * np.eye(n)]
        inst = PreparedInstance(d, obs, digest=f"dependent-{i}")
        got = classify_equality(inst, SLD, WY).components
        assert got["condition_a"] and got["condition_b"] and got["condition_c"], got["verdict"]
        assert got["linearly_dependent"] and got["offdiag_dependent"]
        window = 1e-10 * inst.scale
        dets = (inst.det("cov"), inst.det(SLD), inst.det(WY))
        assert all(abs(v) <= window for v in dets), dets
        worst_det = max(worst_det, max(abs(v) for v in dets) / inst.scale)

    families = 0
    unresolved = 0
    mismatches = 0
    inconsistent = 0
    plan = CheckPlan(functions=(), pairs=((SLD, WY),), tol=DEFAULT_TOL)
    for n in GRID_DIMS:
        for n_obs in GRID_SIZES:
            for inst in _evaluated(plan, {"equality"}, "random-family", n, n_obs, FAMILIES_PER_CELL, ("generic",)):
                got = classify_equality(inst, SLD, WY).components
                families += 1
                inconsistent += not got["consistent"]
                if not got["resolved"]:
                    unresolved += 1
                    continue
                bad = got["condition_a"] or got["condition_c"] or (got["condition_b"] != got["offdiag_dependent"])
                mismatches += bad
    ok = mismatches == 0 and inconsistent == 0 and unresolved <= 10
    text = _line(
        "criterion 06 equality classifier",
        ok,
        f"{CONSTRUCTED_FAMILIES} dependent families collapse (worst det {worst_det:.2e} of "
        f"scale, window 1e-10); {families} random families, {mismatches} false equalities, "
        f"{unresolved} flagged unresolved, {inconsistent} inconsistent",
    )
    assert ok, text


def test_criterion_07_offdiagonal_collapse() -> None:
    # Family sizes stay below the dimension of the quotient the classical
    # part lives in (n^2 - 1 directions), so the gap determinant is a Gram
    # determinant of a strict subset of the space and stays well away from
    # zero; a qubit with three observables would saturate the quotient.
    combos = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3))
    worst_qov_det = 0.0
    smallest_gap = np.inf
    for i in range(CONSTRUCTED_FAMILIES):
        n, n_obs = combos[i % len(combos)]
        rng = np.random.default_rng(derive_seed(SEED, "offdiag", i))
        # The gap floor below is a statement about the classical part being
        # genuinely nondegenerate, so the witness states need eigenvalues
        # bounded away from zero (blend toward maximally mixed, keeping the
        # eigenbasis) and diagonal entries with a guaranteed spread; a nearly
        # pure state or a nearly constant diagonal would collapse the gap for
        # reasons unrelated to the off-diagonal construction under test.
        raw = random_density(n, derive_seed(SEED, "offdiag-state", i), "generic")
        d = density(0.5 * raw.matrix + 0.5 * np.eye(n) / n)
        u = d.eigen.unitary
        spread = rng.permutation(np.arange(1.0, n + 1.0)) + 0.25 * rng.standard_normal(n)
        base = [random_observable(n, derive_seed(SEED, "offdiag-obs", i, k)) for k in range(n_obs - 1)]
        last = u @ np.diag(spread) @ u.conj().T
        for coeff, a in zip(rng.standard_normal(max(n_obs - 1, 0)), base):
            last = last + coeff * a
        last = 0.5 * (last + last.conj().T)
        last = last / np.linalg.norm(last)
        inst = PreparedInstance(d, base + [last], digest=f"offdiag-{i}")
        assert offdiagonal_dependence(inst._block.frame)[inst._index]  # the flag of its block's stacked frame
        got = classify_equality(inst, SLD, WY).components
        assert not got["linearly_dependent"] and got["rank"] == n_obs
        assert got["condition_b"] and got["consistent"]
        det_q = abs(inst.det(SLD))
        gap = check_conj1(inst, SLD).components["det_diff"]
        assert det_q <= 1e-10 * inst.scale, (i, det_q)
        assert gap > 1e-6 * inst.scale, (i, gap)
        worst_qov_det = max(worst_qov_det, det_q / inst.scale)
        smallest_gap = min(smallest_gap, gap / inst.scale)
    ok = smallest_gap > 1e-6
    text = _line(
        "criterion 07 offdiagonal collapse",
        ok,
        f"{CONSTRUCTED_FAMILIES} constructed families, worst quantum det {worst_qov_det:.2e} "
        f"of scale (window 1e-10), smallest classical gap {smallest_gap:.2e} (floor 1e-6)",
    )
    assert ok, text


def test_criterion_08_commutator_bound(grid_sweep: GridSweep) -> None:
    s = grid_sweep
    ok = s.robertson_violations == 0 and s.odd_rhs_worst <= 1e-12 and s.robertson_checks == s.instances
    text = _line(
        "criterion 08 commutator bound",
        ok,
        f"{s.robertson_checks} checks, worst margin {s.robertson_worst:.2e} of scale, "
        f"worst odd-size rhs {s.odd_rhs_worst:.2e} (window 1e-12)",
    )
    assert ok, text


def test_criterion_09_function_catalog() -> None:
    expected_zero = {
        "sld": 0.5,
        "wy": 0.25,
        "wyd:0.3": 0.3 * 0.7,
        "kubo-mori": 0.0,
        "harmonic": 0.0,
        "log-square": 0.0,
        "sqrt-log": 0.0,
        "alpha:0.25": 0.0,
    }
    grid = STANDARD_GRID
    worst_axiom = 0.0
    for spec in CATALOG_SPECS:
        f = parse_function_spec(spec)
        values = f(grid)
        symmetry = np.max(np.abs(values - grid * f(1.0 / grid)) / np.maximum(1.0, np.abs(values)))
        worst_axiom = max(worst_axiom, float(symmetry), abs(f(1.0) - 1.0))
        assert abs(f.value_at_zero - expected_zero[spec]) <= 1e-15, spec
    sld_tilde = tilde(SLD)(grid)
    wy_tilde = tilde(WY)(grid)
    worst_tilde = max(
        float(np.max(np.abs(sld_tilde - 2.0 * grid / (1.0 + grid)) / np.maximum(1.0, sld_tilde))),
        float(np.max(np.abs(wy_tilde - np.sqrt(grid)) / np.maximum(1.0, wy_tilde))),
    )

    pairs = 0
    worst_order = np.inf
    order_violations = 0
    for spec in CATALOG_SPECS:
        f = parse_function_spec(spec)
        for dim in (2, 3):
            report = check_operator_monotone(
                f, dim=dim, trials=MONOTONE_TRIALS, seed=derive_seed(SEED, "order", spec, dim)
            )
            pairs += report.trials
            order_violations += len(report.violations)
            worst_order = min(worst_order, report.worst_margin)

    pinch_violations = 0
    worst_pinch = np.inf
    for i in range(PINCHING_DRAWS):
        n = (2, 3, 4, 5)[i % 4]
        seed = derive_seed(SEED, "pinch", i)
        d = random_density(n, seed, KINDS[i % 3])
        x = random_observable(n, derive_seed(seed, "x"))
        blocks = random_partition(n, derive_seed(seed, "blocks"))
        r = check_metric_contraction(d, x, parse_function_spec(CATALOG_SPECS[i % 8]), blocks)
        pinch_violations += not r.passed
        worst_pinch = min(worst_pinch, r.margin / max(1.0, r.lhs))

    ok = (
        worst_axiom <= 1e-12
        and worst_tilde <= 1e-12
        and pairs >= 500
        and order_violations == 0
        and worst_order >= -1e-9
        and pinch_violations == 0
    )
    text = _line(
        "criterion 09 function catalog",
        ok,
        f"axiom dev {worst_axiom:.2e}, transform dev {worst_tilde:.2e} (window 1e-12); "
        f"{pairs} order pairs, worst eigenvalue {worst_order:.2e} (floor -1e-9); "
        f"{PINCHING_DRAWS} pinching draws, worst margin {worst_pinch:.2e}",
    )
    assert ok, text


def test_criterion_10_campaign_interface(tmp_path, monkeypatch, capsys) -> None:
    config = CampaignConfig(
        dims=(2, 3),
        num_obs=(1, 2),
        instances_per_cell=3,
        functions=("sld", "wy"),
        function_pairs=(("sld", "wy"),),
        kinds=("generic", "degenerate"),
        t_grid=(0.0, 0.5, 1.0),
        seed=SEED,
    )
    serial = run_campaign(config, workers=1).to_dict()
    parallel = run_campaign(config, workers=2).to_dict()
    deterministic = serial == parallel

    out = tmp_path / "report.json"
    args = [
        "verify",
        "--dims", "2",
        "--num-obs", "1",
        "--instances", "2",
        "--functions", "sld",
        "--pairs", "sld/wy",
        "--kinds", "generic",
        "--t-grid", "0,0.5,1",
        "--seed", str(SEED),
    ]
    code_pass = cli_main(args + ["--out", str(out)])
    report = json.loads(out.read_text())
    code_config_error = cli_main(["verify", "--dims", "1"])

    real_check = campaign_module.check_main

    def failing_check(inst, f, tol=1e-9):
        return real_check(inst, f, tol)._replace(passed=False, margin=-1.0)

    monkeypatch.setattr(campaign_module, "check_main", failing_check)
    code_violation = cli_main(args + ["--out", str(tmp_path / "bad.json"), "--workers", "1"])
    monkeypatch.undo()

    loaded = load_instance(FIXTURES / "qubit_tight.json")
    inst = PreparedInstance(loaded.state, list(loaded.observables), digest="fixture")
    r1 = check_conj1(inst, SLD)
    round_trip_dev = max(
        abs(r1.components["det_cov"] - 1.0),
        abs(r1.components["det_qov"] - 1.0 / 16.0),
        abs(r1.components["det_diff"] - 9.0 / 16.0),
        abs(r1.margin),
    )
    code_compute = cli_main(["compute", str(FIXTURES / "qubit_tight.json")])
    capsys.readouterr()

    ok = (
        deterministic
        and code_pass == 0
        and report["version"] == REPORT_VERSION
        and report["totals"]["fail"] == 0
        and code_config_error == 2
        and code_violation == 1
        and code_compute == 0
        and round_trip_dev <= 1e-12
    )
    text = _line(
        "criterion 10 campaign interface",
        ok,
        f"reports identical across worker counts: {deterministic}; exit codes "
        f"{code_pass}/{code_violation}/{code_config_error} for pass/violation/config error; "
        f"fixture round trip dev {round_trip_dev:.2e} (window 1e-12)",
    )
    assert ok, text
