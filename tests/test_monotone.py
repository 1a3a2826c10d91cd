from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import check_operator_monotone, custom_function

from qfidet.monotone import (
    CATALOG_NAMES,
    STANDARD_GRID,
    CatalogError,
    MonotoneFunction,
    _validate_grid,
    catalog_families,
    dominates,
    make_function,
    mean,
    parse_function_spec,
    tilde,
)

ALL_SPECS = ["sld", "harmonic", "kubo-mori", "log-square", "sqrt-log", "alpha:0.25", "wyd:0.3", "wy"]
REGULAR_SPECS = ["sld", "wy", "wyd:0.3", "wyd:0.85"]


@pytest.fixture(params=ALL_SPECS)
def any_function(request):
    return parse_function_spec(request.param)


@pytest.fixture(params=REGULAR_SPECS)
def regular_function(request):
    return parse_function_spec(request.param)


def test_values_at_zero():
    assert make_function("sld").value_at_zero == 0.5
    assert make_function("wy").value_at_zero == 0.25
    assert make_function("wyd", 0.3).value_at_zero == pytest.approx(0.21, abs=1e-15)
    for name in ("harmonic", "kubo-mori", "log-square", "sqrt-log"):
        f = make_function(name)
        assert f.value_at_zero == 0.0
        assert not f.regular


def test_point_evaluations():
    assert make_function("sld")(3.0) == 2.0
    assert make_function("kubo-mori")(1.0) == 1.0
    assert make_function("wy")(4.0) == pytest.approx(2.25, abs=1e-15)
    assert make_function("harmonic")(1.0) == 1.0
    assert make_function("sld")(0.0) == 0.5


def test_rejects_negative_argument(any_function):
    with pytest.raises(ValueError, match="nonnegative"):
        any_function(-0.5)


def test_normalization_and_symmetry_on_grid(any_function):
    f = any_function
    vals = f(STANDARD_GRID)
    assert np.all(vals > 0.0)
    assert abs(f(1.0) - 1.0) <= 1e-12
    swapped = STANDARD_GRID * f(1.0 / STANDARD_GRID)
    assert (np.abs(vals - swapped) / vals).max() <= 1e-10
    assert np.all(np.diff(vals) > 0.0)


def test_series_window_is_continuous():
    # just inside vs just outside the switch-over near x = 1
    km = make_function("kubo-mori")
    for u in (9.99e-7, -9.99e-7, 1.01e-6, -1.01e-6):
        accurate = u / math.log1p(u)
        assert km(1.0 + u) == pytest.approx(accurate, rel=1e-12)
    wyd = make_function("wyd", 0.3)
    for u in (9.99e-7, 1.0005e-6, 1.01e-6):  # middle value straddles the window
        lo, hi = wyd(1.0 + 0.999 * u), wyd(1.0 + 1.001 * u)
        assert lo < wyd(1.0 + u) < hi


def test_alpha_family_edges():
    # a = 1/2 reproduces the harmonic member, a = 0 the pure square root
    half = make_function("alpha", 0.5)
    harm = make_function("harmonic")
    grid = STANDARD_GRID
    assert np.abs(half(grid) - harm(grid)).max() < 1e-14 * harm(grid).max()
    root = make_function("alpha", 0.0)
    assert np.abs(root(grid) - np.sqrt(grid)).max() < 1e-12 * np.sqrt(grid).max()
    with pytest.raises(CatalogError, match="parameter"):
        make_function("alpha", 0.6)


def test_wyd_family_structure():
    grid = STANDARD_GRID
    # beta = 1/2 collapses to wy, and beta <-> 1 - beta is a symmetry
    ref = make_function("wy")(grid)
    assert (np.abs(make_function("wyd", 0.5)(grid) - ref) / ref).max() < 1e-12
    a, b = make_function("wyd", 0.3)(grid), make_function("wyd", 0.7)(grid)
    assert (np.abs(a - b) / a).max() < 1e-12


def test_wyd_range_gate():
    for beta in (1.5, 0.0, 1.0, -1.0, 2.0):
        with pytest.raises(CatalogError, match=r"0 < \|beta\| < 1"):
            make_function("wyd", beta)


def test_make_function_errors():
    with pytest.raises(CatalogError, match="unknown function"):
        make_function("nope")
    with pytest.raises(CatalogError, match="parameter is required"):
        make_function("wyd")
    with pytest.raises(CatalogError, match="does not take"):
        make_function("sld", 0.5)
    with pytest.raises(CatalogError, match="not a number"):
        parse_function_spec("wyd:x")


def test_labels():
    assert parse_function_spec("wyd:0.3").label == "wyd:0.3"
    assert make_function("sld").label == "sld"


def test_mean_examples():
    sld = make_function("sld")
    wy = make_function("wy")
    assert mean(sld, 3.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert mean(wy, 0.75, 0.25) == pytest.approx((2.0 + math.sqrt(3.0)) / 8.0, abs=1e-15)
    assert mean(sld, 0.6, 0.0) == pytest.approx(0.3, abs=1e-16)
    assert mean(make_function("harmonic"), 0.6, 0.0) == 0.0
    assert mean(sld, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        mean(sld, -1.0, 2.0)


def test_mean_symmetric_by_construction(any_function, rng):
    f = any_function
    x = 10.0 ** rng.uniform(-4, 4, size=10_000)
    y = 10.0 ** rng.uniform(-4, 4, size=10_000)
    forward = mean(f, x, y)
    backward = mean(f, y, x)
    assert np.all(forward == backward)
    assert np.all(forward > 0.0)
    assert np.all(np.isfinite(forward))


@given(
    x=st.floats(min_value=1e-6, max_value=1e6),
    y=st.floats(min_value=1e-6, max_value=1e6),
)
def test_mean_between_min_and_max(x, y):
    sld = make_function("sld")
    harm = make_function("harmonic")
    lo, hi = min(x, y), max(x, y)
    for f in (sld, harm):
        m = mean(f, x, y)
        assert lo * (1 - 1e-12) <= m <= hi * (1 + 1e-12)


def test_tilde_closed_forms():
    grid = STANDARD_GRID
    t_sld = tilde(make_function("sld"))
    expect = 2.0 * grid / (1.0 + grid)
    assert (np.abs(t_sld(grid) - expect) / expect).max() <= 1e-12
    t_wy = tilde(make_function("wy"))
    assert (np.abs(t_wy(grid) - np.sqrt(grid)) / np.sqrt(grid)).max() <= 1e-12
    assert not t_sld.regular and t_sld.value_at_zero == 0.0


def test_tilde_rejects_nonregular():
    with pytest.raises(CatalogError, match="regular"):
        tilde(make_function("kubo-mori"))


@pytest.mark.parametrize(
    "evaluator, value_at_zero, regular, message",
    [
        (lambda x: np.log(x) + 1.0, 0.0, False, "not strictly positive and finite on the grid"),
        # symmetric, positive and 1 at 1, but falling for x between about 1.3 and 42
        (lambda x: np.sqrt(x) / (1.0 + np.log(x) ** 2), 0.0, False, "not nondecreasing on the grid"),
        (lambda x: (1.0 + x) / 2.0, 0.5, False, "regularity flag False inconsistent with f\\(0\\) = 0.5"),
    ],
    ids=["not-positive", "decreasing", "regularity-flag"],
)
def test_the_grid_check_refuses_a_function_that_is_not_a_member(evaluator, value_at_zero, regular, message):
    with pytest.raises(CatalogError, match=f"^bad: {message}$"):
        _validate_grid(MonotoneFunction("bad", evaluator, value_at_zero, regular))


def test_tilde_output_is_valid_member(regular_function):
    t = tilde(regular_function)
    vals = t(STANDARD_GRID)
    swapped = STANDARD_GRID * t(1.0 / STANDARD_GRID)
    assert (np.abs(vals - swapped) / vals).max() <= 1e-10
    assert abs(t(1.0) - 1.0) <= 1e-12


def test_key_identity_links_function_transform_and_mean(regular_function, rng):
    # (x+y)/2 - m_tilde(x,y) equals f(0)(x-y)^2 / (2 m_f(x,y)); the left side
    # is a subtraction with absolute roundoff ~1e-16*(x+y), so the tolerance
    # is taken relative to the pair scale
    f = regular_function
    t = tilde(f)
    x = 10.0 ** rng.uniform(-4, 4, size=4000)
    y = 10.0 ** rng.uniform(-4, 4, size=4000)
    lhs = 0.5 * (x + y) - mean(t, x, y)
    rhs = f.value_at_zero * (x - y) ** 2 / (2.0 * mean(f, x, y))
    assert (np.abs(lhs - rhs) / (0.5 * (x + y))).max() <= 1e-11


def test_mean_ordering_under_dominance(rng):
    # strict dominance of ratios reverses into strict ordering of the
    # transformed means
    sld, wy = make_function("sld"), make_function("wy")
    x = 10.0 ** rng.uniform(-3, 3, size=500)
    y = 10.0 ** rng.uniform(-3, 3, size=500)
    keep = np.abs(np.log(x / y)) > 1e-3
    m_s = mean(tilde(sld), x[keep], y[keep])
    m_w = mean(tilde(wy), x[keep], y[keep])
    assert np.all(m_s < m_w)


def test_dominance_examples():
    rep = dominates(make_function("sld"), make_function("wy"))
    assert rep.strict and rep.classification == "strict"
    assert rep.min_margin > 1e-12
    same = dominates(make_function("sld"), make_function("sld"))
    assert not same.strict and same.weak and same.classification == "weak"
    rev = dominates(make_function("wy"), make_function("sld"))
    assert rev.classification == "neither"
    with pytest.raises(CatalogError, match="regular"):
        dominates(make_function("sld"), make_function("harmonic"))


def test_campaign_default_pairs_are_strict():
    sld = make_function("sld")
    wy = make_function("wy")
    wyd = make_function("wyd", 0.3)
    for f, g in ((sld, wy), (sld, wyd), (wy, wyd)):
        assert dominates(f, g).strict, (f.label, g.label)


def test_operator_monotone_sampled(any_function):
    rep = check_operator_monotone(any_function, dim=3, trials=40, seed=11)
    assert rep.passed, rep.violations
    assert rep.worst_margin > -1e-9


def test_order_check_flags_a_bad_function():
    # square-root profile with a symmetric log-quadratic bump: passes the
    # scalar grid checks but is not matrix monotone
    bump = custom_function("bump", lambda x: np.sqrt(x) * (1.0 + 0.2 * np.log(x) ** 2), 0.0)
    rep = check_operator_monotone(bump, dim=2, trials=300, seed=5)
    assert not rep.passed
    assert rep.worst_margin < -1e-6


def test_custom_function_gate():
    with pytest.raises(CatalogError, match="symmetry"):
        custom_function("skew", lambda x: 0.25 + 0.75 * x, 0.25)
    with pytest.raises(CatalogError, match="f\\(1\\)"):
        custom_function("off", lambda x: 0.5 * x, 0.0)
    ok = custom_function("arith", lambda x: 0.5 * (1.0 + x), 0.5)
    assert ok.regular


def test_catalog_listing():
    fams = catalog_families()
    names = [f["name"] for f in fams]
    assert names == ["sld", "harmonic", "kubo-mori", "log-square", "sqrt-log", "alpha", "wyd", "wy"]
    by_name = {f["name"]: f for f in fams}
    assert by_name["wy"]["transform"] == "sqrt(x)"
    assert by_name["kubo-mori"]["transform"] is None


def test_unknown_name_with_a_parameter_is_reported_as_unknown():
    with pytest.raises(CatalogError, match="unknown function name 'nope'"):
        parse_function_spec("nope:0.3")


def test_catalog_names_and_classes_agree_with_the_listing():
    fams = catalog_families()
    assert CATALOG_NAMES == tuple(fam["name"] for fam in fams)
    for fam in fams:
        if fam["parameter"] is None:
            built = "regular" if make_function(fam["name"]).regular else "nonregular"
            assert fam["class"] == built, fam["name"]


def test_dominance_report_is_shared_and_read_only():
    sld, wy = make_function("sld"), make_function("wy")
    first, again = dominates(sld, wy), dominates(sld, wy)
    for name in ("f_label", "g_label", "strict", "weak", "min_margin", "min_margin_at", "classification"):
        assert getattr(first, name) == getattr(again, name), name
    assert np.array_equal(first.margins, again.margins)
    assert not first.margins.flags.writeable
    with pytest.raises(ValueError):
        first.margins[0] = 0.0
    assert not STANDARD_GRID.flags.writeable
    with pytest.raises(ValueError):
        STANDARD_GRID[0] = 0.0


@pytest.mark.parametrize(
    "x, shown",
    [
        (-0.5, "-0.5"),
        (math.nan, "nan"),
        (np.array([0.5, -1e-300]), "array([ 5.e-001, -1.e-300])"),
        (np.array([[1.0], [math.nan]]), "array([[ 1.],\n       [nan]])"),
        ([2.0, -3.0], "[2.0, -3.0]"),
        ((0.0, math.nan), "(0.0, nan)"),
    ],
)
def test_evaluation_rejects_negative_and_nan_arguments(x, shown):
    for spec in ("sld", "wyd:0.3", "kubo-mori"):
        f = parse_function_spec(spec)
        with pytest.raises(ValueError) as caught:
            f(x)
        assert str(caught.value) == f"{f.label}: arguments must be nonnegative, got {shown}"


@pytest.mark.parametrize(
    "x, y",
    [
        (-0.5, 0.5),
        (0.5, math.nan),
        (np.array([0.5, -1.0]), np.array([0.5, 0.5])),
        (np.array([0.5, 0.25]), np.array([math.nan, 0.5])),
        (0.5, np.array([0.25, -0.25])),
        (np.array([[0.5], [math.nan]]), 0.25),
    ],
)
def test_mean_rejects_negative_and_nan_arguments(x, y):
    for spec in ("sld", "wyd:0.3", "harmonic"):
        with pytest.raises(ValueError) as caught:
            mean(parse_function_spec(spec), x, y)
        assert str(caught.value) == "mean: arguments must be nonnegative"


def test_signed_zero_and_infinity_are_valid_arguments():
    f = make_function("sld")
    assert f(-0.0) == 0.5
    assert f(math.inf) == math.inf
    assert mean(f, -0.0, 0.5) == 0.25
    assert mean(f, np.array([-0.0, 1.0]), np.array([0.0, math.inf])).tolist()[0] == 0.0


def _label_as_formatted_on_read(f) -> str:
    """The label as the property used to format it on every read."""
    if not f.params:
        return f.name
    return f.name + ":" + ",".join(f"{p:g}" for p in f.params)


def test_label_is_the_formatted_name_and_parameters():
    members = [parse_function_spec(s) for s in ALL_SPECS + ["wyd:-0.25", "alpha:0.5", "wyd:.3", "alpha:1e-7"]]
    members.append(make_function("alpha", 0.0))
    members += [tilde(f) for f in members if f.regular]
    members.append(custom_function("mine", lambda x: 0.5 * (1.0 + x), 0.5))
    for f in members:
        assert f.label == _label_as_formatted_on_read(f)
    assert parse_function_spec("wyd:0.3").label == "wyd:0.3"
    assert parse_function_spec("alpha:1e-7").label == "alpha:1e-07"
    assert parse_function_spec("wyd:0.30000000000000004").label == "wyd:0.3"
    assert make_function("alpha", 0.0).label == "alpha:0"
    assert tilde(parse_function_spec("wyd:0.3")).label == "tilde(wyd:0.3)"
    # the stored label takes no part in the repr, and a copy sets its own
    f = parse_function_spec("wyd:0.3")
    assert "label" not in repr(f)
    twin = dataclasses.replace(f)
    assert repr(twin) == repr(f) and twin.label == f.label
    assert dataclasses.replace(f, params=(0.4,)).label == "wyd:0.4"


@pytest.mark.parametrize("f, g", [("kubo-mori", "sld"), ("sld", "kubo-mori"), ("harmonic", "log-square")])
def test_dominance_names_the_first_function_that_is_not_regular(f, g):
    bad = f if not parse_function_spec(f).regular else g
    with pytest.raises(CatalogError, match=rf"^{bad}: dominance is defined for regular functions only$"):
        dominates(parse_function_spec(f), parse_function_spec(g))


def test_a_spec_builds_one_member_whose_equality_is_identity():
    f = parse_function_spec("wyd:0.3")
    assert parse_function_spec("wyd:.3") is f and make_function("wyd", 0.3) is f and tilde(f) is tilde(f)
    # equality is identity, and the hash is object's
    assert hash(f) == object.__hash__(f) and type(f).__eq__ is object.__eq__
    assert dataclasses.replace(f) != f
    # the same name and value at zero with another evaluator is another member
    sld = make_function("sld")
    mine = custom_function("sld", lambda x: 0.5 * (1.0 + x), 0.5)
    assert mine is not sld and mine != sld and mine is not custom_function("sld", lambda x: 0.5 * (1.0 + x), 0.5)


def test_a_memo_filled_under_one_spelling_is_hit_under_the_other():
    from qfidet.inequalities import check_main, prepare_random

    inst = prepare_random(3, 2, 2024, "generic")
    first = check_main(inst, parse_function_spec("wyd:0.3"))
    memo = dict(inst._block.det)
    assert check_main(inst, parse_function_spec("wyd:.3")) == first
    assert inst._block.det == memo  # no key added
    hits = dominates.cache_info().hits
    dominates(parse_function_spec("sld"), parse_function_spec("wyd:0.3"))
    dominates(parse_function_spec("sld"), parse_function_spec("wyd:.3"))
    assert dominates.cache_info().hits >= hits + 1
