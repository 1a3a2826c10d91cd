from __future__ import annotations

import json
import multiprocessing

import pytest

from qfidet.campaign import (
    CHECK_NAMES,
    VIOLATION_CAP,
    CampaignConfig,
    CampaignReport,
    ConfigError,
    emit_report,
    run_campaign,
)
from qfidet.inequalities import EqualityClassification, InequalityReport
from qfidet.states import derive_seed

TINY = CampaignConfig(
    dims=(2, 3),
    num_obs=(1, 2),
    instances_per_cell=4,
    functions=("sld", "kubo-mori"),
    function_pairs=(("sld", "wy"),),
    kinds=("generic", "degenerate"),
    t_grid=(0.0, 0.5, 1.0),
    seed=99,
)


def expected_executions(config: CampaignConfig) -> dict[str, int]:
    cells = len(config.dims) * len(config.num_obs) * len(config.kinds)
    instances = cells * config.instances_per_cell
    nf, np_, nt = len(config.functions), len(config.function_pairs), len(config.t_grid)
    per_instance = {
        "main": nf,
        "conj1": nf,
        "conj2": np_,
        "firey": nt * (nf + np_),
        "robertson": 1,
        "equality": max(np_, 1),
        "contraction": nf,
    }
    return {c: instances * per_instance[c] for c in config.checks}


def test_config_coercion_and_defaults():
    config = CampaignConfig(dims=[2, 3], functions=["sld"], t_grid=[0, 1])
    assert config.dims == (2, 3)
    assert config.t_grid == (0.0, 1.0)
    assert CampaignConfig().checks == CHECK_NAMES
    assert CampaignConfig().instances_per_cell == 1000


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dims": ()}, "dims"),
        ({"dims": (1,)}, "dims"),
        ({"dims": (30,)}, "dims"),
        ({"num_obs": ()}, "num_obs"),
        ({"num_obs": (0,)}, "num_obs"),
        ({"instances_per_cell": -1}, "instances_per_cell"),
        ({"functions": ()}, "functions"),
        ({"functions": ("nope",)}, "functions"),
        ({"function_pairs": (("sld", "nope"),)}, "function_pairs"),
        ({"kinds": ()}, "kinds"),
        ({"kinds": ("weird",)}, "kinds"),
        ({"t_grid": (1.5,)}, "t_grid"),
        ({"tol": 0.0}, "tol"),
        ({"checks": ()}, "checks"),
        ({"checks": ("nope",)}, "checks"),
        ({"t_grid": ()}, "t_grid: the firey check needs"),
        ({"t_grid": (), "checks": ("firey",)}, "t_grid: the firey check needs"),
        ({"function_pairs": ()}, "function_pairs: the conj2 check needs"),
        ({"function_pairs": (), "checks": ("conj2",)}, "function_pairs: the conj2 check needs"),
    ],
)
def test_config_validation(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        CampaignConfig(**kwargs)


def test_empty_ranges_are_fine_for_checks_that_do_not_use_them():
    config = CampaignConfig(t_grid=(), function_pairs=(), checks=("main", "conj1", "equality"))
    assert config.t_grid == () and config.function_pairs == ()


def test_counts_sum_to_executions():
    report = run_campaign(TINY)
    expected = expected_executions(TINY)
    for check, quad in report.counts.items():
        assert quad["pass"] + quad["fail"] + quad["hypothesis_skipped"] == expected[check], check
    assert report.ok and report.total_failures == 0
    assert report.violations == []


def test_rows_cover_every_combination():
    report = run_campaign(TINY)
    combos = {(r["check"], r["n"], r["N"], r["f"], r["g"], r["t"]) for r in report.rows}
    assert len(combos) == len(report.rows)  # no duplicate keys
    nf, np_, nt = len(TINY.functions), len(TINY.function_pairs), len(TINY.t_grid)
    per_cell = nf + nf + np_ + nt * (nf + np_) + 1 + np_ + nf
    assert len(report.rows) == per_cell * len(TINY.dims) * len(TINY.num_obs)


def test_worker_determinism():
    one = run_campaign(TINY, workers=1).to_dict()
    two = run_campaign(TINY, workers=2).to_dict()
    one.pop("runtime")
    two.pop("runtime")
    assert one == two


def test_repeat_run_is_identical():
    first = run_campaign(TINY).to_dict()
    second = run_campaign(TINY).to_dict()
    first.pop("runtime")
    second.pop("runtime")
    assert first == second


def test_empty_campaign():
    config = CampaignConfig(
        dims=(2,),
        num_obs=(1,),
        instances_per_cell=0,
        functions=("sld",),
        function_pairs=(),
        checks=("main", "conj1", "firey", "robertson", "equality", "contraction"),
    )
    report = run_campaign(config)
    assert report.ok
    assert report.rows == []
    assert all(
        quad == {"pass": 0, "fail": 0, "hypothesis_skipped": 0, "clamped": 0}
        for quad in report.counts.values()
    )
    payload = json.loads(emit_report(report, "json"))
    assert payload["version"] == "qfi-report/3"
    assert payload["totals"]["pass"] == 0


def test_json_report_shape():
    report = run_campaign(TINY)
    payload = json.loads(emit_report(report, "json"))
    assert payload["version"] == "qfi-report/3"
    assert payload["config"]["seed"] == 99
    assert set(payload["counts"]) == set(TINY.checks)
    assert payload["totals"]["fail"] == 0
    assert "conj1" in payload["worst"]
    assert payload["worst"]["conj1"]["margin"] >= 0.0


def test_csv_report_shape(tmp_path):
    report = run_campaign(TINY)
    path = tmp_path / "report.csv"
    text = emit_report(report, "csv", path)
    assert path.read_text() == text
    lines = text.strip().splitlines()
    assert lines[0] == "check,n,N,f,g,t,pass,fail,worst_margin,clamps"
    assert len(lines) == 1 + len(report.rows)
    assert any(line.startswith("firey,2,1,sld,,0.5,") for line in lines)


def test_emit_rejects_unknown_format():
    report = run_campaign(CampaignConfig(dims=(2,), num_obs=(1,), instances_per_cell=0))
    with pytest.raises(ConfigError, match="format"):
        emit_report(report, "xml")


def test_violation_entries_reproduce(monkeypatch):
    # force a failure by shrinking the contraction tolerance beyond reach is
    # not possible (the window is additive), so fabricate one by checking the
    # report plumbing instead: a failed report must carry the derived seed
    import qfidet.campaign as campaign_module

    real = campaign_module.check_main

    def broken(inst, f, tol):
        rep = real(inst, f, tol)
        return type(rep)(
            name=rep.name,
            lhs=rep.lhs,
            rhs=rep.rhs,
            margin=-1.0,
            scale=rep.scale,
            tol=rep.tol,
            passed=False,
            hypothesis_ok=True,
            clamps=0,
            components=rep.components,
            digest=rep.digest,
        )

    monkeypatch.setattr(campaign_module, "check_main", broken)
    config = CampaignConfig(
        dims=(2,),
        num_obs=(1,),
        instances_per_cell=2,
        functions=("sld",),
        function_pairs=(),
        kinds=("generic",),
        checks=("main",),
        seed=5,
    )
    report = run_campaign(config)
    assert not report.ok
    assert report.counts["main"]["fail"] == 2
    entry = report.violations[0]
    assert entry["check"] == "main"
    assert entry["seed"] == 5 and entry["kind"] == "generic" and entry["index"] == 0
    assert entry["n"] == 2 and entry["N"] == 1
    assert "derived_seed" in entry


def _classification(dependent: bool, condition_a: bool) -> EqualityClassification:
    return EqualityClassification(
        det_cov=1.0,
        det_qov_f=0.5,
        det_qov_g=0.25,
        condition_a=condition_a,
        condition_b=False,
        condition_c=dependent,
        linearly_dependent=dependent,
        offdiag_dependent=False,
        rank=1,
    )


def test_equality_outcomes_reach_the_report(monkeypatch):
    import qfidet.campaign as campaign_module

    config = CampaignConfig(
        dims=(2,),
        num_obs=(1,),
        instances_per_cell=2,
        functions=("sld",),
        function_pairs=(("sld", "wy"),),
        kinds=("generic",),
        checks=("equality",),
        seed=5,
    )
    # a dependent family without its determinant equality contradicts the
    # decidable direction of the equivalence: a violation
    inconsistent = _classification(dependent=True, condition_a=False)
    assert not inconsistent.consistent
    monkeypatch.setattr(campaign_module, "classify_equality", lambda inst, f, g, tol: inconsistent)
    report = run_campaign(config)
    assert not report.ok
    assert report.counts["equality"] == {"pass": 0, "fail": 2, "hypothesis_skipped": 0, "clamped": 0}
    assert [v["index"] for v in report.violations] == [0, 1]
    for entry in report.violations:
        assert entry["check"] == "equality" and entry["margin"] == -1.0
        assert entry["verdict"] == inconsistent.verdict
        assert entry["derived_seed"] == derive_seed(5, 2, 1, "generic", entry["index"])
        assert (entry["f"], entry["g"], entry["t"]) == ("sld", "wy", None)
    assert report.worst["equality"]["margin"] == -1.0

    # an equality that fired without the dependence behind it is unresolved:
    # counted as a skipped hypothesis, neither pass nor violation
    unresolved = _classification(dependent=False, condition_a=True)
    assert unresolved.consistent and not unresolved.resolved
    monkeypatch.setattr(campaign_module, "classify_equality", lambda inst, f, g, tol: unresolved)
    report = run_campaign(config)
    assert report.ok and report.violations == []
    assert report.counts["equality"] == {"pass": 0, "fail": 0, "hypothesis_skipped": 2, "clamped": 0}
    assert "equality" not in report.worst


@pytest.mark.parametrize(
    "kwargs, first, second",
    [
        ({"functions": ("sld", "sld")}, "'sld'", "'sld'"),
        ({"functions": ("wyd:0.3", "wyd:.3")}, "'wyd:0.3'", "'wyd:.3'"),
        ({"function_pairs": (("wyd:0.3", "sld"), ("wyd:.3", "sld"))}, "('wyd:0.3', 'sld')", "('wyd:.3', 'sld')"),
        ({"dims": (2, 3, 2)}, "2", "2"),
        ({"num_obs": (1, 1)}, "1", "1"),
        ({"kinds": ("generic", "generic")}, "'generic'", "'generic'"),
        ({"t_grid": (0.5, "0.50")}, "0.5", "0.5"),
        ({"checks": ("main", "firey", "main")}, "'main'", "'main'"),
    ],
    ids=["repeated", "respelled", "respelled-pair", "dims", "num_obs", "kinds", "t_grid", "checks"],
)
def test_config_rejects_specs_with_one_label(kwargs, first, second):
    field = next(iter(kwargs))
    with pytest.raises(ConfigError) as info:
        CampaignConfig(**kwargs)
    message = str(info.value)
    assert message.startswith(f"{field}: {first} and {second} ")


TALLY = CampaignConfig(
    dims=(2, 3),
    num_obs=(1, 2),
    instances_per_cell=20,
    functions=("sld", "kubo-mori", "wy"),
    function_pairs=(),
    kinds=("generic", "degenerate"),
    checks=("main",),
    seed=3,
)


def _scripted(index: int, label: str) -> tuple[bool, float, int]:
    """(hypothesis_ok, margin, clamps) of the stand-in main check.

    Margins repeat with period 11 in the index, so every row sees ties, and
    the minimum first falls on index 6, not on the first instance.  Every wy
    outcome and every index = 2 (mod 7) is a skipped hypothesis, whose margin
    and clamps must not reach the report.
    """
    if label == "wy" or index % 7 == 2:
        return False, -9.0, 1
    return True, ((5 * index + 3) % 11 - 6) * 0.25, index % 3


@pytest.mark.parametrize("workers", [1, 2])
def test_tally_of_scripted_outcomes(monkeypatch, workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the stand-ins only when forked")
    import qfidet.campaign as campaign_module

    index_of = {
        derive_seed(TALLY.seed, n, n_obs, kind, index): index
        for n in TALLY.dims
        for n_obs in TALLY.num_obs
        for kind in TALLY.kinds
        for index in range(TALLY.instances_per_cell)
    }

    def scripted_main(index, f, tol):
        ok, margin, clamps = _scripted(index, f.label)
        return InequalityReport(
            name="main",
            lhs=margin,
            rhs=0.0,
            margin=margin,
            scale=1.0,
            tol=tol,
            passed=margin >= 0.0,
            hypothesis_ok=ok,
            clamps=clamps,
            components={},
            digest="",
        )

    monkeypatch.setattr(campaign_module, "prepare_random", lambda n, n_obs, seed, kind: index_of[seed])
    monkeypatch.setattr(campaign_module, "check_main", scripted_main)
    report = run_campaign(TALLY, workers=workers)

    # violations: the first VIOLATION_CAP failures in cell, index and function order
    failures = [
        (n, n_obs, kind, index, label)
        for n in TALLY.dims
        for n_obs in TALLY.num_obs
        for kind in TALLY.kinds
        for index in range(TALLY.instances_per_cell)
        for label in TALLY.functions
        for ok, margin, _ in [_scripted(index, label)]
        if ok and margin < 0.0
    ]
    assert len(failures) > VIOLATION_CAP
    assert [(v["n"], v["N"], v["kind"], v["index"], v["f"]) for v in report.violations] == failures[:VIOLATION_CAP]
    assert all(v["margin"] == _scripted(v["index"], v["f"])[1] for v in report.violations)

    # rows: each outcome an instance held, merged over kinds in cell order
    assert len(report.rows) == len(TALLY.dims) * len(TALLY.num_obs) * len(TALLY.functions)
    for row in report.rows:
        held = [
            (margin, clamps, f"kind={kind},index={index}")
            for kind in TALLY.kinds
            for index in range(TALLY.instances_per_cell)
            for ok, margin, clamps in [_scripted(index, row["f"])]
            if ok
        ]
        margins = [margin for margin, _, _ in held]
        assert row["pass"] == sum(margin >= 0.0 for margin in margins)
        assert row["fail"] == sum(margin < 0.0 for margin in margins)
        assert row["clamps"] == sum(clamps for _, clamps, _ in held)
        if held:
            worst = min(margins)
            assert row["worst_margin"] == worst
            assert row["worst_instance"] == held[margins.index(worst)][2]  # the earliest one
        else:  # wy: skipped outcomes leave zero counts and no worst instance
            assert (row["pass"], row["fail"], row["clamps"]) == (0, 0, 0)
            assert row["worst_margin"] is None and row["worst_instance"] == ""
    assert report.rows[0]["worst_instance"] == "kind=generic,index=6"

    skipped = sum(
        not _scripted(index, label)[0]
        for index in range(TALLY.instances_per_cell)
        for label in TALLY.functions
    ) * len(TALLY.dims) * len(TALLY.num_obs) * len(TALLY.kinds)
    assert report.counts == {
        "main": {
            "pass": sum(row["pass"] for row in report.rows),
            "fail": sum(row["fail"] for row in report.rows),
            "hypothesis_skipped": skipped,
            "clamped": sum(row["clamps"] for row in report.rows),
        }
    }
    assert report.worst["main"]["instance"] == "kind=generic,index=6"
    assert report.worst["main"]["margin"] == -1.5
    counts = [row[k] for row in report.rows for k in ("pass", "fail", "clamps")]
    counts += list(report.counts["main"].values()) + list(report.totals().values())
    assert all(type(value) is int for value in counts)  # never a bool
