from __future__ import annotations

import json
import math
import multiprocessing
import os
import signal
import time
from itertools import product

import pytest

import dataclasses

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qfidet.campaign import (
    BLOCK_INSTANCES,
    CHECK_NAMES,
    CHECKS,
    DEFAULT_T_GRID,
    VIOLATION_CAP,
    CampaignConfig,
    CampaignReport,
    CheckPlan,
    ConfigError,
    emit_report,
    run_campaign,
)
from qfidet.inequalities import (
    EqualityClassification,
    InequalityReport,
    check_conj1,
    check_conj2,
    check_firey,
    check_main,
    check_metric_contraction,
    check_robertson,
    classify_equality,
    prepare_random,
)
from qfidet.monotone import parse_function_spec
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
        ({"tol": float("inf")}, "tol"),
        ({"tol": float("nan")}, "tol"),
    ],
)
def test_config_validation(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        CampaignConfig(**kwargs)


@pytest.mark.parametrize("workers", [0, -5])
def test_run_campaign_rejects_a_worker_count_below_one(workers):
    with pytest.raises(ConfigError, match=f"workers: must be at least 1, got {workers}"):
        run_campaign(dataclasses.replace(TINY, instances_per_cell=1), workers=workers)


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


def test_pairs_without_dominance_are_skipped_not_aborted():
    # neither wyd:0.7 nor kubo-mori dominates sld, so det(Qov_f - Qov_g) is legitimately negative
    config = CampaignConfig(
        dims=(3,), num_obs=(1, 3), instances_per_cell=5, functions=("sld",),
        function_pairs=(("wyd:0.7", "sld"), ("kubo-mori", "sld")),
    )
    report = run_campaign(config)
    expected = expected_executions(config)
    assert report.ok
    assert report.counts["conj2"] == {"pass": 0, "fail": 0, "hypothesis_skipped": expected["conj2"], "clamped": 0}
    pair_firey = expected["conj2"] * len(config.t_grid)
    assert report.counts["firey"]["hypothesis_skipped"] == pair_firey
    assert report.counts["firey"]["pass"] == expected["firey"] - pair_firey
    assert all(row["pass"] + row["fail"] == 0 for row in report.rows if row["g"] is not None and row["check"] != "equality")


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
    assert one == two


def test_the_pool_has_at_most_one_process_per_block_and_cpu(monkeypatch):
    """The campaign's own process and the ones it starts number min(workers, blocks, CPUs).  A stand-in
    for the process start counts the children and runs each in a thread of this process, starting no
    process; the children share the block counter with this process as started ones would."""
    import multiprocessing.connection
    import threading

    import qfidet.campaign as campaign_module

    started = []

    class ThreadChild(threading.Thread):
        exitcode = 0

        def __init__(self, target, args):
            # its own copy of the reply pipe's sending end, which the campaign closes once the child starts
            *rest, sender = args
            copy = multiprocessing.connection.Connection(os.dup(sender.fileno()), readable=False)
            super().__init__(target=target, args=(*rest, copy))
            started.append(self)

        def terminate(self):
            pass

    monkeypatch.setattr(multiprocessing, "Process", ThreadChild)
    config = dataclasses.replace(TINY, instances_per_cell=1)
    expected = run_campaign(config).to_dict()
    children = []
    # (CPUs, workers, BLOCK_INSTANCES): at 16, one block per (n, N), 4 in all; at 1, one per instance, 8 in all
    for cpus, workers, block in [(64, 64, 16), (64, 64, 1), (4, 64, 1), (4, 2, 1), (1, 64, 1)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(campaign_module, "BLOCK_INSTANCES", block)
        assert run_campaign(config, workers=workers).to_dict() == expected
        children.append(len(started))
        started.clear()
    # min(workers, blocks, CPUs) - 1 beside the campaign's own process: bounded by the blocks, the
    # blocks, the CPUs and the workers; a bound of 1 runs inline and starts none
    assert children == [3, 7, 3, 1, 0]


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="started processes see the stand-ins only when forked"
)
# one instance per block, 8 blocks: block k is the k-th instance in (n, N, index) order
ONE_KIND = dataclasses.replace(TINY, instances_per_cell=2, kinds=("generic",))


def _blocks_of(monkeypatch, config, act):
    """Replace ``prepare_random`` with one that calls ``act(k)`` with the block index first."""
    import qfidet.campaign as campaign_module

    monkeypatch.setattr(campaign_module, "BLOCK_INSTANCES", 1)
    members = product(config.dims, config.num_obs, config.kinds, range(config.instances_per_cell))
    order = {derive_seed(config.seed, *member): k for k, member in enumerate(members)}
    real = campaign_module.prepare_random

    def prepare(n, n_obs, seed, kind):
        act(order[seed])
        return real(n, n_obs, seed, kind)

    monkeypatch.setattr(campaign_module, "prepare_random", prepare)


def _wait_for_children(k):
    """In its block 0, the campaign's own process waits until every process it started has ended,
    so that those draw the next blocks."""
    deadline = time.monotonic() + 30.0
    while k == 0 and multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


@fork_only
@pytest.mark.parametrize("workers", [1, 2])
def test_the_lowest_failing_block_raises_at_any_worker_count(monkeypatch, workers):
    def act(k):
        if k == 3:
            time.sleep(0.2)  # so that block 6 may fail first on another process
            raise ArithmeticError("block 3: det K = -1 is below the clamp window")
        if k == 6:
            raise np.linalg.LinAlgError("block 6: eigenvalues did not converge")

    _blocks_of(monkeypatch, ONE_KIND, act)
    with pytest.raises(ArithmeticError) as caught:
        run_campaign(ONE_KIND, workers=workers)
    assert type(caught.value) is ArithmeticError
    assert str(caught.value) == "block 3: det K = -1 is below the clamp window"
    assert multiprocessing.active_children() == []


@fork_only
@pytest.mark.parametrize("error", [ArithmeticError, OverflowError, np.linalg.LinAlgError])
def test_verify_exits_3_for_a_numerical_failure_in_any_process(monkeypatch, capsys, error):
    from qfidet.cli import main

    parent = os.getpid()

    def act(k):
        if os.getpid() != parent:
            raise error(f"{error.__name__} in a started process")
        _wait_for_children(k)

    _blocks_of(monkeypatch, ONE_KIND, act)
    args = ["verify", "--dims", "2,3", "--num-obs", "1,2", "--instances", "2", "--kinds", "generic", "--seed", "99"]
    args += ["--functions", "sld,kubo-mori", "--pairs", "sld/wy", "--t-grid", "0,0.5,1", "--workers", "2"]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {error.__name__} in a started process\n"
    assert multiprocessing.active_children() == []


@fork_only
def test_every_block_is_taken_once_when_processes_contend_for_the_counter(monkeypatch):
    """Four processes draw 2000 blocks that take no time, so that their draws contend for the counter:
    a lost update would run a block twice."""
    import qfidet.campaign as campaign_module

    drawn = multiprocessing.Value("i", 0)

    def take(config, plan, layout, n, n_obs, positions):
        with drawn.get_lock():
            drawn.value += 1
        return [[len(positions), 0, 0, 0, None, ""] for _ in layout], []

    config = dataclasses.replace(ONE_KIND, instances_per_cell=500)
    monkeypatch.setattr(campaign_module, "BLOCK_INSTANCES", 1)
    monkeypatch.setattr(campaign_module, "_run_block", take)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for _ in range(3):
        drawn.value = 0
        report = run_campaign(config, workers=4)
        assert drawn.value == 2000
        assert report.counts["main"]["pass"] == 2000 * len(config.functions)
        assert multiprocessing.active_children() == []


@fork_only
def test_a_child_that_dies_in_a_block_raises_instead_of_hanging(monkeypatch):
    parent = os.getpid()

    def act(k):
        if os.getpid() != parent:
            os._exit(1)
        _wait_for_children(k)

    _blocks_of(monkeypatch, ONE_KIND, act)
    with pytest.raises(RuntimeError, match="exited with code 1 without a reply"):
        run_campaign(ONE_KIND, workers=2)
    assert multiprocessing.active_children() == []


@fork_only
def test_a_failed_block_stops_every_process_from_starting_another(monkeypatch):
    drawn = multiprocessing.Value("i", 0)

    def act(k):
        with drawn.get_lock():
            drawn.value += 1
        if k == 0:
            raise ArithmeticError("block 0")
        time.sleep(0.05)

    _blocks_of(monkeypatch, ONE_KIND, act)
    with pytest.raises(ArithmeticError, match="block 0"):
        run_campaign(ONE_KIND, workers=2)
    # block 0 and at most the one block the other process had drawn before it failed
    assert drawn.value <= 2
    assert multiprocessing.active_children() == []


class _Interrupt(BaseException):
    pass


@fork_only
def test_an_interrupt_in_the_campaign_process_ends_its_children(monkeypatch):
    parent = os.getpid()
    children = []

    class Recorded(multiprocessing.Process):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    def act(k):
        if os.getpid() == parent:
            raise _Interrupt
        time.sleep(3.0)  # a child is still in its block when the interrupt comes, unless left to end it
        os._exit(0)

    _blocks_of(monkeypatch, ONE_KIND, act)
    monkeypatch.setattr(multiprocessing, "Process", Recorded)
    with pytest.raises(_Interrupt):
        run_campaign(ONE_KIND, workers=2)
    assert [child.exitcode for child in children] == [-signal.SIGTERM]
    assert multiprocessing.active_children() == []


def test_repeat_run_is_identical():
    first = run_campaign(TINY).to_dict()
    second = run_campaign(TINY).to_dict()
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
    assert payload["version"] == "qfi-report/5"
    assert payload["totals"]["pass"] == 0


def test_json_report_shape():
    report = run_campaign(TINY)
    payload = json.loads(emit_report(report, "json"))
    assert payload["version"] == "qfi-report/5"
    assert "runtime" not in payload
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


def _stdlib_json(report: CampaignReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "config",
    [
        CampaignConfig(instances_per_cell=4, seed=2026),
        CampaignConfig(dims=(4, 5), num_obs=(4, 5), instances_per_cell=3, seed=11),
        CampaignConfig(
            dims=(6, 8), num_obs=(4, 6), instances_per_cell=2, functions=("sld", "wy"), function_pairs=(),
            checks=("main", "conj1", "robertson", "equality", "contraction"),
        ),
        CampaignConfig(
            dims=(2,), num_obs=(2,), instances_per_cell=3, seed=7, tol=1e-30, checks=("main", "conj1", "firey", "robertson")
        ),
    ],
    ids=["default", "n4-5,N4-5", "n6-8,N4-6", "violations"],
)
def test_json_writer_matches_the_stdlib_indentation_byte_for_byte(config, tmp_path):
    report = run_campaign(config)
    if config.tol == 1e-30:
        assert len(report.violations) == VIOLATION_CAP  # the violations list at its cap
    want = _stdlib_json(report)
    assert emit_report(report, "json") == want
    path = tmp_path / "report.json"
    assert emit_report(report, "json", path) == want
    assert path.read_bytes() == want.encode()


# labels that look like the JSON around them: separators, braces, escapes, a row boundary
_TRICKY = st.lists(
    st.sampled_from(["sld", ",", '"', "\\", "{", "}", "},", "}, {", "},\n      {", "\n", ": ", "é", "∞", "ü"]), max_size=5
).map("".join)
_LABEL = st.one_of(st.none(), _TRICKY, st.text(max_size=6))
_MARGIN = st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([math.inf, -math.inf, math.nan]))
_ROW = st.fixed_dictionaries(
    {
        "check": _TRICKY,
        "n": st.integers(2, 16),
        "N": st.integers(1, 8),
        "f": _LABEL,
        "g": _LABEL,
        "t": st.one_of(st.none(), st.floats(0.0, 1.0)),
        "pass": st.integers(0, 10**6),
        "fail": st.integers(0, 10**6),
        "worst_margin": _MARGIN,
        "clamps": st.integers(0, 9),
        "worst_instance": _TRICKY,
    }
)
_VIOLATION = st.fixed_dictionaries(
    {
        "check": _TRICKY,
        "n": st.integers(2, 16),
        "N": st.integers(1, 8),
        "kind": _TRICKY,
        "index": st.integers(0, 999),
        "seed": st.integers(0, 2**63),
        "derived_seed": st.integers(0, 2**64 - 1),
        "f": _LABEL,
        "g": _LABEL,
        "t": st.one_of(st.none(), st.floats(0.0, 1.0)),
        "margin": _MARGIN,
    },
    optional={"verdict": _TRICKY},
)
_WORST = st.fixed_dictionaries(
    {"margin": _MARGIN, "n": st.integers(2, 16), "N": st.integers(1, 8), "f": _LABEL, "g": _LABEL, "t": _MARGIN, "instance": _TRICKY}
)
_QUAD = st.fixed_dictionaries({name: st.integers(0, 10**6) for name in ("pass", "fail", "hypothesis_skipped", "clamped")})


@given(
    counts=st.dictionaries(_TRICKY, _QUAD, max_size=3),
    rows=st.lists(_ROW, max_size=4),
    worst=st.dictionaries(_TRICKY, _WORST, max_size=3),
    violations=st.lists(_VIOLATION, max_size=3),
    version=_TRICKY,
)
def test_json_writer_matches_the_stdlib_on_generated_reports(counts, rows, worst, violations, version):
    report = CampaignReport(TINY, counts, rows, worst, violations, 0.0, version)
    assert emit_report(report, "json") == _stdlib_json(report)


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


# 40 instances per (n, N): a block boundary inside a kind (7), blocks across the kind boundary at
# index 20 (7, 16), and a whole (n, N) in one block (64); the default size keeps its plain ids
@pytest.mark.parametrize(
    "workers,block",
    [(w, b) for b in (16, 7, 64) for w in (1, 2)],
    ids=[str(w) if b == 16 else f"{w}-block{b}" for b in (16, 7, 64) for w in (1, 2)],
)
def test_tally_of_scripted_outcomes(monkeypatch, workers, block):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the stand-ins only when forked")
    import qfidet.campaign as campaign_module

    monkeypatch.setattr(campaign_module, "BLOCK_INSTANCES", block)

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
    # the stand-in instances hold no arrays for a block to evaluate
    monkeypatch.setattr(campaign_module.CheckPlan, "evaluate", lambda *args: None)
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


def _facts(rep) -> tuple:
    """What a report says about an outcome, with every float as its bits."""
    fields = dataclasses.asdict(rep) if isinstance(rep, EqualityClassification) else dict(rep.components, lhs=rep.lhs, rhs=rep.rhs)
    fields = {k: np.float64(v).tobytes() if isinstance(v, float) else v for k, v in fields.items()}
    return np.float64(rep.margin).tobytes(), rep.clamps, rep.hypothesis_ok, rep.passed, fields


def _fresh_outcome(check, n, n_obs, kind, derived, fl, gl, t, tol):
    """The public check on a newly drawn instance, whose memos are empty."""
    return _outcome_alone(prepare_random(n, n_obs, derived, kind), check, fl, gl, t, tol)


def _outcome_alone(inst, check, fl, gl, t, tol):
    """The public check on ``inst`` outside any campaign block, at the partition it drew."""
    f = None if fl is None else parse_function_spec(fl)
    g = None if gl is None else parse_function_spec(gl)
    if check == "contraction":
        return check_metric_contraction(inst.state, inst.observables[0], f, inst.partition, tol)
    calls = {
        "main": lambda: check_main(inst, f, tol),
        "conj1": lambda: check_conj1(inst, f, tol),
        "conj2": lambda: check_conj2(inst, f, g, tol),
        "firey": lambda: check_firey(inst, f, t, g=g, tol=tol),
        "robertson": lambda: check_robertson(inst, tol),
        "equality": lambda: classify_equality(inst, f, g, tol),
    }
    return calls[check]()


def _plan(config) -> CheckPlan:
    """The plan a campaign's cells run for ``config``."""
    return CheckPlan(
        functions=tuple(parse_function_spec(s) for s in config.functions),
        pairs=tuple((parse_function_spec(a), parse_function_spec(b)) for a, b in config.function_pairs),
        tol=config.tol,
        t_grid=config.t_grid,
    )


def _labelled_layout(config) -> list[tuple]:
    return [(name, f and f.label, g and g.label, t) for name, f, g, t in _plan(config).layout(config.checks)]


def test_the_layout_lists_each_outcome_of_an_instance_once_in_registry_order():
    functions = ["sld", "wy", "wyd:0.3", "kubo-mori"]
    pairs = [("sld", "wy"), ("sld", "wyd:0.3"), ("wy", "wyd:0.3")]
    unit = [(f, None) for f in functions]
    want = [("main", f, None, None) for f in functions]
    want += [("conj1", f, None, None) for f in functions]
    want += [("conj2", f, g, None) for f, g in pairs]
    want += [("firey", f, g, t) for t in DEFAULT_T_GRID for f, g in unit + pairs]
    want += [("robertson", None, None, None)]
    want += [("equality", f, g, None) for f, g in pairs]
    want += [("contraction", f, None, None) for f in functions]
    assert _labelled_layout(CampaignConfig()) == want
    # without pairs, equality ranges over the first function alone
    bare = CampaignConfig(functions=("wy", "sld"), function_pairs=(), checks=("equality", "conj1"))
    assert _labelled_layout(bare) == [
        ("conj1", "wy", None, None),
        ("conj1", "sld", None, None),
        ("equality", "wy", None, None),
    ]
    # checks listed out of registry order still run in it, and t keeps the grid's order
    shuffled = CampaignConfig(function_pairs=(("sld", "wy"),), t_grid=(0.5, 0.0), checks=("contraction", "firey", "main"))
    firey = [("firey", f, g, t) for t in (0.5, 0.0) for f, g in [*unit, ("sld", "wy")]]
    assert _labelled_layout(shuffled) == want[:4] + firey + want[-4:]
    for config in (CampaignConfig(), bare, shuffled):
        # one entry per outcome of an instance, and each a distinct row of the report
        one = dataclasses.replace(config, dims=(3,), num_obs=(2,), kinds=("generic",), instances_per_cell=1)
        layout = _labelled_layout(one)
        assert len(layout) == sum(expected_executions(one).values())
        rows = [(row["check"], row["f"], row["g"], row["t"]) for row in run_campaign(one).rows]
        assert sorted(rows, key=str) == sorted(layout, key=str)


def _compare_with_fresh_outcomes(config) -> int:
    """Run every cell in blocks of ``instances_per_cell`` as a campaign does and compare each
    outcome with the public check on a fresh instance; return the number compared."""
    plan = _plan(config)
    compared = 0
    for n in config.dims:
        for n_obs in config.num_obs:
            for kind in config.kinds:
                seeds = [derive_seed(config.seed, n, n_obs, kind, index) for index in range(config.instances_per_cell)]
                block = [prepare_random(n, n_obs, derived, kind) for derived in seeds]
                plan.evaluate(block, set(CHECKS))
                for inst, derived in zip(block, seeds):
                    for name, f, g, t, check, args in plan.bind(plan.layout(CHECKS)):
                        rep = check(inst, *args)
                        fl, gl = f and f.label, g and g.label
                        want = _fresh_outcome(name, n, n_obs, kind, derived, fl, gl, t, config.tol)
                        assert _facts(rep) == _facts(want), (n, n_obs, kind, name, fl, gl, t)
                        compared += 1
    return compared


def test_a_drawn_instance_used_alone_gives_its_campaign_block_outcomes():
    # the first block of (3, 2): 16 instances that span the three kinds
    config = CampaignConfig(dims=(3,), num_obs=(2,), instances_per_cell=6)
    plan, names = _plan(config), set(config.checks)
    members = [(kind, index) for kind in config.kinds for index in range(config.instances_per_cell)][:BLOCK_INSTANCES]
    seeds = [derive_seed(config.seed, 3, 2, kind, index) for kind, index in members]
    block = [prepare_random(3, 2, seed, kind) for seed, (kind, _) in zip(seeds, members)]
    plan.evaluate(block, names)
    for inst, seed, (kind, _) in zip(block, seeds, members):
        used, computed = prepare_random(3, 2, seed, kind), prepare_random(3, 2, seed, kind)
        assert "_block" not in vars(used)  # drawn only, until its first use
        plan.evaluate([computed], names)  # as ``qfidet compute`` evaluates its instance
        for name, f, g, t, check, args in plan.bind(plan.layout(names)):
            want = _facts(check(inst, *args))
            assert _facts(_outcome_alone(used, name, f and f.label, g and g.label, t, config.tol)) == want
            assert _facts(check(computed, *args)) == want
        assert used._block.size == computed._block.size == 1 and inst._block.size == BLOCK_INSTANCES


def test_each_worst_row_replays_from_its_derived_seed_alone():
    # a report row names (n, N, kind, index); the derived seed alone redraws the instance,
    # its contraction partition included
    config = CampaignConfig(instances_per_cell=6)
    report = run_campaign(config)
    assert set(report.worst) == set(config.checks)
    for check, worst in report.worst.items():
        kind, index = (part.split("=")[1] for part in worst["instance"].split(","))
        derived = derive_seed(config.seed, worst["n"], worst["N"], kind, int(index))
        inst = prepare_random(worst["n"], worst["N"], derived, kind)
        rep = _outcome_alone(inst, check, worst["f"], worst["g"], worst["t"], config.tol)
        assert np.float64(rep.margin).tobytes() == np.float64(worst["margin"]).tobytes(), check


def test_shared_memos_change_no_outcome():
    # blocks of two instances in every cell of the default grid (cofactor determinants, N <= 3)
    assert _compare_with_fresh_outcomes(CampaignConfig(instances_per_cell=2)) == 27 * 2 * 96


def test_shared_memos_change_no_outcome_at_n4_5_and_N4_5():
    # the LU branch of the pencil determinants and of the Firey stack, with conj2 and firey
    config = CampaignConfig(dims=(4, 5), num_obs=(4, 5), instances_per_cell=2, seed=11)
    assert _compare_with_fresh_outcomes(config) == 12 * 2 * 96


@pytest.mark.parametrize(
    "config",
    [
        CampaignConfig(instances_per_cell=3),
        CampaignConfig(dims=(4, 5), num_obs=(4, 5), instances_per_cell=3, seed=11),
        # given out of order: the rows are sorted whatever the config's order
        CampaignConfig(dims=(4, 2), num_obs=(3, 1), instances_per_cell=3, functions=("wy", "sld")),
    ],
    ids=["default-grid", "n4-5,N4-5", "unsorted"],
)
def test_report_bytes_do_not_depend_on_the_block_size(monkeypatch, config):
    import qfidet.campaign as campaign_module

    drawn, sizes, mixed = [], [], set()

    def recorded_prepare(n, n_obs, seed, kind):
        drawn.append(kind)
        return prepare_random(n, n_obs, seed, kind)

    class Recorded(campaign_module.InstanceBlock):
        def __init__(self, instances):
            sizes.append(len(instances))
            if len(set(drawn[-len(instances):])) > 1:
                mixed.add(size)
            super().__init__(instances)

    monkeypatch.setattr(campaign_module, "prepare_random", recorded_prepare)
    monkeypatch.setattr(campaign_module, "InstanceBlock", Recorded)
    reports = {}
    # 3 instances per cell and 3 kinds: 9 consecutive instances per (n, N), split into blocks
    spans = {1: [1] * 9, 2: [2, 2, 2, 2, 1], 3: [3, 3, 3], 7: [7, 2], 16: [9]}
    for size, span in spans.items():
        monkeypatch.setattr(campaign_module, "BLOCK_INSTANCES", size)
        sizes.clear()
        reports[size] = emit_report(run_campaign(config))
        assert sizes == span * len(config.dims) * len(config.num_obs)
    assert mixed == {2, 7, 16}  # a block holds two kinds unless the size divides the kind boundaries
    assert reports[1] == reports[2] == reports[3] == reports[7] == reports[16]
    # one row per (check, n, N) and outcome of an instance, in the order of an independent sort
    rows = json.loads(reports[1])["rows"]
    want = sorted(rows, key=lambda r: (r["check"], r["n"], r["N"], r["f"] or "", r["g"] or "", -1 if r["t"] is None else r["t"]))
    assert rows == want
    plan = CheckPlan(
        tuple(map(parse_function_spec, config.functions)),
        tuple(tuple(map(parse_function_spec, pair)) for pair in config.function_pairs),
        config.tol,
        config.t_grid,
    )
    assert len(rows) == len(config.dims) * len(config.num_obs) * len(plan.layout(set(config.checks)))
