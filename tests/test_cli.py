from __future__ import annotations

import inspect
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qfidet import selftest
from qfidet.cli import entry, main
from qfidet.io import save_instance
from qfidet.states import density, random_observable

from conftest import FIXTURES

TINY_ARGS = [
    "verify",
    "--dims", "2",
    "--num-obs", "1,2",
    "--instances", "2",
    "--functions", "sld,wy",
    "--pairs", "sld/wy",
    "--t-grid", "0,0.5,1",
    "--kinds", "generic",
    "--seed", "7",
]


def test_verify_stdout_json(capsys):
    code = main(TINY_ARGS)
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == "qfi-report/7"
    assert payload["totals"]["fail"] == 0


def test_verify_out_file_and_workers(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(TINY_ARGS + ["--out", str(a)]) == 0
    assert main(TINY_ARGS + ["--workers", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_tol_reaches_the_config(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["verify", "--dims", "2", "--num-obs", "1", "--instances", "1", "--checks", "robertson",
                 "--tol", "1e-6", "--out", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["config"]["tol"] == 1e-6


def test_verify_csv(tmp_path, capsys):
    path = tmp_path / "r.csv"
    assert main(TINY_ARGS + ["--format", "csv", "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "check,n,N,f,g,t,pass,fail,worst_margin,clamps"
    assert len(lines) > 1


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--dims", "1"],
        ["verify", "--checks", "nope"],
        ["verify", "--tol", "0"],
        ["verify", "--instances", "-3"],
        ["verify", "--t-grid", "0,2"],
        ["verify", "--pairs", "sld"],
        ["verify", "--functions", "wyd:7"],
        ["verify", "--kinds", "weird"],
        ["verify", "--t-grid", "", "--checks", "firey"],
        ["verify", "--pairs", "", "--checks", "conj2"],
        [],
        ["verify", "--bogus"],
        ["verify", "--workers", "0"],
        ["verify", "--workers", "-3"],
    ],
)
def test_verify_config_errors_exit_2(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_refuses_a_pair_of_a_function_with_itself(capsys):
    # every outcome of such a pair is a skipped hypothesis, so this run used to pass with nothing checked
    args = ["verify", "--dims", "3", "--num-obs", "2", "--instances", "1", "--functions", "sld", "--pairs", "sld/sld", "--checks", "conj2"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: function_pairs: ('sld', 'sld') pairs 'sld' with itself\n"


def test_verify_refuses_a_pair_of_one_function_under_two_labels(capsys):
    # wyd at 1/2 is wy: the run used to skip all 3 of its outcomes and exit 0
    args = ["verify", "--dims", "3", "--num-obs", "2", "--instances", "1", "--functions", "sld", "--pairs", "wyd:0.5/wy", "--checks", "conj2"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: function_pairs: ('wyd:0.5', 'wy') pairs 'wyd:0.5' with itself\n"
    assert main(["verify", "--instances", "1", "--functions", "wy,wyd:0.5"]) == 2
    assert capsys.readouterr().err == "error: functions: 'wy' and 'wyd:0.5' both read as 'wy'\n"


@pytest.mark.parametrize("pairs", ["sld", "sld/wy/x"])
def test_verify_pairs_that_are_not_two_specs_read_as_the_config_field(pairs, capsys):
    # --pairs only splits each chunk on "/"; the config judges the shape and names its own field
    assert main(["verify", "--dims", "3", "--num-obs", "2", "--instances", "1", "--pairs", pairs]) == 2
    captured = capsys.readouterr()
    expected = tuple(pairs.split("/"))
    assert captured.err == f"error: function_pairs: expected a pair of function specs, got {expected!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_worker_count_below_one_is_refused_by_the_campaign(workers, capsys):
    # --workers converts the text only; run_campaign judges the count, before any instance is drawn
    assert main(["verify", "--instances", "1", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: workers: must be at least 1, got {workers}\n" and captured.out == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--tol", "abc"], "argument --tol: not a number: 'abc'"),
        (["compute", str(FIXTURES / "qubit_tight.json"), "--tol", "1e-9x"], "argument --tol: not a number: '1e-9x'"),
        (["selftest", "--tol", ""], "argument --tol: not a number: ''"),
        (["verify", "--workers", "1.5"], "argument --workers: not an integer: '1.5'"),
        (["verify", "--dims", "2,x"], "argument --dims: not an integer: 'x'"),
        (["verify", "--num-obs", "1,2.5"], "argument --num-obs: not an integer: '2.5'"),
        (["verify", "--t-grid", "0.5,x"], "argument --t-grid: not a number: 'x'"),
        (["verify", "--instances", "abc"], "argument --instances: not an integer: 'abc'"),
        (["verify", "--seed", "1.5"], "argument --seed: not an integer: '1.5'"),
        (["verify", "--workers", "x"], "argument --workers: not an integer: 'x'"),
    ],
)
def test_numeric_option_errors_name_the_option_and_the_text(args, message, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_compute_rejects_observables_that_are_not_a_list(tmp_path, capsys):
    path = tmp_path / "five.json"
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    payload["observables"] = 5
    path.write_text(json.dumps(payload))
    assert main(["compute", str(path)]) == 2
    assert capsys.readouterr().err == "error: observables: expected a non-empty list of matrices, got 5\n"


@pytest.mark.parametrize("tol", ["inf", "-1", "nan"])
@pytest.mark.parametrize(
    "command",
    [["verify", "--instances", "0"], ["compute", str(FIXTURES / "qubit_tight.json")], ["selftest"]],
    ids=["verify", "compute", "selftest"],
)
def test_tol_must_be_finite_and_positive(command, tol, capsys):
    assert main(command + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: argument --tol") and captured.out == ""


def test_compute_fixture(capsys):
    code = main(["compute", str(FIXTURES / "qubit_tight.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "conj1" in out and "margin" in out and "pass" in out
    assert "verdict=none" in out
    assert "\n  firey: " in out and "\n  contraction: " in out


def test_compute_skips_a_pair_without_dominance(tmp_path, capsys):
    # N = 1: det(Qov_f - Qov_g) is Qov_wyd:0.7 - Qov_sld itself, a negative number
    d = density(np.diag([0.7, 0.2, 0.1]).astype(complex))
    path = tmp_path / "pair.json"
    save_instance(path, d, [random_observable(3, 5)], functions=("sld",), pairs=(("wyd:0.7", "sld"),))
    assert main(["compute", str(path)]) == 0
    out = capsys.readouterr().out
    pair = out[out.index("pair (wyd:0.7, sld):") :]
    assert "\n  conj2: " in pair and "\n  firey: " in pair
    assert all(line.endswith("[skipped (dominance hypothesis not met)]") for line in pair.splitlines() if "margin=" in line)


def test_compute_missing_file(capsys):
    assert main(["compute", "/nonexistent/inst.json"]) == 2


def test_unreadable_or_unwritable_path_exits_2(tmp_path, capsys):
    # a directory where a file is expected: read by compute, written by verify
    expected = f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert main(["compute", str(tmp_path)]) == 2
    assert capsys.readouterr().err == expected
    args = ["verify", "--instances", "1", "--dims", "2", "--num-obs", "1", "--out", str(tmp_path)]
    assert main(args) == 2
    assert capsys.readouterr().err == expected


def test_compute_invalid_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    payload["state"][0][0][0] = 0.5  # trace now 0.75
    path.write_text(json.dumps(payload))
    assert main(["compute", str(path)]) == 2
    assert "state" in capsys.readouterr().err
    refused = {  # a bare string, and nothing to evaluate
        "sld": "error: functions: expected a sequence, got 'sld'\n",
        (): "error: functions: need at least one function spec\n",
    }
    for functions, message in refused.items():
        payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
        payload["functions"] = functions
        path.write_text(json.dumps(payload))
        assert main(["compute", str(path)]) == 2
        assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "functions, pairs, message",
    [
        (["sld", "wyd:0.5", "wy"], [["wy", "wyd:0.5"], ["sld", "sld"]], "functions: 'wyd:0.5' and 'wy' both read as 'wyd:0.5'"),
        (["sld"], [["sld", "wy"], ["sld", "wy"]], "pairs: ('sld', 'wy') and ('sld', 'wy') both read as ('sld', 'wy')"),
        (["sld"], [["sld", "sld"]], "pairs: ('sld', 'sld') pairs 'sld' with itself"),
        (["sld"], [["wy", "wyd:0.5"]], "pairs: ('wy', 'wyd:0.5') pairs 'wy' with itself"),
    ],
)
def test_compute_refuses_the_specs_that_verify_refuses(tmp_path, capsys, functions, pairs, message):
    # each of these files once ran a function twice, or a pair whose every outcome is skipped, and exited 0
    path = tmp_path / "refused.json"
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    path.write_text(json.dumps(dict(payload, functions=functions, pairs=pairs)))
    assert main(["compute", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_compute_rejects_non_finite_entries(tmp_path, capsys):
    path = tmp_path / "nan.json"
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    payload["observables"][0][0][1] = [math.nan, 0.0]  # written as a JSON NaN literal
    path.write_text(json.dumps(payload))
    assert main(["compute", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: observables[0]: non-finite entry (0, 1) = (nan+0j)\n")


def test_catalog_lists_families(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "sld" in out and "f(0) = 1/2" in out
    assert "sqrt(x)" in out  # the wy transform
    kubo_line = next(line for line in out.splitlines() if line.startswith("kubo-mori"))
    assert "nonregular" in kubo_line and "ftilde" not in kubo_line
    assert len(out.strip().splitlines()) == 8


def test_catalog_output_matches_the_golden_file(capsys):
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "catalog.txt").read_bytes()


def _compute_matches_its_golden_file(monkeypatch, capsys, name: str) -> None:
    # run from the repository root: the first line echoes the path as given
    monkeypatch.chdir(FIXTURES.parent.parent)
    assert main(["compute", f"tests/fixtures/{name}.json"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / f"{name}_compute.txt").read_bytes()


def test_compute_output_matches_the_golden_file(monkeypatch, capsys):
    _compute_matches_its_golden_file(monkeypatch, capsys, "qubit_tight")


def test_compute_output_at_n4_matches_the_golden_file(monkeypatch, capsys):
    # n = 4, N = 4, four functions and the pair sld/wy: the LU determinants, the Firey grid,
    # conj2, equality and contraction at a size past the cofactor formulas
    _compute_matches_its_golden_file(monkeypatch, capsys, "n4_pair")


@pytest.mark.parametrize(
    "name, margin, window, shown",
    [
        ("main", 0.0, None, "within window [pass]"),
        ("main", -1e-9, None, "within window [pass]"),
        ("main", 1e-9, None, "within window [pass]"),
        ("main", 2e-9, None, "2.000e-09 [pass]"),
        ("main", -1.5e-9, None, "-1.500e-09 [FAIL]"),
        # the contraction's window is its own, here wider than tol * scale
        ("contraction", 5e-7, 1e-6, "within window [pass]"),
        ("contraction", -2e-6, 1e-6, "-2.000e-06 [FAIL]"),
    ],
    ids=["zero", "lower-edge", "upper-edge", "above", "below", "contraction-inside", "contraction-below"],
)
def test_compute_prints_a_margin_inside_its_window_as_one_text(capsys, name, margin, window, shown):
    # a margin inside the window is a rounding residue whose digits depend on the BLAS kernel
    from qfidet.cli import _show
    from qfidet.inequalities import _report
    from qfidet.monotone import parse_function_spec

    f = parse_function_spec("sld")
    values = (margin, 0.0, f) if window is None else (margin, 0.0, window, 2, f)
    rep = _report(name, margin, 0.0, 1.0, 1e-9, values, "digest", window=window)
    assert _show(rep) == (0 if rep.passed else 1)
    assert capsys.readouterr().out.splitlines()[0].endswith(f" margin={shown}")


@pytest.mark.parametrize("name", ["qubit_tight", "n4_pair"])
def test_compute_builds_one_block_for_its_instance(monkeypatch, capsys, name):
    # every outcome fills what it reads in the block the instance was built in, and the memos carry over
    from qfidet.inequalities import InstanceBlock

    build, built = InstanceBlock.__init__, []

    def counted(self, instances):
        built.append(len(instances))
        build(self, instances)

    monkeypatch.setattr(InstanceBlock, "__init__", counted)
    _compute_matches_its_golden_file(monkeypatch, capsys, name)
    assert built == [1]


def test_compute_fills_each_memo_key_once(monkeypatch, capsys):
    from qfidet.inequalities import InstanceBlock

    fill, calls, keys = InstanceBlock.fill_pencils, [], []

    def counted(self, pencils, ts, sides):
        calls.append((len(pencils), len(ts), len(sides)))
        keys.extend(side if isinstance(side, str) else side.label for side in sides)
        keys.extend((f.label, g and g.label, t) for f, g in pencils for t in ts)
        return fill(self, pencils, ts, sides)

    monkeypatch.setattr(InstanceBlock, "fill_pencils", counted)
    assert main(["compute", str(FIXTURES / "n4_pair.json")]) == 0
    capsys.readouterr()
    # each outcome fills what it reads on its first read, one side or one pencil row per call, and the
    # memos carry over from plan to plan: the sides cov, robertson and the four functions, then for each
    # function and for the pair the unit row and the 11 Firey rows, each filled once
    assert set(calls) == {(0, 0, 1), (1, 1, 0)}
    assert len(calls) == len(keys) == len(set(keys)) == 6 + 5 * 12


def _scaled_fixture(tmp_path, factor: float) -> str:
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    payload["observables"] = [[[[factor * v for v in entry] for entry in row] for row in m] for m in payload["observables"]]
    path = tmp_path / f"scaled_{factor:g}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "factor, code, message",
    [
        # Cov entries near 1e160: det Cov overflows, a numerical failure
        (1e80, 3, "error: determinant of finite entries up to 1.000e+160 overflows the float range\n"),
        # squared observable norms near 1e320: the input itself is out of range
        (1e160, 2, "error: observables: the sum of squared Frobenius norms overflows "),
    ],
)
def test_compute_on_overflowing_observables_reports_an_error_not_a_violation(tmp_path, capsys, factor, code, message):
    # the suite turns RuntimeWarning into errors, as CI runs the command line
    assert main(["compute", _scaled_fixture(tmp_path, factor)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert "FAIL" not in captured.out and "lhs=" not in captured.out


def test_selftest_output_matches_the_golden_file(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "selftest.txt").read_bytes()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) >= 10
    assert all(line.startswith("ok ") for line in lines)


def test_a_selftest_case_that_raises_is_a_failure(monkeypatch, capsys):
    def broken():
        raise ValueError("no fixture")

    cases = [("broken", broken), ("fine", lambda: (True, "held"))]
    monkeypatch.setattr(selftest, "_cases", lambda tol: cases)
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out == "FAIL broken: raised ValueError: no fixture\nok   fine: held\n"


def test_every_selftest_check_runs_at_the_tol_given(monkeypatch, capsys):
    # every function the selftest imports that takes a tol, wrapped to record the tol each call receives
    received = {}

    def recording(name, check):
        signature = inspect.signature(check)

        def wrapped(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            received.setdefault(name, []).append(bound.arguments["tol"])
            return check(*args, **kwargs)

        return wrapped

    checks = {name: f for name, f in vars(selftest).items() if inspect.isfunction(f) and f.__module__ != selftest.__name__}
    checks = {name: f for name, f in checks.items() if "tol" in inspect.signature(f).parameters}
    assert {"check_conj1", "check_robertson", "minkowski_firey_selftest"} <= checks.keys()
    for name, check in checks.items():
        monkeypatch.setattr(selftest, name, recording(name, check))
    selftest.run_selftest(tol=1e-8)
    capsys.readouterr()
    assert received.keys() == checks.keys()
    assert {name: set(tols) for name, tols in received.items()} == {name: {1e-8} for name in checks}


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qfidet", "selftest"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tight-witness-conj1" in proc.stdout

    bad = subprocess.run(
        [sys.executable, "-m", "qfidet", "verify", "--dims", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert bad.returncode == 2

    unknown = subprocess.run(
        [sys.executable, "-m", "qfidet", "--bogus"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert unknown.returncode == 2


@pytest.mark.parametrize("exc", [ArithmeticError("det below the clamp window"), np.linalg.LinAlgError("Eigenvalues did not converge")])
def test_verify_numerical_failure_exits_3(exc, monkeypatch, capsys):
    import qfidet.campaign as campaign_module

    def fail(inst, f, tol):
        raise exc

    monkeypatch.setattr(campaign_module, "check_main", fail)
    args = ["verify", "--dims", "2", "--num-obs", "1", "--instances", "1", "--kinds", "generic"]
    assert main(args + ["--checks", "main", "--functions", "sld", "--pairs", ""]) == 3
    assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="a started process sees the stand-in only when forked")
def test_verify_exits_3_when_a_started_process_dies_without_a_reply(monkeypatch, capsys):
    import qfidet.campaign as campaign_module

    parent, real = os.getpid(), campaign_module.prepare_random

    def prepare(n, n_obs, seed, kind):
        if os.getpid() != parent:
            os._exit(1)
        # the campaign's own process waits in its first block until the started one has died in its own
        deadline = time.monotonic() + 30.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real(n, n_obs, seed, kind)

    monkeypatch.setattr(campaign_module, "prepare_random", prepare)
    monkeypatch.setattr(sys, "argv", ["qfidet", "verify", "--instances", "1", "--workers", "2"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == 3
    assert capsys.readouterr().err == "error: a campaign process exited with code 1 without a reply\n"
    assert multiprocessing.active_children() == []
